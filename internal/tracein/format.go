// Package tracein is the trace-driven workload front end: it captures the
// core's demand micro-op stream to a self-describing binary format, decodes
// that format (and ChampSim-style instruction traces) as a stream, and
// replays decoded ops through the simulated machine as a workloads.Instance
// — so a captured trace runs under every registered prefetching scheme with
// zero registry changes.
//
// # Native format (PPFT)
//
// A native trace is, in order:
//
//	magic   "PPFT"                (4 bytes)
//	version 1 byte                (FormatVersion)
//	flags   1 byte                (reserved, 0)
//	metaLen 4 bytes little-endian
//	meta    metaLen bytes of JSON (Meta: benchmark, scheme, memory regions …)
//	records variable              (one per micro-op, below)
//	trailer 0x80 + uvarint count  (total records, truncation check)
//
// Each record starts with a tag byte: bits 0–2 the cpu.OpKind, bit 3 the
// branch direction, bit 4 "has address", bits 5/6 "has dependence 1/2", and
// bit 7 zero — a set bit 7 marks the trailer instead. The tag is followed by
// the PC (0 ≤ PC < 2³¹, anything else is a *FormatError) as a zig-zag varint
// delta from the previous record's PC, then (if present) the address as a zig-zag varint delta from the previous address,
// then each present dependence distance (dispatch id minus producer id,
// always ≥ 1) as a plain uvarint. Delta coding keeps loop-heavy streams
// around 3–6 bytes per op before gzip.
//
// The whole file may be gzip-compressed; Open sniffs the two-byte gzip
// magic and decompresses transparently. A stream without the PPFT magic is
// decoded as a ChampSim instruction trace (champsim.go).
package tracein

import "fmt"

// FormatVersion is the native format's current version byte. Readers reject
// other versions with a *HeaderError rather than guessing.
const FormatVersion = 1

// magic opens every native trace file.
const magic = "PPFT"

// trailerTag marks the end-of-records trailer (tag byte with bit 7 set).
const trailerTag = 0x80

// Tag byte layout.
const (
	tagKindMask = 0x07
	tagTaken    = 1 << 3
	tagHasAddr  = 1 << 4
	tagHasDep1  = 1 << 5
	tagHasDep2  = 1 << 6
)

// Meta is the native header's JSON payload: enough to replay the trace on a
// fresh machine (the memory regions that must be mapped) plus provenance.
type Meta struct {
	// Bench names the benchmark the trace was captured from.
	Bench string `json:"bench,omitempty"`
	// Scheme names the prefetching scheme active during capture. The demand
	// op stream is scheme-independent for plain-variant runs, so a no-pf
	// capture replays bit-identically against any non-programmable scheme.
	Scheme string `json:"scheme,omitempty"`
	// Scale is the input scale the capture ran at.
	Scale float64 `json:"scale,omitempty"`
	// Regions are the arena allocations of the captured machine. Replay maps
	// every region page before the first op, reproducing the capture
	// machine's exact page map — prefetches to mapped-but-untouched pages
	// must survive translation on replay just as they did live. Open
	// refuses a table with a region past the top of the address space or
	// more than MaxRegionPages pages in all.
	Regions []RegionMeta `json:"regions,omitempty"`
	// Tool records what wrote the trace.
	Tool string `json:"tool,omitempty"`
}

// RegionMeta mirrors mem.Region in the header.
type RegionMeta struct {
	Name string `json:"name,omitempty"`
	Base uint64 `json:"base"`
	Size uint64 `json:"size"`
}

// HeaderError reports a stream that cannot be a usable trace: missing or
// foreign magic where one was required, an unsupported version, or a
// malformed header. It is typed so front ends can turn it into "bad request"
// rather than a simulation failure.
type HeaderError struct {
	Reason string
}

func (e *HeaderError) Error() string {
	return "tracein: bad trace header: " + e.Reason
}

// FormatError reports a corrupt or truncated record stream at a byte offset
// (counted over the decompressed stream, records only). A region table
// replay cannot map is reported at offset 0, where the records begin.
type FormatError struct {
	Offset int64
	Reason string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("tracein: corrupt trace at byte %d: %s", e.Offset, e.Reason)
}
