package tracein

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"eventpf/internal/cpu"
	"eventpf/internal/mem"
)

// Op is one decoded trace record in machine-neutral form.
type Op struct {
	Kind  cpu.OpKind
	PC    int
	Addr  uint64
	Taken bool
	// Rel are the dependence distances (dispatch id minus producer id,
	// 0 = no dependence in that slot).
	Rel [2]uint64
}

// Decoder streams ops out of a trace. Next returns io.EOF at a clean end of
// trace; any other error is a *FormatError (or the underlying I/O error).
type Decoder interface {
	Meta() Meta
	Next() (Op, error)
}

// Open wraps r and returns a streaming decoder for it. Gzip input is
// detected by its two-byte magic and decompressed transparently; a stream
// that then starts with the native PPFT magic gets the native decoder, and
// anything else is decoded as a raw ChampSim instruction trace. Nothing is
// ever loaded whole: both decoders read record by record through a small
// buffer.
func Open(r io.Reader) (Decoder, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if head, err := br.Peek(2); err == nil && head[0] == 0x1f && head[1] == 0x8b {
		zr, err := gzip.NewReader(br)
		if err != nil {
			return nil, &HeaderError{Reason: fmt.Sprintf("gzip: %v", err)}
		}
		br = bufio.NewReaderSize(zr, 1<<16)
	}
	head, err := br.Peek(len(magic))
	if err != nil {
		return nil, &HeaderError{Reason: fmt.Sprintf("stream shorter than the %d-byte magic: %v", len(magic), err)}
	}
	if string(head) == magic {
		return newNativeDecoder(br)
	}
	return newChampSimDecoder(br), nil
}

// maxRecordLen is the longest native record: a tag byte and four varints
// (PC, address, two dependence distances).
const maxRecordLen = 1 + 4*binary.MaxVarintLen64

// errOverflow is what binary.ReadUvarint reports for a varint past 64 bits.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

// nativeDecoder decodes PPFT records in place, out of a view of the
// bufio.Reader's buffer: no call per byte, and nothing copied.
type nativeDecoder struct {
	br *bufio.Reader
	// view is br's buffered data from base on; pos is the decode position in
	// it. Unless viewErr is set, at least maxRecordLen bytes follow every
	// record start, so a record never runs off the end of the view; once it
	// is set, the view ends where the stream does, and reading past the end
	// yields viewErr, as reading past it byte by byte would have.
	view    []byte
	pos     int
	base    int64 // record-stream offset of view[0]
	viewErr error

	meta     Meta
	prevPC   int64
	prevAddr uint64
	count    uint64
	done     bool
}

func newNativeDecoder(br *bufio.Reader) (*nativeDecoder, error) {
	var head [10]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, &HeaderError{Reason: fmt.Sprintf("truncated header: %v", err)}
	}
	if string(head[:4]) != magic {
		return nil, &HeaderError{Reason: "bad magic"}
	}
	if head[4] != FormatVersion {
		return nil, &HeaderError{Reason: fmt.Sprintf("unsupported format version %d (want %d)", head[4], FormatVersion)}
	}
	metaLen := binary.LittleEndian.Uint32(head[6:])
	if metaLen > 1<<20 {
		return nil, &HeaderError{Reason: fmt.Sprintf("implausible metadata length %d", metaLen)}
	}
	metaJSON := make([]byte, metaLen)
	if _, err := io.ReadFull(br, metaJSON); err != nil {
		return nil, &HeaderError{Reason: fmt.Sprintf("truncated metadata: %v", err)}
	}
	d := &nativeDecoder{br: br}
	if err := json.Unmarshal(metaJSON, &d.meta); err != nil {
		return nil, &HeaderError{Reason: fmt.Sprintf("metadata: %v", err)}
	}
	if err := checkRegions(d.meta.Regions); err != nil {
		return nil, err
	}
	return d, nil
}

// MaxRegionPages bounds the pages a native trace's region table may declare
// in all. Replay maps every one of them before the first op (NewReplayer),
// so without a bound a few header bytes could ask for any number. It is 2²⁰
// pages, 4 GiB of address space; the largest capture this module makes,
// HJ-8 at scale 1, declares 8449.
const MaxRegionPages = 1 << 20

// checkRegions refuses a region table replay cannot map: a region whose end
// lies past the top of the address space, or more than MaxRegionPages pages
// in all. The error is a *FormatError at offset 0, where the records the
// table precedes begin.
func checkRegions(regions []RegionMeta) error {
	var total uint64
	for _, r := range regions {
		size := r.Size
		if size == 0 {
			size = 8 // as NewReplayer maps it
		}
		if r.Base > math.MaxUint64-(size-1) {
			return &FormatError{Reason: fmt.Sprintf("region %q at %#x of %d bytes ends past the address space", r.Name, r.Base, r.Size)}
		}
		total += size / mem.PageSize
		if size%mem.PageSize != 0 {
			total++
		}
		if total > MaxRegionPages {
			return &FormatError{Reason: fmt.Sprintf("regions declare more than %d pages", MaxRegionPages)}
		}
	}
	return nil
}

func (d *nativeDecoder) Meta() Meta { return d.meta }

func (d *nativeDecoder) Next() (Op, error) {
	var op Op
	err := d.next(&op)
	return op, err
}

// refill restarts the view at the decode position, holding at least
// maxRecordLen bytes or everything up to the reader's error.
func (d *nativeDecoder) refill() {
	d.br.Discard(d.pos) // buffered bytes: cannot fail
	d.base += int64(d.pos)
	d.pos = 0
	d.view, d.viewErr = d.br.Peek(maxRecordLen)
	if d.viewErr == nil {
		d.view, _ = d.br.Peek(d.br.Buffered())
	}
}

// next decodes one record into op. Replayer.Fill calls it directly; Next is
// it behind the Decoder interface.
func (d *nativeDecoder) next(op *Op) error {
	if d.done {
		return io.EOF
	}
	if d.viewErr == nil && len(d.view)-d.pos < maxRecordLen {
		d.refill()
	}
	start := d.base + int64(d.pos)
	if d.pos == len(d.view) {
		if d.viewErr == io.EOF {
			return &FormatError{Offset: start, Reason: "stream ends without a trailer (truncated trace)"}
		}
		return d.viewErr
	}
	tag := d.view[d.pos]
	d.pos++
	if tag&trailerTag != 0 {
		return d.finish(tag, start)
	}
	kind := cpu.OpKind(tag & tagKindMask)
	dpc, err := d.varint()
	if err != nil {
		return d.corrupt(start, "pc", err)
	}
	d.prevPC += dpc
	if d.prevPC < 0 || d.prevPC > math.MaxInt32 {
		// The capture side writes a 32-bit field (trace.Event.B) that holds
		// an IR instruction index; cpu.MicroOp.PC states the range.
		return &FormatError{Offset: start, Reason: fmt.Sprintf("pc %d outside 0..2³¹-1", d.prevPC)}
	}
	*op = Op{Kind: kind, PC: int(d.prevPC), Taken: tag&tagTaken != 0}
	if tag&tagHasAddr != 0 {
		if !kindHasAddr(kind) {
			return &FormatError{Offset: start, Reason: fmt.Sprintf("address on op kind %d", int(kind))}
		}
		daddr, err := d.varint()
		if err != nil {
			return d.corrupt(start, "address", err)
		}
		d.prevAddr += uint64(daddr)
		op.Addr = d.prevAddr
	}
	if tag&tagHasDep1 != 0 {
		if op.Rel[0], err = d.uvarint(); err != nil {
			return d.corrupt(start, "dependence 1", err)
		}
	}
	if tag&tagHasDep2 != 0 {
		if op.Rel[1], err = d.uvarint(); err != nil {
			return d.corrupt(start, "dependence 2", err)
		}
	}
	d.count++
	return nil
}

// uvarint decodes the uvarint at the decode position with
// binary.ReadUvarint's results, the end of the view standing for viewErr.
// A one-byte varint, the common case, is decoded inline.
func (d *nativeDecoder) uvarint() (uint64, error) {
	if d.pos < len(d.view) && d.view[d.pos] < 0x80 {
		d.pos++
		return uint64(d.view[d.pos-1]), nil
	}
	return d.uvarintLong()
}

func (d *nativeDecoder) uvarintLong() (uint64, error) {
	buf := d.view[d.pos:]
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if i == len(buf) {
			d.pos += i
			if i > 0 && d.viewErr == io.EOF {
				return x, io.ErrUnexpectedEOF
			}
			return x, d.viewErr
		}
		b := buf[i]
		if b < 0x80 {
			d.pos += i + 1
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return x, errOverflow
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	d.pos += binary.MaxVarintLen64
	return x, errOverflow
}

// varint decodes a zig-zag varint as binary.ReadVarint does.
func (d *nativeDecoder) varint() (int64, error) {
	ux, err := d.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

// finish validates the trailer and the bytes after it, then reports a clean
// io.EOF so streaming callers stop naturally.
func (d *nativeDecoder) finish(tag byte, start int64) error {
	if tag != trailerTag {
		return &FormatError{Offset: start, Reason: fmt.Sprintf("unknown tag byte %#02x", tag)}
	}
	want, err := d.uvarint()
	if err != nil {
		return d.corrupt(start, "trailer count", err)
	}
	if want != d.count {
		return &FormatError{Offset: start,
			Reason: fmt.Sprintf("trailer records %d ops, decoded %d (truncated or spliced trace)", want, d.count)}
	}
	if d.pos == len(d.view) && d.viewErr == nil {
		d.refill()
	}
	if d.pos < len(d.view) || d.viewErr != io.EOF {
		return &FormatError{Offset: d.base + int64(d.pos), Reason: "data after the trailer"}
	}
	d.done = true
	return io.EOF
}

func (d *nativeDecoder) corrupt(start int64, what string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return &FormatError{Offset: start, Reason: fmt.Sprintf("record %s field truncated", what)}
	}
	return &FormatError{Offset: start, Reason: fmt.Sprintf("record %s field: %v", what, err)}
}
