package tracein

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"eventpf/internal/cpu"
	"eventpf/internal/mem"
	"eventpf/internal/sim"
	"eventpf/internal/trace"
)

// emit feeds one op into a Writer the way the core's dispatch stage does:
// packed as a trace.CoreDispatch event with the two dependence distances in
// the Dur halves.
func emit(w *Writer, op Op) {
	var flags int32
	if op.Taken {
		flags = 1
	}
	w.Event(trace.Event{
		Kind: trace.CoreDispatch, Addr: op.Addr,
		A: int32(op.Kind), B: int32(op.PC), C: flags,
		Dur: sim.Ticks(op.Rel[0] | op.Rel[1]<<32),
	})
}

// sampleOps exercises every kind, backwards PC deltas, large address jumps
// and both dependence slots.
var sampleOps = []Op{
	{Kind: cpu.OpInt, PC: 100},
	{Kind: cpu.OpLoad, PC: 104, Addr: 0x10000, Rel: [2]uint64{1, 0}},
	{Kind: cpu.OpMul, PC: 108, Rel: [2]uint64{1, 2}},
	{Kind: cpu.OpLoad, PC: 112, Addr: 0xFFFF0000, Rel: [2]uint64{1, 0}},
	{Kind: cpu.OpStore, PC: 116, Addr: 0x10008, Rel: [2]uint64{1, 0}},
	{Kind: cpu.OpBranch, PC: 120, Taken: true, Rel: [2]uint64{4, 0}},
	{Kind: cpu.OpBranch, PC: 100, Taken: false},
	{Kind: cpu.OpSWPf, PC: 104, Addr: 0x8000, Rel: [2]uint64{2, 0}},
	{Kind: cpu.OpDiv, PC: 108, Rel: [2]uint64{1 << 20, 7}},
	{Kind: cpu.OpConfig, PC: 112},
}

func encode(t *testing.T, meta Meta, ops []Op) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, meta)
	for _, op := range ops {
		emit(w, op)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func decodeAll(dec Decoder) ([]Op, error) {
	var ops []Op
	for {
		op, err := dec.Next()
		if err == io.EOF {
			return ops, nil
		}
		if err != nil {
			return ops, err
		}
		ops = append(ops, op)
	}
}

func TestNativeRoundTrip(t *testing.T) {
	meta := Meta{Bench: "RandAcc", Scheme: "no-pf", Scale: 0.25, Tool: "test",
		Regions: []RegionMeta{{Name: "table", Base: 0x10000, Size: 4096}}}
	raw := encode(t, meta, sampleOps)

	dec, err := Open(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if got := dec.Meta(); got.Bench != "RandAcc" || got.Scheme != "no-pf" ||
		got.Scale != 0.25 || len(got.Regions) != 1 || got.Regions[0].Base != 0x10000 {
		t.Errorf("meta did not round-trip: %+v", got)
	}
	got, err := decodeAll(dec)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(sampleOps) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(sampleOps))
	}
	for i, op := range got {
		if op != sampleOps[i] {
			t.Errorf("op %d = %+v, want %+v", i, op, sampleOps[i])
		}
	}
	// A second Next after the clean EOF stays EOF.
	if _, err := dec.Next(); err != io.EOF {
		t.Errorf("Next after EOF = %v, want io.EOF", err)
	}
}

func TestWriterCounts(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Meta{})
	for _, op := range sampleOps {
		emit(w, op)
	}
	// Non-dispatch events must be ignored (the writer may share a bus).
	w.Event(trace.Event{Kind: trace.DRAMAccess})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(sampleOps)) {
		t.Errorf("Count = %d, want %d", w.Count(), len(sampleOps))
	}
	if w.KindCount(cpu.OpLoad) != 2 || w.KindCount(cpu.OpBranch) != 2 {
		t.Errorf("KindCount(load)=%d KindCount(branch)=%d, want 2 and 2",
			w.KindCount(cpu.OpLoad), w.KindCount(cpu.OpBranch))
	}
}

func TestGzipDecodesIdentically(t *testing.T) {
	raw := encode(t, Meta{Bench: "HJ-2"}, sampleOps)
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	zw.Write(raw)
	zw.Close()

	plain, err := Open(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	zipped, err := Open(bytes.NewReader(zbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	pops, perr := decodeAll(plain)
	zops, zerr := decodeAll(zipped)
	if perr != nil || zerr != nil {
		t.Fatalf("decode: plain %v, gzip %v", perr, zerr)
	}
	if len(pops) != len(zops) {
		t.Fatalf("plain %d ops, gzip %d", len(pops), len(zops))
	}
	for i := range pops {
		if pops[i] != zops[i] {
			t.Errorf("op %d: plain %+v, gzip %+v", i, pops[i], zops[i])
		}
	}
	if zipped.Meta().Bench != "HJ-2" {
		t.Errorf("gzip meta = %+v", zipped.Meta())
	}
}

func TestEmptyTraceIsValid(t *testing.T) {
	raw := encode(t, Meta{}, nil)
	dec, err := Open(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	ops, err := decodeAll(dec)
	if err != nil || len(ops) != 0 {
		t.Errorf("empty trace decoded to %d ops, err %v", len(ops), err)
	}
}

func TestTruncatedTraceIsFormatError(t *testing.T) {
	raw := encode(t, Meta{}, sampleOps)
	// Chop the trailer and half the last record off.
	dec, err := Open(bytes.NewReader(raw[:len(raw)-3]))
	if err != nil {
		t.Fatal(err)
	}
	_, err = decodeAll(dec)
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("truncated trace error = %v, want *FormatError", err)
	}
}

func TestHeaderErrors(t *testing.T) {
	raw := encode(t, Meta{Bench: "x"}, sampleOps)

	version := append([]byte(nil), raw...)
	version[4] = FormatVersion + 1

	metaLen := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(metaLen[6:], 1<<24)

	badJSON := append([]byte(nil), raw...)
	badJSON[10] = '{' + 1 // corrupt the first metadata byte

	short := raw[:7]

	for name, b := range map[string][]byte{
		"version": version, "metaLen": metaLen, "badJSON": badJSON, "short": short,
	} {
		_, err := Open(bytes.NewReader(b))
		var he *HeaderError
		if !errors.As(err, &he) {
			t.Errorf("%s: Open error = %v, want *HeaderError", name, err)
		}
	}
}

// TestRegionTableBounded: replay maps every page a header region declares,
// so Open refuses a table it cannot map — a region past the top of the
// address space, or more than MaxRegionPages pages in all — with a few
// header bytes, before anything is mapped. A table at the bound opens.
func TestRegionTableBounded(t *testing.T) {
	const page = mem.PageSize
	for name, regions := range map[string][]RegionMeta{
		"petabyte":     {{Base: page, Size: 1 << 50}},
		"wraps":        {{Base: math.MaxUint64 - page + 1, Size: 2 * page}},
		"whole-space":  {{Base: 0, Size: math.MaxUint64}},
		"sum-too-many": {{Base: page, Size: MaxRegionPages / 2 * page}, {Base: 1 << 40, Size: (MaxRegionPages/2 + 1) * page}},
	} {
		raw := encode(t, Meta{Regions: regions}, nil)
		_, err := Open(bytes.NewReader(raw))
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s (%d-byte trace): Open error = %v, want *FormatError", name, len(raw), err)
		}
	}
	atBound := []RegionMeta{{Base: page, Size: MaxRegionPages/2*page - 1}, {Base: 1 << 40, Size: MaxRegionPages / 2 * page}, {Base: 1 << 50}}
	if _, err := Open(bytes.NewReader(encode(t, Meta{Regions: atBound[:2]}, nil))); err != nil {
		t.Errorf("a table of exactly %d pages: %v", MaxRegionPages, err)
	}
	if _, err := Open(bytes.NewReader(encode(t, Meta{Regions: atBound}, nil))); err == nil {
		t.Errorf("a zero-size region past %d pages was accepted", MaxRegionPages)
	}
}

func TestTrailerCountMismatch(t *testing.T) {
	raw := encode(t, Meta{}, sampleOps)
	// The trailer of a small trace is its last two bytes: 0x80 then the count
	// as a single-byte uvarint.
	if raw[len(raw)-2] != trailerTag || raw[len(raw)-1] != byte(len(sampleOps)) {
		t.Fatalf("unexpected trailer bytes % x", raw[len(raw)-2:])
	}
	spliced := append([]byte(nil), raw...)
	spliced[len(spliced)-1]++
	dec, err := Open(bytes.NewReader(spliced))
	if err != nil {
		t.Fatal(err)
	}
	_, err = decodeAll(dec)
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("count mismatch error = %v, want *FormatError", err)
	}
}

func TestDataAfterTrailerIsFormatError(t *testing.T) {
	raw := encode(t, Meta{}, sampleOps)
	dec, err := Open(bytes.NewReader(append(raw, 0)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = decodeAll(dec)
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("data-after-trailer error = %v, want *FormatError", err)
	}
}

func TestUnknownTagByteIsFormatError(t *testing.T) {
	raw := encode(t, Meta{}, nil)
	// Insert a tag with bit 7 set that is not the trailer before the trailer.
	bad := append(raw[:len(raw)-2:len(raw)-2], 0x81)
	bad = append(bad, raw[len(raw)-2:]...)
	dec, err := Open(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	_, err = decodeAll(dec)
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("unknown tag error = %v, want *FormatError", err)
	}
}

// TestPCOutsideRangeIsFormatError: a native record's PC is what capture wrote
// from a 32-bit field, so a delta that carries it below zero or past 2³¹-1 is
// corruption, not a PC to hand to the core (cpu.MicroOp.PC).
func TestPCOutsideRangeIsFormatError(t *testing.T) {
	// A header, then one hand-built record, then a trailer counting one.
	empty, one := encode(t, Meta{}, nil), encode(t, Meta{}, sampleOps[:1])
	header, trailer := empty[:len(empty)-2:len(empty)-2], one[len(one)-2:]
	for _, delta := range []int64{-1, 1 << 31, math.MinInt64} {
		rec := binary.AppendVarint([]byte{byte(cpu.OpInt)}, delta)
		dec, err := Open(bytes.NewReader(append(append(header, rec...), trailer...)))
		if err != nil {
			t.Fatal(err)
		}
		_, err = decodeAll(dec)
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("pc delta %d: error = %v, want *FormatError", delta, err)
		}
	}
	// The largest PC decodes.
	rec := binary.AppendVarint([]byte{byte(cpu.OpInt)}, math.MaxInt32)
	dec, err := Open(bytes.NewReader(append(append(header, rec...), trailer...)))
	if err != nil {
		t.Fatal(err)
	}
	if ops, err := decodeAll(dec); err != nil || len(ops) != 1 || ops[0].PC != math.MaxInt32 {
		t.Errorf("pc 2³¹-1: decoded %+v, %v", ops, err)
	}
}

// champsimRecord builds one 64-byte ChampSim input_instr.
func champsimRecord(ip uint64, isBranch, taken bool, dst, src []uint8, dstMem, srcMem []uint64) []byte {
	rec := make([]byte, champsimRecordLen)
	binary.LittleEndian.PutUint64(rec[0:], ip)
	if isBranch {
		rec[8] = 1
	}
	if taken {
		rec[9] = 1
	}
	copy(rec[10:12], dst)
	copy(rec[12:16], src)
	for i, a := range dstMem {
		binary.LittleEndian.PutUint64(rec[16+8*i:], a)
	}
	for i, a := range srcMem {
		binary.LittleEndian.PutUint64(rec[32+8*i:], a)
	}
	return rec
}

func TestChampSimDecode(t *testing.T) {
	var buf bytes.Buffer
	// i0: load r5 <- [0x2000]
	buf.Write(champsimRecord(0x1000, false, false, []uint8{5}, nil, nil, []uint64{0x2000}))
	// i1: store [0x3000] <- f(r5)
	buf.Write(champsimRecord(0x1008, false, false, nil, []uint8{5}, []uint64{0x3000}, nil))
	// i2: taken branch on r5
	buf.Write(champsimRecord(0x1010, true, true, nil, []uint8{5}, nil, nil))

	dec, err := Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Meta().Tool != "champsim" {
		t.Errorf("Tool = %q, want champsim", dec.Meta().Tool)
	}
	ops, err := decodeAll(dec)
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{
		// i0 → load (id 0), body int (id 1, dep on the load).
		{Kind: cpu.OpLoad, PC: 0x1000, Addr: 0x2000},
		{Kind: cpu.OpInt, PC: 0x1000, Rel: [2]uint64{1, 0}},
		// i1 → body int (id 2, dep on i0's body = id 1), store (id 3, dep body).
		{Kind: cpu.OpInt, PC: 0x1008, Rel: [2]uint64{1, 0}},
		{Kind: cpu.OpStore, PC: 0x1008, Addr: 0x3000, Rel: [2]uint64{1, 0}},
		// i2 → branch (id 4, dep on i0's body = id 1, distance 3).
		{Kind: cpu.OpBranch, PC: 0x1010, Taken: true, Rel: [2]uint64{3, 0}},
	}
	if len(ops) != len(want) {
		t.Fatalf("decoded %d ops, want %d: %+v", len(ops), len(want), ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %+v, want %+v", i, ops[i], want[i])
		}
	}
}

// TestChampSimPCFoldsIntoRange: ChampSim instruction pointers are 64-bit
// addresses; whatever their upper bits, the decoded PC is one the core and
// the prefetch units accept (0 ≤ PC < 2³¹), the same for every record of one
// instruction.
func TestChampSimPCFoldsIntoRange(t *testing.T) {
	rec := champsimRecord(0xffffffff80001000, false, false, []uint8{5}, nil, nil, []uint64{0x2000})
	dec, err := Open(bytes.NewReader(rec))
	if err != nil {
		t.Fatal(err)
	}
	ops, err := decodeAll(dec)
	if err != nil || len(ops) != 2 {
		t.Fatalf("decoded %+v, %v", ops, err)
	}
	for _, op := range ops {
		if op.PC != 0x1000 {
			t.Errorf("op of kind %d has PC %#x, want the low 31 bits 0x1000", op.Kind, op.PC)
		}
	}
}

// TestChampSimDecodeAllocatesNothing: once Open has built the decoder,
// expanding a record into its micro-ops allocates nothing (DESIGN §15) — the
// record, its load ids and its ops live in buffers the decoder owns.
func TestChampSimDecodeAllocatesNothing(t *testing.T) {
	const records = 4096
	// Two loads, the body and a store: four ops a record.
	rec := champsimRecord(0x1000, false, false, []uint8{5}, []uint8{5, 6}, []uint64{0x3000}, []uint64{0x2000, 0x2008})
	dec, err := Open(bytes.NewReader(bytes.Repeat(rec, records)))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(records-1, func() { // one more run warms up
		for i := 0; i < 4; i++ {
			if _, err := dec.Next(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per ChampSim record, want none", allocs)
	}
	if _, err := dec.Next(); err != io.EOF {
		t.Errorf("after %d records: %v, want io.EOF", records, err)
	}
}

func TestChampSimTruncatedRecord(t *testing.T) {
	rec := champsimRecord(0x1000, false, false, nil, nil, nil, []uint64{0x2000})
	dec, err := Open(bytes.NewReader(append(rec, rec[:10]...)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = decodeAll(dec)
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("truncated ChampSim error = %v, want *FormatError", err)
	}
}

// TestReplayerCloneAt opens a second decode cursor mid-stream: the clone's
// remaining ops must be exactly the original's from that position — same
// record payloads, same absolute dynamic ids (so dependence distances keep
// resolving identically) — and a clean end of trace on both cursors. An op
// index past the end of the trace must error rather than return a short
// stream, and a replayer without a file path (NewReplayer) must refuse to
// clone.
func TestReplayerCloneAt(t *testing.T) {
	meta := Meta{Bench: "RandAcc", Scheme: "no-pf", Scale: 0.25, Tool: "test",
		Regions: []RegionMeta{{Name: "table", Base: 0x10000, Size: 4096}}}
	raw := encode(t, meta, sampleOps)
	path := filepath.Join(t.TempDir(), "clone.ppft")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	orig, err := OpenReplayer(path, mem.NewBacking())
	if err != nil {
		t.Fatal(err)
	}
	const split = 4
	for i := 0; i < split; i++ {
		if _, ok := orig.Next(); !ok {
			t.Fatalf("original stream ended at op %d", i)
		}
	}
	clone, err := orig.CloneAt(mem.NewBacking(), orig.Ops())
	if err != nil {
		t.Fatalf("CloneAt: %v", err)
	}
	if clone.Ops() != orig.Ops() {
		t.Fatalf("clone positioned at op %d, want %d", clone.Ops(), orig.Ops())
	}
	for i := split; ; i++ {
		a, aok := orig.Next()
		b, bok := clone.Next()
		if aok != bok {
			t.Fatalf("op %d: original ok=%v, clone ok=%v", i, aok, bok)
		}
		if !aok {
			break
		}
		// MicroOp carries a func field (Do, always nil on replay), so
		// compare the replay-visible fields directly.
		if a.Kind != b.Kind || a.PC != b.PC || a.Addr != b.Addr || a.Taken != b.Taken || a.Deps != b.Deps {
			t.Fatalf("op %d differs:\noriginal %+v\nclone    %+v", i, a, b)
		}
	}
	if orig.Err() != nil || clone.Err() != nil {
		t.Fatalf("decode errors: original %v, clone %v", orig.Err(), clone.Err())
	}

	if _, err := orig.CloneAt(mem.NewBacking(), int64(len(sampleOps))+5); err == nil {
		t.Error("CloneAt past end of trace did not error")
	}
	plain := NewReplayer(mustOpenDecoder(t, raw), mem.NewBacking(), nil)
	if _, err := plain.CloneAt(mem.NewBacking(), 0); err == nil {
		t.Error("pathless replayer cloned itself")
	}
}

func mustOpenDecoder(t *testing.T, raw []byte) Decoder {
	t.Helper()
	dec, err := Open(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return dec
}
