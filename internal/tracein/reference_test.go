package tracein

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"eventpf/internal/cpu"
)

// This file keeps the record decoders as they were before the native one
// decoded in place from the buffer and the ChampSim one owned its buffers:
// the native format read a byte at a time through io.ByteReader, ChampSim a
// fresh record array and load-id slice per instruction. They are the
// reference FuzzTraceDecode holds Open's decoders to.

// refOpen is Open with each decoder swapped for its reference, positioned
// where Open left it (the header, unchanged, is Open's to parse).
func refOpen(r io.Reader) (Decoder, error) {
	dec, err := Open(r)
	if err != nil {
		return nil, err
	}
	switch d := dec.(type) {
	case *nativeDecoder:
		return &refNative{r: countingReader{br: d.br}, meta: d.meta}, nil
	case *champsimDecoder:
		return newRefChampSim(d.br), nil
	}
	panic("tracein: Open returned an unknown decoder")
}

// countingReader is a byte reader that tracks its offset for FormatError.
type countingReader struct {
	br  *bufio.Reader
	off int64
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.br.ReadByte()
	if err == nil {
		c.off++
	}
	return b, err
}

type refNative struct {
	r        countingReader
	meta     Meta
	prevPC   int64
	prevAddr uint64
	count    uint64
	done     bool
}

func (d *refNative) Meta() Meta { return d.meta }

func (d *refNative) Next() (Op, error) {
	if d.done {
		return Op{}, io.EOF
	}
	start := d.r.off
	tag, err := d.r.ReadByte()
	if err == io.EOF {
		return Op{}, &FormatError{Offset: start, Reason: "stream ends without a trailer (truncated trace)"}
	}
	if err != nil {
		return Op{}, err
	}
	if tag&trailerTag != 0 {
		return Op{}, d.finish(tag, start)
	}
	var op Op
	op.Kind = cpu.OpKind(tag & tagKindMask)
	op.Taken = tag&tagTaken != 0
	dpc, err := binary.ReadVarint(&d.r)
	if err != nil {
		return Op{}, refCorrupt(start, "pc", err)
	}
	d.prevPC += dpc
	if d.prevPC < 0 || d.prevPC > math.MaxInt32 {
		return Op{}, &FormatError{Offset: start, Reason: fmt.Sprintf("pc %d outside 0..2³¹-1", d.prevPC)}
	}
	op.PC = int(d.prevPC)
	if tag&tagHasAddr != 0 {
		if !kindHasAddr(op.Kind) {
			return Op{}, &FormatError{Offset: start, Reason: fmt.Sprintf("address on op kind %d", int(op.Kind))}
		}
		daddr, err := binary.ReadVarint(&d.r)
		if err != nil {
			return Op{}, refCorrupt(start, "address", err)
		}
		d.prevAddr += uint64(daddr)
		op.Addr = d.prevAddr
	}
	if tag&tagHasDep1 != 0 {
		if op.Rel[0], err = binary.ReadUvarint(&d.r); err != nil {
			return Op{}, refCorrupt(start, "dependence 1", err)
		}
	}
	if tag&tagHasDep2 != 0 {
		if op.Rel[1], err = binary.ReadUvarint(&d.r); err != nil {
			return Op{}, refCorrupt(start, "dependence 2", err)
		}
	}
	d.count++
	return op, nil
}

// finish differs from the original in one respect: data after the trailer
// is reported at the offset where it starts, not one byte into it.
func (d *refNative) finish(tag byte, start int64) error {
	if tag != trailerTag {
		return &FormatError{Offset: start, Reason: fmt.Sprintf("unknown tag byte %#02x", tag)}
	}
	want, err := binary.ReadUvarint(&d.r)
	if err != nil {
		return refCorrupt(start, "trailer count", err)
	}
	if want != d.count {
		return &FormatError{Offset: start,
			Reason: fmt.Sprintf("trailer records %d ops, decoded %d (truncated or spliced trace)", want, d.count)}
	}
	end := d.r.off
	if _, err := d.r.ReadByte(); err != io.EOF {
		return &FormatError{Offset: end, Reason: "data after the trailer"}
	}
	d.done = true
	return io.EOF
}

func refCorrupt(start int64, what string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return &FormatError{Offset: start, Reason: fmt.Sprintf("record %s field truncated", what)}
	}
	return &FormatError{Offset: start, Reason: fmt.Sprintf("record %s field: %v", what, err)}
}

type refChampSim struct {
	br        *bufio.Reader
	off       int64
	regWriter [256]int64
	nextID    int64
	queue     []Op
	qpos      int
}

func newRefChampSim(br *bufio.Reader) *refChampSim {
	d := &refChampSim{br: br}
	for i := range d.regWriter {
		d.regWriter[i] = -1
	}
	return d
}

func (d *refChampSim) Meta() Meta { return Meta{Tool: "champsim"} }

func (d *refChampSim) Next() (Op, error) {
	for d.qpos >= len(d.queue) {
		if err := d.fill(); err != nil {
			return Op{}, err
		}
	}
	op := d.queue[d.qpos]
	d.qpos++
	return op, nil
}

func (d *refChampSim) fill() error {
	var rec [champsimRecordLen]byte
	n, err := io.ReadFull(d.br, rec[:])
	if err == io.EOF {
		return io.EOF
	}
	if err != nil {
		return &FormatError{Offset: d.off + int64(n),
			Reason: "truncated ChampSim record (file length not a multiple of 64)"}
	}
	d.off += champsimRecordLen

	ip := binary.LittleEndian.Uint64(rec[0:])
	isBranch := rec[8] != 0
	taken := rec[9] != 0
	var dstRegs [champsimDests]uint8
	copy(dstRegs[:], rec[10:12])
	var srcRegs [champsimSources]uint8
	copy(srcRegs[:], rec[12:16])
	pc := int(ip & math.MaxInt32)

	d.queue = d.queue[:0]
	d.qpos = 0
	var srcDep [champsimSources]int64
	for i, r := range srcRegs {
		srcDep[i] = -1
		if r != 0 {
			srcDep[i] = d.regWriter[r]
		}
	}
	var loadIDs []int64
	for i := 0; i < champsimSrcMem; i++ {
		addr := binary.LittleEndian.Uint64(rec[32+8*i:])
		if addr == 0 {
			continue
		}
		id := d.nextID
		d.nextID++
		d.queue = append(d.queue, Op{
			Kind: cpu.OpLoad, PC: pc, Addr: addr,
			Rel: [2]uint64{rel(id, srcDep[0]), rel(id, srcDep[1])},
		})
		loadIDs = append(loadIDs, id)
	}
	bodyID := d.nextID
	d.nextID++
	bodyDeps := [2]int64{-1, -1}
	switch {
	case len(loadIDs) >= 2:
		bodyDeps[0] = loadIDs[len(loadIDs)-2]
		bodyDeps[1] = loadIDs[len(loadIDs)-1]
	case len(loadIDs) == 1:
		bodyDeps[0] = loadIDs[0]
		bodyDeps[1] = srcDep[0]
	default:
		bodyDeps[0] = srcDep[0]
		bodyDeps[1] = srcDep[1]
	}
	body := Op{Kind: cpu.OpInt, PC: pc,
		Rel: [2]uint64{rel(bodyID, bodyDeps[0]), rel(bodyID, bodyDeps[1])}}
	if isBranch {
		body.Kind = cpu.OpBranch
		body.Taken = taken
	}
	d.queue = append(d.queue, body)
	for _, r := range dstRegs {
		if r != 0 {
			d.regWriter[r] = bodyID
		}
	}
	for i := 0; i < champsimDestMem; i++ {
		addr := binary.LittleEndian.Uint64(rec[16+8*i:])
		if addr == 0 {
			continue
		}
		id := d.nextID
		d.nextID++
		d.queue = append(d.queue, Op{
			Kind: cpu.OpStore, PC: pc, Addr: addr,
			Rel: [2]uint64{rel(id, bodyID), 0},
		})
	}
	return nil
}
