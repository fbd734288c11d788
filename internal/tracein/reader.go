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

type nativeDecoder struct {
	r        countingReader
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
	d := &nativeDecoder{r: countingReader{br: br}}
	if err := json.Unmarshal(metaJSON, &d.meta); err != nil {
		return nil, &HeaderError{Reason: fmt.Sprintf("metadata: %v", err)}
	}
	return d, nil
}

func (d *nativeDecoder) Meta() Meta { return d.meta }

func (d *nativeDecoder) Next() (Op, error) {
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
		return Op{}, d.corrupt(start, "pc", err)
	}
	d.prevPC += dpc
	if d.prevPC < 0 || d.prevPC > math.MaxInt32 {
		// The capture side writes a 32-bit field (trace.Event.B) that holds
		// an IR instruction index; cpu.MicroOp.PC states the range.
		return Op{}, &FormatError{Offset: start, Reason: fmt.Sprintf("pc %d outside 0..2³¹-1", d.prevPC)}
	}
	op.PC = int(d.prevPC)
	if tag&tagHasAddr != 0 {
		if !kindHasAddr(op.Kind) {
			return Op{}, &FormatError{Offset: start, Reason: fmt.Sprintf("address on op kind %d", int(op.Kind))}
		}
		daddr, err := binary.ReadVarint(&d.r)
		if err != nil {
			return Op{}, d.corrupt(start, "address", err)
		}
		d.prevAddr += uint64(daddr)
		op.Addr = d.prevAddr
	}
	if tag&tagHasDep1 != 0 {
		if op.Rel[0], err = binary.ReadUvarint(&d.r); err != nil {
			return Op{}, d.corrupt(start, "dependence 1", err)
		}
	}
	if tag&tagHasDep2 != 0 {
		if op.Rel[1], err = binary.ReadUvarint(&d.r); err != nil {
			return Op{}, d.corrupt(start, "dependence 2", err)
		}
	}
	d.count++
	return op, nil
}

// finish validates the trailer and the bytes after it, then reports a clean
// io.EOF so streaming callers stop naturally.
func (d *nativeDecoder) finish(tag byte, start int64) error {
	if tag != trailerTag {
		return &FormatError{Offset: start, Reason: fmt.Sprintf("unknown tag byte %#02x", tag)}
	}
	want, err := binary.ReadUvarint(&d.r)
	if err != nil {
		return d.corrupt(start, "trailer count", err)
	}
	if want != d.count {
		return &FormatError{Offset: start,
			Reason: fmt.Sprintf("trailer records %d ops, decoded %d (truncated or spliced trace)", want, d.count)}
	}
	if _, err := d.r.ReadByte(); err != io.EOF {
		return &FormatError{Offset: d.r.off, Reason: "data after the trailer"}
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
