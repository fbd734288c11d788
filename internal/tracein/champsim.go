package tracein

import (
	"bufio"
	"encoding/binary"
	"io"
	"math"

	"eventpf/internal/cpu"
)

// ChampSim input_instr records: 64 bytes, little-endian, the layout the
// DPC/ChampSim ecosystem's *.champsim traces use.
//
//	ip                       8 bytes
//	is_branch                1 byte
//	branch_taken             1 byte
//	destination_registers    2 bytes
//	source_registers         4 bytes
//	destination_memory       2 × 8 bytes
//	source_memory            4 × 8 bytes
//
// Each instruction expands into micro-ops in our model: one OpLoad per
// non-zero source_memory slot, then one body op (OpBranch if is_branch, else
// OpInt), then one OpStore per non-zero destination_memory slot. Data flow
// is reconstructed from the register fields: a load depends on the last
// writers of the instruction's first source registers, the body op depends
// on the instruction's loads (or, lacking loads, on source-register
// writers), stores depend on the body op, and the body op becomes the last
// writer of every destination register. That yields the dependence shape
// the core model cares about — pointer-chase traces serialise
// (load → body → next load), streaming traces overlap — without needing
// values the trace does not carry.
const champsimRecordLen = 64

const (
	champsimDests   = 2
	champsimSources = 4
	champsimDestMem = 2
	champsimSrcMem  = 4
)

type champsimDecoder struct {
	br   *bufio.Reader
	meta Meta
	off  int64

	// regWriter maps a ChampSim register number to the id of the op that
	// last wrote it (-1 = never written). Register 0 is ChampSim's "no
	// register" and stays unwritten.
	regWriter [256]int64
	nextID    int64

	// rec and loadIDs are fill's scratch: the record being expanded and the
	// ids of its loads. The decoder owns them so a record allocates nothing.
	rec     [champsimRecordLen]byte
	loadIDs [champsimSrcMem]int64

	// queue holds the micro-ops of the record being drained.
	queue      [champsimSrcMem + 1 + champsimDestMem]Op
	qlen, qpos int
}

func newChampSimDecoder(br *bufio.Reader) *champsimDecoder {
	d := &champsimDecoder{br: br, meta: Meta{Tool: "champsim"}}
	for i := range d.regWriter {
		d.regWriter[i] = -1
	}
	return d
}

func (d *champsimDecoder) Meta() Meta { return d.meta }

func (d *champsimDecoder) Next() (Op, error) {
	for d.qpos >= d.qlen {
		if err := d.fill(); err != nil {
			return Op{}, err
		}
	}
	op := d.queue[d.qpos]
	d.qpos++
	return op, nil
}

// rel converts an absolute producer id to a distance from the op about to be
// assigned id; 0 means no dependence.
func rel(id, producer int64) uint64 {
	if producer < 0 {
		return 0
	}
	return uint64(id - producer)
}

// fill decodes one 64-byte instruction into the queue.
func (d *champsimDecoder) fill() error {
	rec := &d.rec
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
	pc := int(ip & math.MaxInt32) // folded into cpu.MicroOp.PC's range: the low 31 bits

	d.qlen, d.qpos = 0, 0

	// Source-register producers, in slot order, for deps below.
	var srcDep [champsimSources]int64
	for i, r := range srcRegs {
		srcDep[i] = -1
		if r != 0 {
			srcDep[i] = d.regWriter[r]
		}
	}

	loads := 0
	for i := 0; i < champsimSrcMem; i++ {
		addr := binary.LittleEndian.Uint64(rec[32+8*i:])
		if addr == 0 {
			continue
		}
		id := d.nextID
		d.nextID++
		d.push(Op{
			Kind: cpu.OpLoad, PC: pc, Addr: addr,
			Rel: [2]uint64{rel(id, srcDep[0]), rel(id, srcDep[1])},
		})
		d.loadIDs[loads] = id
		loads++
	}

	// Body op: the instruction's own execution.
	bodyID := d.nextID
	d.nextID++
	var bodyDeps [2]int64
	switch {
	case loads >= 2:
		bodyDeps[0] = d.loadIDs[loads-2]
		bodyDeps[1] = d.loadIDs[loads-1]
	case loads == 1:
		bodyDeps[0] = d.loadIDs[0]
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
	d.push(body)
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
		d.push(Op{
			Kind: cpu.OpStore, PC: pc, Addr: addr,
			Rel: [2]uint64{rel(id, bodyID), 0},
		})
	}
	return nil
}

func (d *champsimDecoder) push(op Op) {
	d.queue[d.qlen] = op
	d.qlen++
}
