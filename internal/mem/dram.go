package mem

import (
	"eventpf/internal/sim"
	"eventpf/internal/trace"
)

// DRAMConfig gives DDR3-style timing in bus cycles. Defaults model
// DDR3-1600 11-11-11-28 on an 800 MHz bus, as in the paper's Table 1.
type DRAMConfig struct {
	BusMHz   int // data bus clock (DDR transfers twice per cycle)
	Banks    int
	TRCD     int // activate to column command, bus cycles
	TCAS     int // column command to first data, bus cycles
	TRP      int // precharge, bus cycles
	RowBytes uint64
	// BurstCycles is the bus occupancy of one 64-byte line: 8 beats at
	// double data rate = 4 bus cycles.
	BurstCycles int
	// CtrlCycles models controller front/back-end and interconnect
	// overhead added to every access, in bus cycles.
	CtrlCycles int
}

// DefaultDRAMConfig returns the Table 1 memory configuration.
func DefaultDRAMConfig() DRAMConfig {
	return DRAMConfig{
		BusMHz:      800,
		Banks:       8,
		TRCD:        11,
		TCAS:        11,
		TRP:         11,
		RowBytes:    8192,
		BurstCycles: 4,
		CtrlCycles:  16,
	}
}

// DRAMStats counts memory-bus traffic. Reads are the quantity the paper's
// "extra memory accesses" analysis uses.
type DRAMStats struct {
	Reads      int64
	Writes     int64
	RowHits    int64
	RowMisses  int64
	RowEmpties int64
	// LatencySum accumulates request→data-return delay for reads, in
	// ticks; LatencySum/Reads is the average read latency.
	LatencySum sim.Ticks
	// BankWaitSum accumulates time spent waiting for a busy bank.
	BankWaitSum sim.Ticks
}

// Add accumulates o into s; every field is a counter or a duration sum.
func (s *DRAMStats) Add(o DRAMStats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.RowHits += o.RowHits
	s.RowMisses += o.RowMisses
	s.RowEmpties += o.RowEmpties
	s.LatencySum += o.LatencySum
	s.BankWaitSum += o.BankWaitSum
}

// DRAM is a banked, open-page memory controller model. Each bank tracks its
// open row and busy-until time; the shared data bus serialises bursts.
type DRAM struct {
	eng  *sim.Engine
	cfg  DRAMConfig
	clk  sim.Clock
	bank []bankState
	dramState

	// Pool, if set, receives serviced requests back: DRAM is the last level,
	// so every request that reaches it dies here. The completion target is
	// resolved and scheduled before the request is recycled, so the event
	// carries no reference to it.
	Pool *Pool

	// Bus, if set, receives one DRAMAccess span per request, labelled with
	// the bank and row state and covering the bank-busy window.
	Bus *trace.Bus
}

// dramState is the controller's scalar state, copied to a fork by one
// assignment beside the bank array.
type dramState struct {
	busFreeAt sim.Ticks
	Stats     DRAMStats
}

type bankState struct {
	busyUntil sim.Ticks
	openRow   uint64
	hasRow    bool
}

// NewDRAM builds a DRAM model on the given engine.
func NewDRAM(eng *sim.Engine, cfg DRAMConfig) *DRAM {
	return &DRAM{
		eng:  eng,
		cfg:  cfg,
		clk:  sim.ClockFromMHz(cfg.BusMHz),
		bank: make([]bankState, cfg.Banks),
	}
}

func (d *DRAM) bankAndRow(line uint64) (int, uint64) {
	rowIdx := line / d.cfg.RowBytes
	return int(rowIdx % uint64(d.cfg.Banks)), rowIdx / uint64(d.cfg.Banks)
}

// Access services a line read or write. For reads, done is called when the
// full burst has arrived; writes are posted (done may be nil).
func (d *DRAM) Access(req *Request) {
	now := d.eng.Now()
	bi, row := d.bankAndRow(req.Line)
	b := &d.bank[bi]

	start := now
	if b.busyUntil > start {
		start = b.busyUntil
		d.Stats.BankWaitSum += b.busyUntil - now
	}

	var access sim.Ticks
	var rowState int32
	switch {
	case b.hasRow && b.openRow == row:
		access = d.clk.Cycles(int64(d.cfg.TCAS))
		d.Stats.RowHits++
		rowState = trace.RowHit
	case b.hasRow:
		access = d.clk.Cycles(int64(d.cfg.TRP + d.cfg.TRCD + d.cfg.TCAS))
		d.Stats.RowMisses++
		rowState = trace.RowMiss
	default:
		access = d.clk.Cycles(int64(d.cfg.TRCD + d.cfg.TCAS))
		d.Stats.RowEmpties++
		rowState = trace.RowEmpty
	}
	b.openRow, b.hasRow = row, true
	d.Bus.Emit(trace.Event{At: start, Dur: access, Kind: trace.DRAMAccess,
		Addr: req.Line, A: int32(bi), B: rowState})

	// The bank is occupied by the row operations only; controller overhead
	// and the data burst are pipeline/bus time and overlap with other
	// banks' row activity.
	b.busyUntil = start + access

	dataReady := start + access + d.clk.Cycles(int64(d.cfg.CtrlCycles))
	if d.busFreeAt > dataReady {
		dataReady = d.busFreeAt
	}
	burst := d.clk.Cycles(int64(d.cfg.BurstCycles))
	doneAt := dataReady + burst
	d.busFreeAt = doneAt

	if req.Kind == Writeback {
		d.Stats.Writes++
	} else {
		d.Stats.Reads++
		d.Stats.LatencySum += doneAt - now
	}
	if req.Comp != nil {
		d.eng.Schedule(doneAt, req.Comp, req.CompA, 0)
	}
	d.Pool.Put(req)
}
