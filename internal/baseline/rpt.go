package baseline

import (
	"eventpf/internal/mem"
	"eventpf/internal/sim"
)

// RPTConfig sizes the Chen–Baer reference prediction table.
type RPTConfig struct {
	Entries   int // tagged table entries, indexed by load PC
	Degree    int // prefetches issued per steady access
	Lookahead int // stride multiples the first prefetch runs ahead of the access
	Queue     int
}

// DefaultRPTConfig returns a classic RPT sizing: a 256-entry table issuing
// two prefetches from two strides ahead, the look-ahead compensating for
// training on in-order retirement rather than issue.
func DefaultRPTConfig() RPTConfig {
	return RPTConfig{Entries: 256, Degree: 2, Lookahead: 2, Queue: 32}
}

// rptFSM is the four-state automaton of Chen & Baer's reference prediction
// table ("Effective Hardware-Based Data Prefetching for High-Performance
// Processors", IEEE ToC 1995): Initial, Transient, Steady, NoPrediction.
type rptFSM uint8

const (
	fsmInitial rptFSM = iota
	fsmTransient
	fsmSteady
	fsmNoPred
)

type rptSlot struct {
	pc       int
	prevAddr uint64
	stride   int64
	state    rptFSM
}

// RPT is the Chen–Baer reference-prediction-table prefetcher: a tagged,
// PC-indexed table whose entries run the four-state stride automaton and
// prefetch Lookahead strides ahead while not in NoPrediction. It differs
// from the Table 1 Stride unit (an aggressive degree-8 variant) in following
// the paper's exact transition rules, so it serves as the conservative
// classic-stride competitor in the Figure 7 matrix.
type RPT struct {
	cfg   RPTConfig
	table []rptSlot
	is    *issuer
}

// NewRPT builds a reference-prediction-table prefetcher issuing into l1.
func NewRPT(eng *sim.Engine, cfg RPTConfig, l1 *mem.Cache, tlb *mem.TLB) *RPT {
	return &RPT{cfg: cfg, table: rptTables.Get(cfg.Entries), is: newIssuer(eng, l1, tlb, cfg.Queue)}
}

// Release implements Unit.
func (r *RPT) Release() {
	rptTables.Put(r.table)
	r.table = nil
	r.is.queue.Release()
}

// Stats returns issue counters.
func (r *RPT) Stats() IssuerStats { return r.is.stats }

// Observe trains on every demand access that carries a PC.
func (r *RPT) Observe(addr uint64, pc int, _ bool) {
	if pc < 0 {
		return
	}
	e := &r.table[pc%len(r.table)]
	if e.pc != pc {
		*e = rptSlot{pc: pc, prevAddr: addr, state: fsmInitial}
		return
	}
	if addr == e.prevAddr {
		return // same address: no new information
	}
	correct := int64(addr)-int64(e.prevAddr) == e.stride
	// The 1995 paper's transitions: a correct prediction walks toward
	// Steady, an incorrect one retrains the stride and walks toward
	// NoPrediction — except from Steady, which keeps its stride and drops
	// only to Initial, giving one access of grace before retraining.
	switch e.state {
	case fsmInitial:
		if correct {
			e.state = fsmSteady
		} else {
			e.stride = int64(addr) - int64(e.prevAddr)
			e.state = fsmTransient
		}
	case fsmTransient:
		if correct {
			e.state = fsmSteady
		} else {
			e.stride = int64(addr) - int64(e.prevAddr)
			e.state = fsmNoPred
		}
	case fsmSteady:
		if !correct {
			e.state = fsmInitial
		}
	case fsmNoPred:
		if correct {
			e.state = fsmTransient
		} else {
			e.stride = int64(addr) - int64(e.prevAddr)
		}
	}
	e.prevAddr = addr
	if e.state == fsmNoPred || e.stride == 0 {
		return
	}
	for d := 0; d < r.cfg.Degree; d++ {
		tgt := uint64(int64(addr) + int64(r.cfg.Lookahead+d)*e.stride)
		if mem.LineAddr(tgt) == mem.LineAddr(addr) {
			continue
		}
		r.is.push(tgt)
	}
}
