package mem

import (
	"eventpf/internal/sim"
	"eventpf/internal/trace"
)

// TLBConfig sizes the two-level TLB of Table 1: a 64-entry fully-associative
// L1 and a 4096-entry 8-way L2 with an 8-cycle hit latency, backed by a
// walker with three concurrent walks.
type TLBConfig struct {
	L1Entries   int
	L2Entries   int
	L2Ways      int
	L2HitCycles int64 // in the core clock domain
	Walks       int   // concurrent page-table walks
	WalkCycles  int64 // latency of one walk, in the core clock domain
}

// DefaultTLBConfig returns the Table 1 TLB configuration. The walk latency
// approximates two cache-hierarchy accesses for the (mostly L2-resident)
// page-table levels.
func DefaultTLBConfig() TLBConfig {
	return TLBConfig{
		L1Entries:   64,
		L2Entries:   4096,
		L2Ways:      8,
		L2HitCycles: 8,
		Walks:       3,
		WalkCycles:  60,
	}
}

// TLBStats counts translation behaviour.
type TLBStats struct {
	Accesses  int64
	L1Hits    int64
	L2Hits    int64
	Walks     int64
	Faults    int64 // translations of unmapped pages (prefetches drop these)
	WalkQueue int64 // walks that waited for a free walker slot
}

// Add accumulates o into s; every field is a counter.
func (s *TLBStats) Add(o TLBStats) {
	s.Accesses += o.Accesses
	s.L1Hits += o.L1Hits
	s.L2Hits += o.L2Hits
	s.Walks += o.Walks
	s.Faults += o.Faults
	s.WalkQueue += o.WalkQueue
}

// TLB models the two-level TLB plus a hardware page-table walker. Because
// our simulated address space is identity-mapped, "translation" produces no
// new address — only latency and page-fault information, which is exactly
// what the prefetch path needs (§5.3: the prefetcher walks page tables but
// discards prefetches that would fault).
type TLB struct {
	eng *sim.Engine
	clk sim.Clock
	cfg TLBConfig
	bk  *Backing

	l1 []tlbEntry // fully associative
	l2 [][]tlbEntry

	tlbState
	walkQueue []int32 // indices into recs, FIFO of walks awaiting a walker

	// recs is the in-flight translation table: one record per translation
	// that could not complete synchronously (L2 hit delay or page walk).
	// Records are recycled through recFree, so steady-state translation
	// allocates nothing; events and the walk queue carry record indices.
	recs    []transRec
	recFree []int32

	l2HitH   tlbL2HitHandler
	walkDone tlbWalkDoneHandler

	// Bus, if set, receives one TLBWalk span per page-table walk, labelled
	// with a stable walker slot. Slots are assigned only while tracing.
	Bus        *trace.Bus
	walkerBusy []bool // lazily sized to cfg.Walks on first traced walk

	// mWalkDepth samples the walk-queue depth on every transition; nil
	// unless AttachMetrics was called.
	mWalkDepth *trace.Hist
}

// AttachMetrics registers the walk-queue occupancy histogram with reg.
func (t *TLB) AttachMetrics(reg *trace.Registry) {
	t.mWalkDepth = reg.Hist("tlb/walk-queue-depth", 32)
}

// takeWalker returns the lowest free walker slot index, or -1 when untraced.
func (t *TLB) takeWalker() int32 {
	if t.Bus == nil {
		return -1
	}
	if t.walkerBusy == nil {
		t.walkerBusy = make([]bool, t.cfg.Walks)
	}
	for i, busy := range t.walkerBusy {
		if !busy {
			t.walkerBusy[i] = true
			return int32(i)
		}
	}
	return -1
}

// tlbState is the TLB's scalar state, copied to a fork by one assignment (the
// entry arrays, record table and walk queue are copied beside it).
type tlbState struct {
	activeWalks int
	// useClock orders LRU touches. It is per-TLB (not package-level) so
	// machines running on different goroutines never share mutable state;
	// only the relative order within one TLB's sets matters.
	useClock int64
	Stats    TLBStats
}

type tlbEntry struct {
	page    uint64
	valid   bool
	lastUse int64
}

// transRec holds one in-flight translation: the page being resolved, the
// completion target, and (for walks) the trace slot and start time.
type transRec struct {
	page  uint64
	h     sim.Handler
	a     uint64
	slot  int32
	start sim.Ticks
}

func (t *TLB) allocRec(page uint64, h sim.Handler, a uint64) int32 {
	if n := len(t.recFree); n > 0 {
		ri := t.recFree[n-1]
		t.recFree = t.recFree[:n-1]
		t.recs[ri] = transRec{page: page, h: h, a: a}
		return ri
	}
	t.recs = append(t.recs, transRec{page: page, h: h, a: a})
	return int32(len(t.recs) - 1)
}

func (t *TLB) freeRec(ri int32) {
	t.recs[ri] = transRec{} // drop the handler reference eagerly
	t.recFree = append(t.recFree, ri)
}

// tlbL2HitHandler completes an L2 TLB hit after the L2 latency; a is the
// translation-record index.
type tlbL2HitHandler struct{ t *TLB }

func (hh tlbL2HitHandler) Handle(at sim.Ticks, a, _ uint64) {
	t := hh.t
	r := t.recs[a]
	t.freeRec(int32(a))
	t.insertLRU(t.l1, r.page)
	r.h.Handle(at, r.a, 1)
}

// tlbWalkDoneHandler finishes a page-table walk; a is the record index.
type tlbWalkDoneHandler struct{ t *TLB }

func (hh tlbWalkDoneHandler) Handle(at sim.Ticks, a, _ uint64) {
	t := hh.t
	r := t.recs[a]
	t.freeRec(int32(a)) // locals copied; the completion below may reuse the slot
	t.activeWalks--
	ok := t.bk.Mapped(r.page)
	okBit := int32(0)
	if ok {
		okBit = 1
	}
	t.Bus.Emit(trace.Event{At: r.start, Dur: t.clk.Cycles(t.cfg.WalkCycles),
		Kind: trace.TLBWalk, Addr: r.page, A: r.slot, B: okBit})
	if r.slot >= 0 && int(r.slot) < len(t.walkerBusy) {
		t.walkerBusy[r.slot] = false
	}
	if ok {
		t.insertLRU(t.l1, r.page)
		set := t.l2[(r.page/PageSize)%uint64(len(t.l2))]
		t.insertLRU(set, r.page)
	} else {
		t.Stats.Faults++
	}
	// Hand the freed walker slot to the queue head BEFORE running the
	// completion: the completion may synchronously request another
	// translation (the prefetch pump does), and letting it take the slot
	// first starves queued demand walks indefinitely.
	if len(t.walkQueue) > 0 && t.activeWalks < t.cfg.Walks {
		next := t.walkQueue[0]
		n := copy(t.walkQueue, t.walkQueue[1:])
		t.walkQueue = t.walkQueue[:n]
		t.mWalkDepth.Observe(len(t.walkQueue))
		t.startWalk(next)
	}
	r.h.Handle(at, r.a, uint64(okBit))
}

// NewTLB builds a TLB over the backing store's page map.
func NewTLB(eng *sim.Engine, clk sim.Clock, cfg TLBConfig, bk *Backing) *TLB {
	t := &TLB{eng: eng, clk: clk, cfg: cfg, bk: bk}
	t.l2HitH.t = t
	t.walkDone.t = t
	eng.Own(t.l2HitH, t.walkDone)
	t.l1 = make([]tlbEntry, cfg.L1Entries)
	sets := cfg.L2Entries / cfg.L2Ways
	t.l2 = make([][]tlbEntry, sets)
	for i := range t.l2 {
		t.l2[i] = make([]tlbEntry, cfg.L2Ways)
	}
	return t
}

func (t *TLB) findAndTouch(set []tlbEntry, page uint64) bool {
	for i := range set {
		if set[i].valid && set[i].page == page {
			t.useClock++
			set[i].lastUse = t.useClock
			return true
		}
	}
	return false
}

func (t *TLB) insertLRU(set []tlbEntry, page uint64) {
	victim := &set[0]
	for i := range set {
		if !set[i].valid {
			victim = &set[i]
			break
		}
		if set[i].lastUse < victim.lastUse {
			victim = &set[i]
		}
	}
	t.useClock++
	*victim = tlbEntry{page: page, valid: true, lastUse: t.useClock}
}

// TranslateTo resolves the page containing addr, then fires h.Handle(at, a,
// ok) where ok is 1 if the page is mapped and 0 on a fault. The handler may
// run immediately (L1 TLB hit) or after L2/walk latency. This is the
// allocation-free path: in-flight translations live in a recycled record
// table and events carry record indices.
func (t *TLB) TranslateTo(addr uint64, h sim.Handler, a uint64) {
	t.Stats.Accesses++
	page := PageAddr(addr)

	if t.findAndTouch(t.l1, page) {
		t.Stats.L1Hits++
		h.Handle(t.eng.Now(), a, 1)
		return
	}

	set := t.l2[(page/PageSize)%uint64(len(t.l2))]
	if t.findAndTouch(set, page) {
		t.Stats.L2Hits++
		ri := t.allocRec(page, h, a)
		t.eng.ScheduleAfter(t.clk.Cycles(t.cfg.L2HitCycles), t.l2HitH, uint64(ri), 0)
		return
	}

	ri := t.allocRec(page, h, a)
	if t.activeWalks >= t.cfg.Walks {
		t.Stats.WalkQueue++
		t.walkQueue = append(t.walkQueue, ri)
		t.mWalkDepth.Observe(len(t.walkQueue))
		return
	}
	t.startWalk(ri)
}

func (t *TLB) startWalk(ri int32) {
	t.activeWalks++
	t.Stats.Walks++
	r := &t.recs[ri]
	r.slot = t.takeWalker()
	r.start = t.eng.Now()
	t.eng.ScheduleAfter(t.clk.Cycles(t.cfg.WalkCycles), t.walkDone, uint64(ri), 0)
}
