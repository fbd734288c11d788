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

	l1 l1TLB      // fully associative
	l2 []tlbEntry // set-associative: sets × L2Ways, one set after another

	tlbState
	walkQueue sim.Queue[int32] // slots in recs of the walks awaiting a walker

	// recs is the in-flight translation table: one record per translation
	// that could not complete synchronously (L2 hit delay or page walk).
	// Events and the walk queue carry its slots.
	recs sim.Slab[transRec]

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
	// useClock orders LRU touches in the L2. It is per-TLB (not
	// package-level) so machines running on different goroutines never share
	// mutable state; only the relative order within one set matters.
	useClock int64
	Stats    TLBStats
}

// tlbEntry is one L2 way: 16 bytes, the page address with tlbValid in its
// low bit (a page address is PageSize-aligned).
type tlbEntry struct {
	page    uint64 // page address | tlbValid
	lastUse int64
}

const tlbValid = 1

// transRec holds one in-flight translation: the page being resolved, the
// completion target, and (for walks) the trace slot and start time.
type transRec struct {
	page  uint64
	h     sim.Handler
	a     uint64
	slot  int32
	start sim.Ticks
}

// tlbL2HitHandler completes an L2 TLB hit after the L2 latency; a is the
// translation-record index.
type tlbL2HitHandler struct{ t *TLB }

func (hh tlbL2HitHandler) Handle(at sim.Ticks, a, _ uint64) {
	t := hh.t
	r := t.recs.Take(int32(a))
	t.l1.insert(r.page)
	r.h.Handle(at, r.a, 1)
}

// tlbWalkDoneHandler finishes a page-table walk; a is the record index.
type tlbWalkDoneHandler struct{ t *TLB }

func (hh tlbWalkDoneHandler) Handle(at sim.Ticks, a, _ uint64) {
	t := hh.t
	r := t.recs.Take(int32(a)) // copied out: the completion below may reuse the slot
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
		t.l1.insert(r.page)
		t.insertL2(t.l2Set(r.page), r.page)
	} else {
		t.Stats.Faults++
	}
	// Hand the freed walker slot to the queue head BEFORE running the
	// completion: the completion may synchronously request another
	// translation (the prefetch pump does), and letting it take the slot
	// first starves queued demand walks indefinitely.
	if t.walkQueue.Len() > 0 && t.activeWalks < t.cfg.Walks {
		next := t.walkQueue.Pop()
		t.mWalkDepth.Observe(t.walkQueue.Len())
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
	t.l1 = newL1TLB(cfg.L1Entries)
	t.l2 = tlbPool.Get(cfg.L2Entries / cfg.L2Ways * cfg.L2Ways)
	t.walkQueue.Reuse(&walkRings)
	t.recs.Reuse(&transRecs)
	return t
}

// Release hands t's L1 and L2 arrays, walk queue ring and translation table
// to the pools for another TLB of the same geometry; Stats stay readable.
// Call it once t will not translate again.
func (t *TLB) Release() {
	tlbPool.Put(t.l2)
	l1TLBEnts.Put(t.l1.ents)
	l1TLBIdx.Put(t.l1.index)
	t.walkQueue.Release()
	t.recs.Release()
	t.l2, t.l1.ents, t.l1.index = nil, nil, nil
}

// l2Set returns the ways of the L2 set page maps to.
func (t *TLB) l2Set(page uint64) []tlbEntry {
	w := t.cfg.L2Ways
	i := int((page/PageSize)%uint64(len(t.l2)/w)) * w
	return t.l2[i : i+w]
}

func (t *TLB) touchL2(set []tlbEntry, page uint64) bool {
	for i := range set {
		if set[i].page == page|tlbValid {
			t.useClock++
			set[i].lastUse = t.useClock
			return true
		}
	}
	return false
}

// insertL2 fills the first invalid way of set, else its least recently used.
func (t *TLB) insertL2(set []tlbEntry, page uint64) {
	victim := &set[0]
	for i := range set {
		if set[i].page&tlbValid == 0 {
			victim = &set[i]
			break
		}
		if set[i].lastUse < victim.lastUse {
			victim = &set[i]
		}
	}
	t.useClock++
	*victim = tlbEntry{page: page | tlbValid, lastUse: t.useClock}
}

// TranslateTo resolves the page containing addr, then fires h.Handle(at, a,
// ok) where ok is 1 if the page is mapped and 0 on a fault. The handler may
// run immediately (L1 TLB hit) or after L2/walk latency. This is the
// allocation-free path: in-flight translations live in a recycled record
// table and events carry record indices.
func (t *TLB) TranslateTo(addr uint64, h sim.Handler, a uint64) {
	t.Stats.Accesses++
	page := PageAddr(addr)

	if t.l1.touch(page) {
		t.Stats.L1Hits++
		h.Handle(t.eng.Now(), a, 1)
		return
	}

	if t.touchL2(t.l2Set(page), page) {
		t.Stats.L2Hits++
		ri := t.recs.Put(transRec{page: page, h: h, a: a})
		t.eng.ScheduleAfter(t.clk.Cycles(t.cfg.L2HitCycles), t.l2HitH, uint64(ri), 0)
		return
	}

	ri := t.recs.Put(transRec{page: page, h: h, a: a})
	if t.activeWalks >= t.cfg.Walks {
		t.Stats.WalkQueue++
		t.walkQueue.Push(ri)
		t.mWalkDepth.Observe(t.walkQueue.Len())
		return
	}
	t.startWalk(ri)
}

func (t *TLB) startWalk(ri int32) {
	t.activeWalks++
	t.Stats.Walks++
	r := t.recs.At(ri)
	r.slot = t.takeWalker()
	r.start = t.eng.Now()
	t.eng.ScheduleAfter(t.clk.Cycles(t.cfg.WalkCycles), t.walkDone, uint64(ri), 0)
}

// l1TLB is the fully-associative L1 TLB. It gives the answers a scan of
// every entry would, in O(1): an open-addressed index finds a page's
// lowest-indexed copy (the one a scan touches first), and an LRU list
// threaded through the entries names the least recently used. Slots fill in
// index order, so the first never-filled slot is slot filled. Inserting
// never looks for an existing copy: two in-flight L2 hits for one page each
// insert, and both copies stay resident, chained by slot index through dup.
// TestL1TLBMatchesLinearScan holds it to the scan.
type l1TLB struct {
	ents []l1Entry
	// index holds slot+1 of the lowest-indexed copy of each resident page,
	// 0 for an empty cell; linear probing from home(page), at most half full.
	index []int32
	shift uint // 64 - log2(len(index))
	l1State
}

// l1State is the L1 TLB's scalar state, copied to a fork with the arrays.
type l1State struct {
	filled   int32 // slots [0, filled) hold pages; the rest were never filled
	mru, lru int32 // ends of the LRU list, -1 while empty
}

type l1Entry struct {
	page       uint64
	prev, next int32 // LRU neighbours toward the MRU and LRU ends, -1 at either
	dup        int32 // next higher slot holding the same page, -1 if none
}

func newL1TLB(entries int) l1TLB {
	size, shift := 2, uint(63)
	for size < 2*entries {
		size, shift = size*2, shift-1
	}
	return l1TLB{ents: l1TLBEnts.Get(entries), index: l1TLBIdx.Get(size), shift: shift,
		l1State: l1State{mru: -1, lru: -1}}
}

// home is page's first index cell (Fibonacci hashing of the page number).
func (l *l1TLB) home(page uint64) int {
	return int((page / PageSize * 0x9E3779B97F4A7C15) >> l.shift)
}

// find returns the index cell for page and the slot of its lowest-indexed
// copy, or the empty cell that ends its probe and -1.
func (l *l1TLB) find(page uint64) (cell int, slot int32) {
	mask := len(l.index) - 1
	for cell = l.home(page); ; cell = (cell + 1) & mask {
		slot = l.index[cell] - 1
		if slot < 0 || l.ents[slot].page == page {
			return cell, slot
		}
	}
}

// touch reports whether page is resident and, if so, makes its
// lowest-indexed copy the most recently used.
func (l *l1TLB) touch(page uint64) bool {
	_, s := l.find(page)
	if s < 0 {
		return false
	}
	if s != l.mru {
		l.unlink(s)
		l.pushMRU(s)
	}
	return true
}

// insert puts page in the first never-filled slot, else over the least
// recently used entry, as the most recently used.
func (l *l1TLB) insert(page uint64) {
	s := l.filled
	if int(s) < len(l.ents) {
		l.filled++
	} else {
		s = l.lru
		l.unindex(s)
		l.unlink(s)
	}
	l.ents[s].page = page
	l.reindex(s)
	l.pushMRU(s)
}

// reindex adds slot s to its page's copies, kept in slot order.
func (l *l1TLB) reindex(s int32) {
	e := &l.ents[s]
	cell, h := l.find(e.page)
	switch {
	case h < 0:
		l.index[cell], e.dup = s+1, -1
	case s < h:
		l.index[cell], e.dup = s+1, h
	default:
		for l.ents[h].dup >= 0 && l.ents[h].dup < s {
			h = l.ents[h].dup
		}
		e.dup, l.ents[h].dup = l.ents[h].dup, s
	}
}

// unindex removes slot s from its page's copies.
func (l *l1TLB) unindex(s int32) {
	e := &l.ents[s]
	cell, h := l.find(e.page)
	switch {
	case h != s:
		for l.ents[h].dup != s {
			h = l.ents[h].dup
		}
		l.ents[h].dup = e.dup
	case e.dup >= 0:
		l.index[cell] = e.dup + 1
	default:
		l.deleteCell(cell)
	}
}

// deleteCell empties an index cell, shifting back every later entry of the
// probe run that may fill it so that no lookup's probe crosses a hole.
func (l *l1TLB) deleteCell(hole int) {
	mask := len(l.index) - 1
	for c := (hole + 1) & mask; l.index[c] != 0; c = (c + 1) & mask {
		// The entry at c may move back to the hole unless its home lies
		// cyclically in (hole, c].
		if (c-l.home(l.ents[l.index[c]-1].page))&mask >= (c-hole)&mask {
			l.index[hole] = l.index[c]
			hole = c
		}
	}
	l.index[hole] = 0
}

func (l *l1TLB) unlink(s int32) {
	e := &l.ents[s]
	if e.prev >= 0 {
		l.ents[e.prev].next = e.next
	} else {
		l.mru = e.next
	}
	if e.next >= 0 {
		l.ents[e.next].prev = e.prev
	} else {
		l.lru = e.prev
	}
}

func (l *l1TLB) pushMRU(s int32) {
	e := &l.ents[s]
	e.prev, e.next = -1, l.mru
	if l.mru >= 0 {
		l.ents[l.mru].prev = s
	} else {
		l.lru = s
	}
	l.mru = s
}

// copyFrom makes l an exact copy of src, which has the same entry count.
func (l *l1TLB) copyFrom(src *l1TLB) {
	copy(l.ents, src.ents)
	copy(l.index, src.index)
	l.l1State = src.l1State
}
