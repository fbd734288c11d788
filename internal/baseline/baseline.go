// Package baseline implements the two hardware prefetchers the paper
// compares against (Table 1): a Chen–Baer reference-prediction-table stride
// prefetcher with degree 8, and a Nesbit–Smith global-history-buffer Markov
// prefetcher in "regular" (SRAM-sized) and "large" (1 GiB-state) variants.
// Both are fed the L1's demand stream through Unit.Observe and inject
// prefetch requests through a shared TLB-translating issuer, so their traffic
// competes for the same MSHRs and DRAM banks as everything else.
package baseline

import (
	"eventpf/internal/mem"
	"eventpf/internal/sim"
)

// IssuerStats counts baseline prefetch traffic. Every generated prefetch
// ends in exactly one of the other four counters:
// Generated == Issued + TLBDrops + QueueDrop + MSHRDrops.
type IssuerStats struct {
	Generated int64
	Issued    int64
	TLBDrops  int64 // dropped on a page-table miss
	QueueDrop int64 // dropped on arrival at a full queue
	MSHRDrops int64 // translated, then dropped: no L1 MSHR was free
}

// Add accumulates o into s; every field is a counter.
func (s *IssuerStats) Add(o IssuerStats) {
	s.Generated += o.Generated
	s.Issued += o.Issued
	s.TLBDrops += o.TLBDrops
	s.QueueDrop += o.QueueDrop
	s.MSHRDrops += o.MSHRDrops
}

// issuer queues prefetch addresses and drains them into the L1 through the
// shared TLB, as the programmable prefetcher's request queue does (§4.6), so
// both compete for the same translations and MSHRs. It is simpler than that
// queue: one translation is in flight at a time (the request queue overlaps
// four), and it starts one whenever any L1 MSHR is free, keeping no headroom
// for demand misses. A translated prefetch that then finds no free MSHR is
// dropped.
type issuer struct {
	eng     *sim.Engine
	l1      *mem.Cache
	tlb     *mem.TLB
	queue   sim.Queue[uint64]
	limit   int
	pumping bool
	transH  issuerTransHandler
	stats   IssuerStats
}

// issuerTransHandler receives the queued prefetch's translation; a is the
// target address (one translation in flight at a time, so the address rides
// in the event payload and no record table is needed).
type issuerTransHandler struct{ is *issuer }

func (h issuerTransHandler) Handle(_ sim.Ticks, a, ok uint64) {
	is := h.is
	is.pumping = false
	if ok == 0 {
		is.stats.TLBDrops++
	} else if is.l1.FreeMSHRs() <= 0 {
		is.stats.MSHRDrops++
	} else {
		is.stats.Issued++
		req := is.l1.Pool.Get()
		req.Addr, req.Kind, req.PC = a, mem.Prefetch, -1
		req.Tag, req.TimedAt = mem.NoTag, -1
		is.l1.Access(req)
	}
	is.pump()
}

func newIssuer(eng *sim.Engine, l1 *mem.Cache, tlb *mem.TLB, limit int) *issuer {
	is := &issuer{eng: eng, l1: l1, tlb: tlb, limit: limit}
	is.queue.Reuse(&addrRings)
	is.transH.is = is
	eng.Own(is.transH)
	prev := l1.OnMSHRFree
	l1.OnMSHRFree = func() {
		if prev != nil {
			prev()
		}
		is.pump()
	}
	return is
}

func (is *issuer) push(addr uint64) {
	is.stats.Generated++
	if is.queue.Len() >= is.limit {
		is.stats.QueueDrop++
		return
	}
	is.queue.Push(addr)
	is.pump()
}

func (is *issuer) pump() {
	if is.pumping || is.queue.Len() == 0 || is.l1.FreeMSHRs() == 0 {
		return
	}
	is.pumping = true
	addr := is.queue.Pop()
	is.tlb.TranslateTo(addr, is.transH, addr)
}

// StrideConfig sizes the reference prediction table.
type StrideConfig struct {
	Entries int // table entries, indexed by load PC
	Degree  int // prefetch degree (Table 1: 8)
	Queue   int
}

// DefaultStrideConfig returns the Table 1 stride prefetcher.
func DefaultStrideConfig() StrideConfig {
	return StrideConfig{Entries: 256, Degree: 8, Queue: 64}
}

type rptState uint8

const (
	rptInitial rptState = iota
	rptTransient
	rptSteady
	rptNoPred
)

type rptEntry struct {
	pc       int
	lastAddr uint64
	stride   int64
	state    rptState
	lastTgt  uint64 // furthest line already prefetched, to avoid re-issue
}

// Stride is the reference-prediction-table prefetcher [Chen & Baer].
type Stride struct {
	cfg   StrideConfig
	table []rptEntry
	is    *issuer
}

// NewStride builds a stride prefetcher issuing into l1.
func NewStride(eng *sim.Engine, cfg StrideConfig, l1 *mem.Cache, tlb *mem.TLB) *Stride {
	return &Stride{cfg: cfg, table: strideTables.Get(cfg.Entries), is: newIssuer(eng, l1, tlb, cfg.Queue)}
}

// Release implements Unit.
func (s *Stride) Release() {
	strideTables.Put(s.table)
	s.table = nil
	s.is.queue.Release()
}

// Stats returns issue counters.
func (s *Stride) Stats() IssuerStats { return s.is.stats }

// Observe trains on every demand access that carries a PC.
func (s *Stride) Observe(addr uint64, pc int, _ bool) {
	if pc < 0 {
		return
	}
	e := &s.table[pc%len(s.table)]
	if e.pc != pc {
		*e = rptEntry{pc: pc, lastAddr: addr, state: rptInitial}
		return
	}
	stride := int64(addr) - int64(e.lastAddr)
	switch {
	case stride == 0:
		// Same address again: no information.
		return
	case stride == e.stride:
		if e.state < rptSteady {
			e.state++
		} else {
			e.state = rptSteady
		}
	default:
		if e.state == rptSteady {
			e.state = rptInitial
		} else {
			e.state = rptNoPred
		}
		e.stride = stride
		e.lastAddr = addr
		return
	}
	e.lastAddr = addr
	if e.state != rptSteady {
		return
	}
	// Steady: cover the next Degree strides, skipping lines already covered.
	last := e.lastTgt
	for d := 1; d <= s.cfg.Degree; d++ {
		tgt := uint64(int64(addr) + int64(d)*e.stride)
		line := mem.LineAddr(tgt)
		if line == mem.LineAddr(addr) || (last != 0 && sameDirectionCovered(e.stride, line, last)) {
			continue
		}
		s.is.push(tgt)
		e.lastTgt = line
	}
}

func sameDirectionCovered(stride int64, line, last uint64) bool {
	if stride > 0 {
		return line <= last
	}
	return line >= last
}

// GHBConfig sizes the Markov global-history-buffer prefetcher.
type GHBConfig struct {
	IndexSize int // index table entries (hashed by miss address)
	GHBSize   int // history buffer entries
	Depth     int // total prefetches per trigger (Table 1: 16)
	Width     int // prior occurrences examined (Table 1: 6)
	Queue     int
}

// RegularGHBConfig is the SRAM-sized configuration from Table 1.
func RegularGHBConfig() GHBConfig {
	return GHBConfig{IndexSize: 2048, GHBSize: 2048, Depth: 16, Width: 6, Queue: 64}
}

// LargeGHBConfig models the 1 GiB-state study variant: effectively unbounded
// history with zero-latency state access.
func LargeGHBConfig() GHBConfig {
	return GHBConfig{IndexSize: 1 << 26, GHBSize: 1 << 26, Depth: 16, Width: 6, Queue: 64}
}

type ghbEntry struct {
	line uint64
	prev int32 // index of previous occurrence of the same line, -1 if none
}

// GHB is a global-history-buffer Markov prefetcher (G/AC organisation):
// misses are appended to a circular history buffer, linked by address; on a
// miss, the successors of prior occurrences of the same address are
// predicted to recur and prefetched.
type GHB struct {
	cfg GHBConfig
	// ghb is the history ring: it grows by append up to size entries, then
	// wraps. The buffer keeps at most GHBSize entries; the "large" variant's
	// 2^26 is clamped to 2^22, which is still far beyond any working set our
	// reduced inputs generate (i.e. effectively unbounded).
	ghb      []ghbEntry
	size     int
	count    int
	index    map[uint64]int32  // line -> most recent GHB position
	indexAge sim.Queue[uint64] // insertion order, for deterministic eviction
	is       *issuer
}

// NewGHB builds a Markov GHB prefetcher issuing into l1.
func NewGHB(eng *sim.Engine, cfg GHBConfig, l1 *mem.Cache, tlb *mem.TLB) *GHB {
	g := &GHB{
		cfg:  cfg,
		size: min(cfg.GHBSize, 1<<22),
		is:   newIssuer(eng, l1, tlb, cfg.Queue),
	}
	g.indexAge.Reuse(&addrRings)
	if g.pooled() {
		g.index, _ = ghbIndexes.Take()
	}
	if g.index == nil {
		g.index = make(map[uint64]int32)
	}
	return g
}

// pooled reports whether g's history and index are sized to be recycled:
// the regular configuration's are (the ring still grows as misses arrive,
// into the capacity of one a released unit left in ghbRings), the large
// one's grow with the run and are left to the GC.
func (g *GHB) pooled() bool {
	return g.size <= maxPooledHistory && g.cfg.IndexSize <= maxPooledHistory
}

// Release implements Unit.
func (g *GHB) Release() {
	if g.pooled() && g.index != nil {
		if cap(g.ghb) > 0 {
			ghbRings.Put(g.ghb[:0])
		}
		clear(g.index)
		ghbIndexes.Put(g.index)
	}
	g.ghb, g.index = nil, nil
	g.indexAge.Release()
	g.is.queue.Release()
}

// Stats returns issue counters.
func (g *GHB) Stats() IssuerStats { return g.is.stats }

// Observe trains on demand misses only.
func (g *GHB) Observe(addr uint64, _ int, hit bool) {
	if !hit {
		g.observeMiss(mem.LineAddr(addr))
	}
}

func (g *GHB) observeMiss(line uint64) {
	// Predict successors of earlier occurrences of this line, then record
	// the new occurrence.
	budget := g.cfg.Depth
	per := (g.cfg.Depth + g.cfg.Width - 1) / g.cfg.Width
	occ, have := g.lookup(line)
	for w := 0; w < g.cfg.Width && have && budget > 0; w++ {
		for d := 1; d <= per && budget > 0; d++ {
			idx := int(occ) + d
			if e, ok := g.at(idx); ok && e.line != line {
				g.is.push(e.line)
				budget--
			}
		}
		e, ok := g.at(int(occ))
		if !ok || e.prev < 0 {
			break
		}
		if _, ok := g.at(int(e.prev)); !ok {
			break
		}
		occ = e.prev
	}
	g.insert(line)
}

// positions are monotonically increasing virtual indices; the buffer keeps
// the last GHBSize of them.
func (g *GHB) at(pos int) (ghbEntry, bool) {
	if pos >= g.count || pos < g.count-len(g.ghb) || pos < 0 {
		return ghbEntry{}, false
	}
	return g.ghb[pos%g.size], true
}

func (g *GHB) lookup(line uint64) (int32, bool) {
	pos, ok := g.index[line]
	if !ok {
		return 0, false
	}
	if _, live := g.at(int(pos)); !live {
		delete(g.index, line)
		return 0, false
	}
	return pos, true
}

func (g *GHB) insert(line uint64) {
	prev := int32(-1)
	if p, ok := g.lookup(line); ok {
		prev = p
	}
	pos := g.count
	if len(g.ghb) < g.size {
		if cap(g.ghb) == 0 && g.pooled() {
			g.ghb, _ = ghbRings.Take()
		}
		g.ghb = append(g.ghb, ghbEntry{})
	}
	g.ghb[pos%g.size] = ghbEntry{line: line, prev: prev}
	g.count++
	if _, ok := g.index[line]; !ok {
		g.indexAge.Push(line)
	}
	g.index[line] = int32(pos)
	// Bound the index for the regular configuration: evict the oldest
	// entries (deterministically) once past capacity.
	for len(g.index) > g.cfg.IndexSize && g.indexAge.Len() > 0 {
		delete(g.index, g.indexAge.Pop())
	}
}
