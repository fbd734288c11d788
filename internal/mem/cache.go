package mem

import (
	"fmt"

	"eventpf/internal/sim"
	"eventpf/internal/trace"
)

// CacheConfig sizes one cache level.
type CacheConfig struct {
	Name      string
	SizeBytes int
	Ways      int
	HitCycles int64 // lookup latency, in the cache's clock domain
	MSHRs     int
}

// CacheStats counts the events the paper's Figure 8 is built from.
type CacheStats struct {
	DemandLoads   int64 // demand read lookups
	DemandHits    int64 // demand read lookups that hit
	DemandStores  int64
	StoreHits     int64
	Misses        int64 // MSHR allocations, each a miss sent down: demand and prefetch
	MSHRMerges    int64 // accesses merged into an in-flight miss
	LateMerges    int64 // demand accesses that merged into an in-flight prefetch
	MSHRStalls    int64 // misses somebody waits on that had to wait for a free MSHR
	PrefetchIssue int64 // prefetch requests accepted by this cache
	PrefetchHits  int64 // prefetches that found the line already present
	PrefetchFills int64 // prefetch fills that allocated a line
	PrefetchDrop  int64 // unawaited prefetches dropped for want of an MSHR
	PrefetchUsed  int64 // prefetched lines touched by demand before eviction
	PrefetchDead  int64 // prefetched lines evicted untouched
	Writebacks    int64
}

// Add accumulates o into s; every field is a counter.
func (s *CacheStats) Add(o CacheStats) {
	s.DemandLoads += o.DemandLoads
	s.DemandHits += o.DemandHits
	s.DemandStores += o.DemandStores
	s.StoreHits += o.StoreHits
	s.Misses += o.Misses
	s.MSHRMerges += o.MSHRMerges
	s.LateMerges += o.LateMerges
	s.MSHRStalls += o.MSHRStalls
	s.PrefetchIssue += o.PrefetchIssue
	s.PrefetchHits += o.PrefetchHits
	s.PrefetchFills += o.PrefetchFills
	s.PrefetchDrop += o.PrefetchDrop
	s.PrefetchUsed += o.PrefetchUsed
	s.PrefetchDead += o.PrefetchDead
	s.Writebacks += o.Writebacks
}

// ReadHitRate returns the demand-load hit rate (Figure 8b).
func (s CacheStats) ReadHitRate() float64 {
	if s.DemandLoads == 0 {
		return 0
	}
	return float64(s.DemandHits) / float64(s.DemandLoads)
}

// PrefetchUtilisation returns the fraction of prefetched lines that were
// used by a demand access before leaving the cache (Figure 8a). Call
// (*Cache).FinalizeStats first so resident lines are counted.
func (s CacheStats) PrefetchUtilisation() float64 {
	total := s.PrefetchUsed + s.PrefetchDead
	if total == 0 {
		return 0
	}
	return float64(s.PrefetchUsed) / float64(total)
}

// cacheLine is one way of a set: 16 bytes, the line address with the line's
// flags in its low bits (a line address is LineSize-aligned).
type cacheLine struct {
	tag     uint64 // line address | line* flags
	lastUse int64
}

// Flags in the low bits of cacheLine.tag.
const (
	lineValid = 1 << iota
	lineDirty
	linePrefetched // brought in by a prefetch
	lineUsed       // prefetched line later touched by demand
)

func (l *cacheLine) has(flag uint64) bool { return l.tag&flag != 0 }

// addr returns the line address without its flags.
func (l *cacheLine) addr() uint64 { return l.tag &^ (LineSize - 1) }

// holds reports whether l is a valid copy of line, whatever its other flags.
func (l *cacheLine) holds(line uint64) bool {
	return (l.tag^(line|lineValid))&^(lineDirty|linePrefetched|lineUsed) == 0
}

// waiter is one completion target merged into an in-flight miss.
type waiter struct {
	h sim.Handler
	a uint64
}

// mshrEntry is one slot of the fixed miss-register file. Entries are never
// heap-allocated per miss: the slot array is sized to cfg.MSHRs at
// construction and the waiters/tags backing slices are recycled across
// misses ([:0] on allocate, capacity retained).
type mshrEntry struct {
	mshrState
	waiters []waiter
	tags    []tagged // prefetch-kernel tags to fire on fill (§4.7)
}

// mshrState is the part of a slot a fork copies by assignment.
type mshrState struct {
	line         uint64
	active       bool
	demand       bool // at least one demand access is waiting
	dirty        bool // a store is among the merged accesses
	initPrefetch bool // the miss was initiated by a prefetch
}

type tagged struct {
	tag     int
	timedAt sim.Ticks
}

// Cache is one set-associative, write-back, write-allocate cache level with
// a fixed number of MSHRs. It is non-blocking: demand misses beyond the MSHR
// count queue; prefetches beyond it are dropped (they are only hints) unless
// the level above waits on them.
type Cache struct {
	eng  *sim.Engine
	clk  sim.Clock
	cfg  CacheConfig
	next Level

	sets  int
	lines []cacheLine // sets × Ways, one set after another
	cacheState

	// mshrSlots is the miss-register file: a fixed array scanned linearly.
	// At ≤32 entries a scan-and-compare beats map hashing, allocates nothing,
	// and the array index doubles as the stable slot id the trace bus labels
	// MSHR tracks with (replacing the old lazily-allocated slotUsed table).
	mshrSlots []mshrEntry

	// lookupQ holds requests whose lookup is in the cache pipeline. Every
	// lookup takes the same HitCycles delay, so completions are FIFO and the
	// scheduled event needs no payload: it pops the head.
	lookupQ sim.Queue[*Request]

	// pendingMiss holds the misses that found every MSHR taken, in arrival
	// order; a freed register admits the oldest.
	pendingMiss sim.Queue[*Request]

	// Pool, if set, is the machine-wide request free list this cache releases
	// serviced requests into (and draws writeback requests from). Nil (unit
	// tests) falls back to plain allocation.
	Pool *Pool

	// lookupH/fillH are the typed event/completion adapters; scheduling
	// through them allocates nothing.
	lookupH lookupHandler
	fillH   fillHandler

	// OnDemandAccess, if set, observes every demand load at lookup time:
	// this is the snoop feeding the programmable prefetcher's address
	// filter and the baseline prefetchers' training.
	OnDemandAccess func(addr uint64, pc int, hit bool)

	// OnPrefetchFill, if set, observes tagged prefetched data arriving
	// (or found already resident), feeding prefetch-completion events.
	// filled distinguishes a real memory fill from an already-resident hit.
	OnPrefetchFill func(line uint64, tag int, timedAt sim.Ticks, filled bool)

	// OnMSHRFree, if set, is called whenever an MSHR is released, so the
	// prefetch-request-queue drainer can try again.
	OnMSHRFree func()

	// OnTaggedLookup, if set, is called right after the lookup of a tagged
	// prefetch has resolved — hit, merged, MSHR allocated or dropped, with
	// that outcome's own callback already made — so whoever issued it can
	// stop counting it against the free MSHRs.
	OnTaggedLookup func()

	// OnPrefetchDrop, if set, is told when a tagged prefetch is discarded
	// inside the cache (MSHRs filled during the lookup), so the prefetcher
	// can abandon the pending chain.
	OnPrefetchDrop func(line uint64, tag int)

	// Bus, if set, receives CacheMiss/CacheFill/CacheMSHRFull/CachePFDrop
	// events labelled with Level. The MSHR slot index on miss/fill events is
	// the entry's position in the fixed slot array.
	Bus   *trace.Bus
	Level int32
}

// cacheState is the cache's scalar timing state, copied to a fork by one
// assignment (the line arrays, MSHR file and request queues are copied
// beside it).
type cacheState struct {
	useClock  int64
	mshrCount int
	Stats     CacheStats
}

// lookupHandler pops the oldest in-pipeline lookup; FIFO order matches event
// order because every lookup is scheduled with the same fixed delay.
type lookupHandler struct{ c *Cache }

func (h lookupHandler) Handle(sim.Ticks, uint64, uint64) {
	c := h.c
	req := c.lookupQ.Pop()
	tagged := req.Kind == Prefetch && req.Tag != NoTag // finishLookup recycles req
	c.finishLookup(req)
	if tagged && c.OnTaggedLookup != nil {
		c.OnTaggedLookup()
	}
}

// fillHandler receives the next level's completion for MSHR slot a.
type fillHandler struct{ c *Cache }

func (h fillHandler) Handle(_ sim.Ticks, a, _ uint64) { h.c.fill(int32(a)) }

// NewCache builds a cache in the given clock domain in front of next.
func NewCache(eng *sim.Engine, clk sim.Clock, cfg CacheConfig, next Level) *Cache {
	sets := cfg.SizeBytes / (LineSize * cfg.Ways)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mem: %s: set count %d must be a positive power of two", cfg.Name, sets))
	}
	c := &Cache{
		eng:       eng,
		clk:       clk,
		cfg:       cfg,
		next:      next,
		sets:      sets,
		lines:     linePool.Get(sets * cfg.Ways),
		mshrSlots: takeMSHRFile(cfg.MSHRs),
	}
	c.lookupQ.Reuse(&requestRings)
	c.pendingMiss.Reuse(&requestRings)
	c.lookupH.c = c
	c.fillH.c = c
	eng.Own(c.lookupH, c.fillH)
	return c
}

// takeMSHRFile returns n idle miss registers, a released cache's when one is
// pooled: each keeps the capacity its waiter and tag lists grew to.
func takeMSHRFile(n int) []mshrEntry {
	f, ok := mshrFiles.Take(n)
	if !ok {
		return make([]mshrEntry, n)
	}
	for i := range f {
		f[i] = mshrEntry{waiters: f[i].waiters[:0], tags: f[i].tags[:0]}
	}
	return f
}

// Release hands c's line array, MSHR file and queue rings to the pools for
// another cache of the same geometry and drops c's engine, so a later Access
// panics instead of touching a finished run; Stats stay readable. Call it
// once c will not run again.
func (c *Cache) Release() {
	linePool.Put(c.lines)
	for i := range c.mshrSlots {
		clear(c.mshrSlots[i].waiters[:cap(c.mshrSlots[i].waiters)]) // handlers of this run
	}
	mshrFiles.Put(c.mshrSlots)
	c.lookupQ.Release()
	c.pendingMiss.Release()
	c.lines, c.mshrSlots, c.eng = nil, nil, nil
}

// Name returns the configured cache name.
func (c *Cache) Name() string { return c.cfg.Name }

// set returns the ways line maps to.
func (c *Cache) set(line uint64) []cacheLine {
	i := int((line/LineSize)%uint64(c.sets)) * c.cfg.Ways
	return c.lines[i : i+c.cfg.Ways]
}

func (c *Cache) lookup(line uint64) *cacheLine {
	set := c.set(line)
	for i := range set {
		if set[i].holds(line) {
			return &set[i]
		}
	}
	return nil
}

// victim returns the way of set a fill replaces: the first invalid one,
// else the least recently used.
func victim(set []cacheLine) *cacheLine {
	v := &set[0]
	for i := range set {
		l := &set[i]
		if !l.has(lineValid) {
			return l
		}
		if l.lastUse < v.lastUse {
			v = l
		}
	}
	return v
}

// findMSHR returns the active slot tracking line, or -1.
func (c *Cache) findMSHR(line uint64) int32 {
	for i := range c.mshrSlots {
		if c.mshrSlots[i].active && c.mshrSlots[i].line == line {
			return int32(i)
		}
	}
	return -1
}

// FreeMSHRs reports how many miss registers are available.
func (c *Cache) FreeMSHRs() int { return c.cfg.MSHRs - c.mshrCount }

// Contains reports whether the line holding addr is resident (for tests).
func (c *Cache) Contains(addr uint64) bool { return c.lookup(LineAddr(addr)) != nil }

// Access begins servicing a request. The lookup completes HitCycles later;
// the completion target fires at hit time or, on a miss, at fill time. The
// cache takes ownership of req (see Level).
func (c *Cache) Access(req *Request) {
	if req.Line == 0 {
		req.Line = LineAddr(req.Addr)
	}
	if req.Kind == Writeback {
		// Posted dirty eviction from the level above: treat as a fill of
		// ours (write-allocate would be unusual here; just forward if the
		// line is absent, mark dirty if present).
		c.Stats.Writebacks++
		if l := c.lookup(req.Line); l != nil {
			l.tag |= lineDirty
			c.Pool.Put(req)
			return
		}
		// Forward the same request down; ownership transfers with it.
		req.Kind = Writeback
		req.Tag, req.TimedAt = NoTag, -1
		req.Comp = nil
		c.next.Access(req)
		return
	}
	c.lookupQ.Push(req)
	c.eng.ScheduleAfter(c.clk.Cycles(c.cfg.HitCycles), c.lookupH, 0, 0)
}

func (c *Cache) finishLookup(req *Request) {
	now := c.eng.Now()
	line := c.lookup(req.Line)
	hit := line != nil

	switch req.Kind {
	case Load:
		c.Stats.DemandLoads++
		if hit {
			c.Stats.DemandHits++
		}
	case Store:
		c.Stats.DemandStores++
		if hit {
			c.Stats.StoreHits++
		}
	case Prefetch:
		if hit {
			c.Stats.PrefetchHits++
		}
	}

	if req.Kind != Prefetch && c.OnDemandAccess != nil {
		c.OnDemandAccess(req.Addr, req.PC, hit)
	}

	if hit {
		c.touch(line, req)
		if req.Kind == Prefetch && req.Tag != NoTag && c.OnPrefetchFill != nil {
			// The data the chain needs is already resident: the
			// prefetch-completion event still fires so the chain continues.
			c.OnPrefetchFill(req.Line, req.Tag, req.TimedAt, false)
		}
		req.Complete(now)
		c.Pool.Put(req)
		return
	}
	c.miss(req)
}

func (c *Cache) touch(line *cacheLine, req *Request) {
	c.useClock++
	line.lastUse = c.useClock
	if req.Kind == Store {
		line.tag |= lineDirty
	}
	if req.Kind != Prefetch && line.has(linePrefetched) {
		line.tag |= lineUsed
	}
}

// miss consumes req: it is merged, parked, dropped or sent down, and (except
// when parked waiting for an MSHR) released back to the pool before return.
func (c *Cache) miss(req *Request) {
	if s := c.findMSHR(req.Line); s >= 0 {
		// Merge with the in-flight miss.
		e := &c.mshrSlots[s]
		c.Stats.MSHRMerges++
		if req.Kind != Prefetch {
			if e.initPrefetch && !e.demand {
				c.Stats.LateMerges++
			}
			e.demand = true
			if req.Kind == Store {
				e.dirty = true
			}
		} else if req.Tag != NoTag {
			e.tags = append(e.tags, tagged{req.Tag, req.TimedAt})
		}
		if req.Comp != nil {
			e.waiters = append(e.waiters, waiter{req.Comp, req.CompA})
		}
		c.Pool.Put(req)
		return
	}
	if c.mshrCount >= c.cfg.MSHRs {
		// A prefetch nobody waits on is only a hint and is dropped. One that
		// carries a completer is the fill request of an MSHR in the level
		// above: that slot, and every demand load merged into it, would wait
		// forever, so it queues like a demand miss.
		if req.Kind == Prefetch && req.Comp == nil {
			c.Stats.PrefetchDrop++
			c.Bus.Emit(trace.Event{At: c.eng.Now(), Kind: trace.CachePFDrop,
				Addr: req.Line, A: c.Level, ID: int64(req.Tag)})
			if req.Tag != NoTag && c.OnPrefetchDrop != nil {
				c.OnPrefetchDrop(req.Line, req.Tag)
			}
			c.Pool.Put(req)
			return
		}
		c.Stats.MSHRStalls++
		c.Bus.Emit(trace.Event{At: c.eng.Now(), Kind: trace.CacheMSHRFull,
			Addr: req.Line, A: c.Level})
		c.pendingMiss.Push(req)
		return
	}
	c.allocateMSHR(req)
}

func (c *Cache) allocateMSHR(req *Request) {
	c.Stats.Misses++
	s := int32(0)
	for c.mshrSlots[s].active {
		s++
	}
	e := &c.mshrSlots[s]
	e.line = req.Line
	e.active = true
	e.demand = req.Kind != Prefetch
	e.dirty = req.Kind == Store
	e.initPrefetch = req.Kind == Prefetch
	e.waiters = e.waiters[:0]
	e.tags = e.tags[:0]
	c.mshrCount++

	demandBit := int32(0)
	if e.demand {
		demandBit = 1
	}
	c.Bus.Emit(trace.Event{At: c.eng.Now(), Kind: trace.CacheMiss,
		Addr: req.Line, A: c.Level, B: s, C: demandBit, ID: int64(req.Line)})
	if req.Kind == Prefetch {
		c.Stats.PrefetchIssue++
		if req.Tag != NoTag {
			e.tags = append(e.tags, tagged{req.Tag, req.TimedAt})
		}
	}
	if req.Comp != nil {
		e.waiters = append(e.waiters, waiter{req.Comp, req.CompA})
	}

	down := c.Pool.Get()
	down.Addr, down.Line = req.Addr, req.Line
	down.Kind = Load
	if req.Kind == Prefetch {
		down.Kind = Prefetch
	}
	down.PC = -1
	down.Tag, down.TimedAt = NoTag, -1
	down.Comp, down.CompA = c.fillH, uint64(s)
	c.Pool.Put(req)
	c.next.Access(down)
}

func (c *Cache) fill(s int32) {
	now := c.eng.Now()
	e := &c.mshrSlots[s]
	c.insert(e)
	// The slot frees here (exactly where the old map entry was deleted), but
	// its contents stay readable below: nothing inside the waiter/tag
	// callbacks re-enters Access synchronously (core completions and
	// prefetcher kernels only *schedule* work), so the slot cannot be
	// re-allocated before this function returns.
	e.active = false
	c.mshrCount--
	c.Bus.Emit(trace.Event{At: now, Kind: trace.CacheFill,
		Addr: e.line, A: c.Level, B: s, ID: int64(e.line)})

	for i := range e.waiters {
		e.waiters[i].h.Handle(now, e.waiters[i].a, 0)
	}
	if c.OnPrefetchFill != nil {
		for _, t := range e.tags {
			c.OnPrefetchFill(e.line, t.tag, t.timedAt, true)
		}
	}
	for i := range e.waiters {
		e.waiters[i] = waiter{} // drop handler references eagerly
	}

	// A register just freed: admit a queued demand miss first, then let the
	// prefetch drainer know.
	if c.pendingMiss.Len() > 0 && c.mshrCount < c.cfg.MSHRs {
		c.miss(c.pendingMiss.Pop())
	}
	if c.OnMSHRFree != nil && c.mshrCount < c.cfg.MSHRs {
		c.OnMSHRFree()
	}
}

func (c *Cache) insert(e *mshrEntry) {
	v := victim(c.set(e.line))
	c.evict(v)

	c.useClock++
	tag := e.line | lineValid
	if e.dirty {
		tag |= lineDirty
	}
	if e.initPrefetch {
		tag |= linePrefetched
		if e.demand {
			// A demand access merged into a prefetch-initiated miss means the
			// prefetched data was (late but) used.
			tag |= lineUsed
		}
		c.Stats.PrefetchFills++
	}
	*v = cacheLine{tag: tag, lastUse: c.useClock}
}

// retire counts a prefetched line leaving the cache (or, at FinalizeStats,
// the run) as used or dead.
func (c *Cache) retire(l *cacheLine) {
	if !l.has(linePrefetched) {
		return
	}
	if l.has(lineUsed) {
		c.Stats.PrefetchUsed++
	} else {
		c.Stats.PrefetchDead++
	}
}

func (c *Cache) evict(l *cacheLine) {
	if !l.has(lineValid) {
		return
	}
	c.retire(l)
	if l.has(lineDirty) {
		wb := c.Pool.Get()
		wb.Addr, wb.Line = l.addr(), l.addr()
		wb.Kind = Writeback
		wb.PC = -1
		wb.Tag, wb.TimedAt = NoTag, -1
		c.next.Access(wb)
		c.Stats.Writebacks++
	}
	l.tag &^= lineValid
}

// FinalizeStats folds lines still resident at end of run into the
// prefetch-utilisation counters. Call once, after simulation completes.
func (c *Cache) FinalizeStats() {
	for i := range c.lines {
		if l := &c.lines[i]; l.has(lineValid) {
			c.retire(l)
			l.tag &^= linePrefetched
		}
	}
}

// InFlightMSHRs reports occupied miss registers (diagnostics).
func (c *Cache) InFlightMSHRs() int { return c.mshrCount }
