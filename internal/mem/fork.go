package mem

import (
	"fmt"

	"eventpf/internal/sim"
)

// This file implements the memory system's half of machine forking (see
// system.Machine.Fork). Forking is two-phase: first every component of the
// fork registers its (parent, fork) handler pairs in a sim.Remap, then every
// component copies the parent's state with stored handlers translated through
// the completed table. The split matters because state frequently captures
// handlers owned by *other* components — an MSHR waiter list holds core
// completion adapters, a TLB record holds the prefetch pump's handler — so no
// state may be copied until every component has registered.
//
// Ownership rule for pooled requests: a fork never aliases its parent's
// *Request objects. Requests parked in a parent's queues (cache lookup
// pipeline, MSHR-full pending list) are cloned into the fork's own pool, so
// both machines can complete and recycle their copies independently.

// CopyFrom deep-copies src's pages into b. Existing page arrays in b are
// reused where the same page is mapped (the common warm-fork case); pages b
// has that src lacks are dropped. A page src never wrote stays the shared
// zero page in b too.
func (b *Backing) CopyFrom(src *Backing) {
	for pa := range b.pages {
		if _, ok := src.pages[pa]; !ok {
			delete(b.pages, pa)
		}
	}
	for pa, pg := range src.pages {
		if pg == &zeroPage {
			b.pages[pa] = pg
			continue
		}
		np := b.pages[pa]
		if np == nil || np == &zeroPage {
			np = new([wordsPerPage]uint64)
			b.pages[pa] = np
		}
		*np = *pg
	}
}

// CopyFrom copies src's allocation state so address layout (and therefore
// every address-derived behaviour) matches the parent exactly. The backing
// pointer is left alone: the fork's arena maps pages into the fork's store.
func (a *Arena) CopyFrom(src *Arena) {
	a.next = src.next
	a.regions = append(a.regions[:0], src.regions...)
}

// cloneRequest copies src into a request drawn from pool — the fork's pool,
// never the parent's — translating the completion target.
func cloneRequest(pool *Pool, src *Request, remap *sim.Remap) (*Request, error) {
	dst := pool.Get()
	*dst = *src
	if src.Comp != nil {
		h, err := remap.Lookup(src.Comp)
		if err != nil {
			pool.Put(dst)
			return nil, err
		}
		dst.Comp = h
	}
	return dst, nil
}

// RegisterFork records the cache's handler adapters as counterparts of src's,
// so events and completions captured in the parent resolve to this cache.
func (c *Cache) RegisterFork(src *Cache, remap *sim.Remap) {
	remap.Register(src.lookupH, c.lookupH)
	remap.Register(src.fillH, c.fillH)
}

// CopyStateFrom makes c's timing state an exact copy of src's: line arrays,
// LRU clock, the MSHR file (waiter handlers translated through remap), and
// the in-pipeline lookup and MSHR-stalled request queues (cloned into c's
// pool). The two caches must have been built with the same geometry.
func (c *Cache) CopyStateFrom(src *Cache, remap *sim.Remap) error {
	if c.sets != src.sets || c.cfg.Ways != src.cfg.Ways || len(c.mshrSlots) != len(src.mshrSlots) {
		return fmt.Errorf("mem: fork of cache %s into different geometry", src.cfg.Name)
	}
	for i := range src.lines {
		copy(c.lines[i], src.lines[i])
	}
	c.useClock = src.useClock
	c.mshrCount = src.mshrCount
	for i := range src.mshrSlots {
		se, de := &src.mshrSlots[i], &c.mshrSlots[i]
		de.line = se.line
		de.active = se.active
		de.demand = se.demand
		de.dirty = se.dirty
		de.initPrefetch = se.initPrefetch
		de.waiters = de.waiters[:0]
		de.tags = de.tags[:0]
		if !se.active {
			// Inactive slots are re-initialised ([:0]) before reuse; their
			// residual contents are never read.
			continue
		}
		for _, w := range se.waiters {
			h, err := remap.Lookup(w.h)
			if err != nil {
				return fmt.Errorf("%s MSHR %d waiter: %w", src.cfg.Name, i, err)
			}
			de.waiters = append(de.waiters, waiter{h, w.a})
		}
		de.tags = append(de.tags, se.tags...)
	}
	var err error
	if c.lookupQ, err = cloneRequests(c.lookupQ, src.lookupQ, c.Pool, remap); err != nil {
		return fmt.Errorf("%s lookup pipeline: %w", src.cfg.Name, err)
	}
	if c.pendingMiss, err = cloneRequests(c.pendingMiss, src.pendingMiss, c.Pool, remap); err != nil {
		return fmt.Errorf("%s pending misses: %w", src.cfg.Name, err)
	}
	c.Stats = src.Stats
	return nil
}

func cloneRequests(dst, src []*Request, pool *Pool, remap *sim.Remap) ([]*Request, error) {
	for i := range dst {
		dst[i] = nil
	}
	dst = dst[:0]
	for _, r := range src {
		cl, err := cloneRequest(pool, r, remap)
		if err != nil {
			return dst, err
		}
		dst = append(dst, cl)
	}
	return dst, nil
}

// RegisterFork records the TLB's handler adapters as counterparts of src's.
func (t *TLB) RegisterFork(src *TLB, remap *sim.Remap) {
	remap.Register(src.l2HitH, t.l2HitH)
	remap.Register(src.walkDone, t.walkDone)
}

// CopyStateFrom copies src's translation state: both TLB levels, the
// in-flight translation record table (completion handlers translated), the
// walker queue and the LRU clock.
func (t *TLB) CopyStateFrom(src *TLB, remap *sim.Remap) error {
	if len(t.l1) != len(src.l1) || len(t.l2) != len(src.l2) {
		return fmt.Errorf("mem: fork of TLB into different geometry")
	}
	copy(t.l1, src.l1)
	for i := range src.l2 {
		copy(t.l2[i], src.l2[i])
	}
	t.activeWalks = src.activeWalks
	t.walkQueue = append(t.walkQueue[:0], src.walkQueue...)
	if cap(t.recs) < len(src.recs) {
		t.recs = make([]transRec, len(src.recs))
	}
	t.recs = t.recs[:len(src.recs)]
	for i, r := range src.recs {
		h, err := remap.Lookup(r.h)
		if err != nil {
			return fmt.Errorf("TLB record %d: %w", i, err)
		}
		r.h = h
		t.recs[i] = r
	}
	t.recFree = append(t.recFree[:0], src.recFree...)
	t.useClock = src.useClock
	t.Stats = src.Stats
	return nil
}

// CopyStateFrom copies src's bank timing, bus occupancy and counters. DRAM
// resolves and schedules each request's completion at Access time, so it
// holds no live requests and registers no handlers of its own.
func (d *DRAM) CopyStateFrom(src *DRAM) error {
	if len(d.bank) != len(src.bank) {
		return fmt.Errorf("mem: fork of DRAM into different bank count")
	}
	copy(d.bank, src.bank)
	d.busFreeAt = src.busFreeAt
	d.Stats = src.Stats
	return nil
}
