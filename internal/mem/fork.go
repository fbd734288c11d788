package mem

import "fmt"

// This file implements the memory system's half of machine forking (see
// system.Machine.Fork): each component of the fork copies its parent's state.
// Fork-copied scalars live in one embedded plain-value struct per component
// (cacheState, mshrState, tlbState, dramState) assigned at once; slices are
// copied beside it. State frequently captures handlers owned by *other*
// components — an MSHR waiter list holds core completion adapters, a TLB
// record holds the prefetch pump's handler — and each is translated into the
// fork's handler at the same position by sim.Engine.Counterpart.
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
	clear(b.memo[:])
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
			np = takePage()
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

// CopyStateFrom makes c's timing state an exact copy of src's: line arrays,
// LRU clock, the MSHR file (waiter handlers translated), and the in-pipeline
// lookup and MSHR-stalled request queues (cloned into c's pool). The two
// caches must have been built with the same geometry.
func (c *Cache) CopyStateFrom(src *Cache) error {
	if c.sets != src.sets || c.cfg.Ways != src.cfg.Ways || len(c.mshrSlots) != len(src.mshrSlots) {
		return fmt.Errorf("mem: fork of cache %s into different geometry", src.cfg.Name)
	}
	copy(c.lines, src.lines)
	c.cacheState = src.cacheState
	for i := range src.mshrSlots {
		se, de := &src.mshrSlots[i], &c.mshrSlots[i]
		de.mshrState = se.mshrState
		de.waiters = de.waiters[:0]
		de.tags = de.tags[:0]
		if !se.active {
			// Inactive slots are re-initialised ([:0]) before reuse; their
			// residual contents are never read.
			continue
		}
		for _, w := range se.waiters {
			h, err := c.eng.Counterpart(src.eng, w.h)
			if err != nil {
				return fmt.Errorf("%s MSHR %d waiter: %w", src.cfg.Name, i, err)
			}
			de.waiters = append(de.waiters, waiter{h, w.a})
		}
		de.tags = append(de.tags, se.tags...)
	}
	clone := func(r *Request) (*Request, error) {
		h, err := c.eng.Counterpart(src.eng, r.Comp)
		if err != nil {
			return nil, err
		}
		cl := c.Pool.Get()
		*cl = *r
		cl.Comp = h
		return cl, nil
	}
	if err := c.lookupQ.CopyFrom(&src.lookupQ, clone); err != nil {
		return fmt.Errorf("%s lookup pipeline: %w", src.cfg.Name, err)
	}
	if err := c.pendingMiss.CopyFrom(&src.pendingMiss, clone); err != nil {
		return fmt.Errorf("%s pending misses: %w", src.cfg.Name, err)
	}
	return nil
}

// CopyStateFrom copies src's translation state: both TLB levels, the
// in-flight translation record table (completion handlers translated), the
// walker queue and the LRU clock.
func (t *TLB) CopyStateFrom(src *TLB) error {
	if len(t.l1.ents) != len(src.l1.ents) || len(t.l2) != len(src.l2) || t.cfg.L2Ways != src.cfg.L2Ways {
		return fmt.Errorf("mem: fork of TLB into different geometry")
	}
	t.l1.copyFrom(&src.l1)
	copy(t.l2, src.l2)
	t.tlbState = src.tlbState
	t.walkQueue.CopyFrom(&src.walkQueue, nil)
	err := t.recs.CopyFrom(&src.recs, func(r transRec) (transRec, error) {
		var err error
		r.h, err = t.eng.Counterpart(src.eng, r.h)
		return r, err
	})
	if err != nil {
		// The records before the failing one were copied, so Live names it.
		return fmt.Errorf("TLB record %d: %w", t.recs.Live(), err)
	}
	return nil
}

// CopyStateFrom copies src's bank timing, bus occupancy and counters. DRAM
// resolves and schedules each request's completion at Access time, so it
// holds no live requests and owns no handlers.
func (d *DRAM) CopyStateFrom(src *DRAM) error {
	if len(d.bank) != len(src.bank) {
		return fmt.Errorf("mem: fork of DRAM into different bank count")
	}
	copy(d.bank, src.bank)
	d.dramState = src.dramState
	return nil
}
