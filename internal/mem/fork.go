package mem

import (
	"fmt"

	"eventpf/internal/sim"
)

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
	var err error
	if c.lookupQ, err = c.cloneRequests(c.lookupQ, src.lookupQ, src.eng); err != nil {
		return fmt.Errorf("%s lookup pipeline: %w", src.cfg.Name, err)
	}
	if c.pendingMiss, err = c.cloneRequests(c.pendingMiss, src.pendingMiss, src.eng); err != nil {
		return fmt.Errorf("%s pending misses: %w", src.cfg.Name, err)
	}
	return nil
}

// cloneRequests replaces dst's contents with copies of the requests parked in
// src (a queue of the cache built on srcEng), each drawn from c's pool — the
// fork's, never the parent's — with its completion target translated.
func (c *Cache) cloneRequests(dst, src []*Request, srcEng *sim.Engine) ([]*Request, error) {
	clear(dst)
	dst = dst[:0]
	for _, r := range src {
		h, err := c.eng.Counterpart(srcEng, r.Comp)
		if err != nil {
			return dst, err
		}
		cl := c.Pool.Get()
		*cl = *r
		cl.Comp = h
		dst = append(dst, cl)
	}
	return dst, nil
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
	t.walkQueue = append(t.walkQueue[:0], src.walkQueue...)
	if cap(t.recs) < len(src.recs) {
		t.recs = make([]transRec, len(src.recs))
	}
	t.recs = t.recs[:len(src.recs)]
	for i, r := range src.recs {
		h, err := t.eng.Counterpart(src.eng, r.h)
		if err != nil {
			return fmt.Errorf("TLB record %d: %w", i, err)
		}
		r.h = h
		t.recs[i] = r
	}
	t.recFree = append(t.recFree[:0], src.recFree...)
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
