package mem

// Functional warming for SMARTS-style interval sampling: ops consumed during
// a fast-forward interval still update cache tag arrays, LRU state and TLB
// contents — otherwise every measurement interval would start from a
// cold-ish hierarchy and overstate miss rates — but touch no simulated time,
// schedule no events and count no stats (sampled statistics are estimated
// from the detailed intervals alone).

// WarmAccess applies the tag/LRU effect of one demand access without any
// timing: a hit touches the line, a miss installs it over the LRU victim.
// Dirty victims vanish silently (functional data lives in the backing store,
// which the interpreter keeps correct independently of the cache models).
// It reports whether the access hit, so callers can warm the next level on
// a miss.
func (c *Cache) WarmAccess(addr uint64, store bool) (hit bool) {
	line := LineAddr(addr)
	if l := c.lookup(line); l != nil {
		c.useClock++
		l.lastUse = c.useClock
		if store {
			l.tag |= lineDirty
		}
		if l.has(linePrefetched) {
			l.tag |= lineUsed
		}
		return true
	}
	v := victim(c.set(line))
	// Keep the prefetch-utilisation classification honest for lines a warm
	// eviction displaces; everything else stays out of the stats.
	if v.has(lineValid) {
		c.retire(v)
	}
	c.useClock++
	tag := line | lineValid
	if store {
		tag |= lineDirty
	}
	*v = cacheLine{tag: tag, lastUse: c.useClock}
	return false
}

// WarmAccess applies the effect of one translation on TLB contents without
// timing, walker occupancy or stats.
func (t *TLB) WarmAccess(addr uint64) {
	page := PageAddr(addr)
	if t.l1.touch(page) {
		return
	}
	set := t.l2Set(page)
	if t.touchL2(set, page) {
		t.l1.insert(page)
		return
	}
	if t.bk.Mapped(page) {
		t.l1.insert(page)
		t.insertL2(set, page)
	}
}
