package baseline

import "fmt"

// Fork support: the baseline prefetchers hold plain value state (tables,
// queues, counters); their handler adapters (the issuer's translation
// handler, TSKID's delayed-issue handler) are owned by the engine, which pairs
// them itself, so only state is copied. Every unit implements the Unit
// interface's fork half by type-asserting src: the system fork always pairs
// units built from the same scheme, so a mismatch is a wiring bug reported as
// an error.

func (is *issuer) copyStateFrom(src *issuer) {
	is.queue.CopyFrom(&src.queue, nil)
	is.pumping = src.pumping
	is.stats = src.stats
}

// forkMismatch reports a unit forked into a different concrete type.
func forkMismatch(dst, src Unit) error {
	return fmt.Errorf("baseline: fork of %T into %T", src, dst)
}

// CopyStateFrom copies src's prediction table and issuer state.
func (s *Stride) CopyStateFrom(src Unit) error {
	ss, ok := src.(*Stride)
	if !ok {
		return forkMismatch(s, src)
	}
	if len(s.table) != len(ss.table) {
		return fmt.Errorf("baseline: fork of stride prefetcher into different table size")
	}
	copy(s.table, ss.table)
	s.is.copyStateFrom(ss.is)
	return nil
}

// CopyStateFrom copies src's history buffer, index and issuer state.
func (g *GHB) CopyStateFrom(src Unit) error {
	sg, ok := src.(*GHB)
	if !ok {
		return forkMismatch(g, src)
	}
	if g.size != sg.size {
		return fmt.Errorf("baseline: fork of GHB prefetcher into different buffer size")
	}
	g.ghb = append(g.ghb[:0], sg.ghb...)
	g.count = sg.count
	clear(g.index)
	for line, pos := range sg.index {
		g.index[line] = pos
	}
	g.indexAge.CopyFrom(&sg.indexAge, nil)
	g.is.copyStateFrom(sg.is)
	return nil
}

// CopyStateFrom copies src's reference prediction table and issuer state.
func (r *RPT) CopyStateFrom(src Unit) error {
	sr, ok := src.(*RPT)
	if !ok {
		return forkMismatch(r, src)
	}
	if len(r.table) != len(sr.table) {
		return fmt.Errorf("baseline: fork of RPT prefetcher into different table size")
	}
	copy(r.table, sr.table)
	r.is.copyStateFrom(sr.is)
	return nil
}

// CopyStateFrom copies src's history buffer, index table and issuer state.
func (g *GHBDelta) CopyStateFrom(src Unit) error {
	sg, ok := src.(*GHBDelta)
	if !ok {
		return forkMismatch(g, src)
	}
	if g.cfg.GHBSize != sg.cfg.GHBSize || len(g.ait) != len(sg.ait) {
		return fmt.Errorf("baseline: fork of delta-GHB prefetcher into different sizing")
	}
	g.ghb = append(g.ghb[:0], sg.ghb...)
	g.count = sg.count
	copy(g.ait, sg.ait)
	g.lastLine, g.haveLast = sg.lastLine, sg.haveLast
	g.is.copyStateFrom(sg.is)
	return nil
}

// CopyStateFrom copies src's trackers, trigger→target table, recent-PC ring
// and issuer state.
func (t *TSKID) CopyStateFrom(src Unit) error {
	st, ok := src.(*TSKID)
	if !ok {
		return forkMismatch(t, src)
	}
	if len(t.trackers) != len(st.trackers) || len(t.targets) != len(st.targets) ||
		len(t.recent) != len(st.recent) {
		return fmt.Errorf("baseline: fork of TSKID prefetcher into different sizing")
	}
	copy(t.trackers, st.trackers)
	copy(t.targets, st.targets)
	copy(t.recent, st.recent)
	t.recentN = st.recentN
	t.is.copyStateFrom(st.is)
	return nil
}
