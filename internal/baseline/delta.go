package baseline

import (
	"eventpf/internal/mem"
	"eventpf/internal/sim"
)

// DeltaConfig sizes the delta-correlating global-history-buffer prefetcher.
type DeltaConfig struct {
	GHBSize int // history buffer entries (miss lines)
	AITSize int // address-index table entries, hashed by delta
	Width   int // prior occurrences of the current delta examined
	Depth   int // predictions replayed per occurrence
	Queue   int
}

// DefaultDeltaConfig mirrors the classic G/DC sizings (1K-entry GHB and
// index, 3-wide × 3-deep fan-out).
func DefaultDeltaConfig() DeltaConfig {
	return DeltaConfig{GHBSize: 1024, AITSize: 1024, Width: 3, Depth: 3, Queue: 64}
}

// deltaEntry is one history slot: the miss line plus a link to the previous
// entry that was reached by the same delta (virtual position, -1 if none).
type deltaEntry struct {
	line uint64
	prev int32
}

// aitSlot maps a delta to the most recent GHB position reached by it.
// Direct-mapped and overwritten on every insert, like the exemplar's AIT.
type aitSlot struct {
	delta int64
	pos   int32
	valid bool
}

// GHBDelta is a delta-correlating global-history-buffer prefetcher (G/DC
// organisation): misses append their line to a circular history buffer and
// are linked by the *delta* from the previous miss rather than by address.
// On a miss, the chain of prior occurrences of the same delta is walked
// Width deep, and from each occurrence the next Depth deltas are replayed
// from the current address — so a recurring stream of irregular strides is
// re-predicted wholesale, where the Markov (G/AC) unit needs the very same
// addresses to recur.
type GHBDelta struct {
	cfg      DeltaConfig
	ghb      []deltaEntry
	count    int // monotone virtual position of the next insert
	ait      []aitSlot
	lastLine uint64
	haveLast bool
	is       *issuer
}

// NewGHBDelta builds a delta-correlating GHB prefetcher issuing into l1.
func NewGHBDelta(eng *sim.Engine, cfg DeltaConfig, l1 *mem.Cache, tlb *mem.TLB) *GHBDelta {
	return &GHBDelta{
		cfg: cfg,
		ghb: make([]deltaEntry, 0, cfg.GHBSize),
		ait: make([]aitSlot, cfg.AITSize),
		is:  newIssuer(eng, l1, tlb, cfg.Queue),
	}
}

// Stats returns issue counters.
func (g *GHBDelta) Stats() IssuerStats { return g.is.stats }

// Observe trains, like the Markov GHB, on demand misses only.
func (g *GHBDelta) Observe(addr uint64, _ int, hit bool) {
	if !hit {
		g.observeMiss(mem.LineAddr(addr))
	}
}

func (g *GHBDelta) observeMiss(line uint64) {
	prev := int32(-1)
	if g.haveLast {
		delta := int64(line) - int64(g.lastLine)
		slot := &g.ait[uint64(delta)%uint64(len(g.ait))]
		if slot.valid && slot.delta == delta {
			if _, live := g.at(int(slot.pos)); live {
				prev = slot.pos
			}
		}
		*slot = aitSlot{delta: delta, pos: int32(g.count), valid: true}
	}
	pos := g.count
	g.insert(deltaEntry{line: line, prev: prev})
	g.lastLine, g.haveLast = line, true

	// Fan out: walk Width prior occurrences of this delta; from each, replay
	// the Depth deltas that followed it, accumulated onto the current line.
	occ := prev
	for w := 0; w < g.cfg.Width && occ >= 0; w++ {
		base := line
		for d := 1; d <= g.cfg.Depth; d++ {
			cur, okCur := g.at(int(occ) + d)
			before, okBefore := g.at(int(occ) + d - 1)
			if !okCur || !okBefore || int(occ)+d >= pos {
				break
			}
			base = uint64(int64(base) + int64(cur.line) - int64(before.line))
			if base != line {
				g.is.push(base)
			}
		}
		e, ok := g.at(int(occ))
		if !ok {
			break
		}
		occ = e.prev
	}
}

// at resolves a virtual position against the circular buffer; the buffer
// keeps the last GHBSize positions.
func (g *GHBDelta) at(pos int) (deltaEntry, bool) {
	if pos < 0 || pos >= g.count || pos < g.count-len(g.ghb) {
		return deltaEntry{}, false
	}
	return g.ghb[pos%g.cfg.GHBSize], true
}

func (g *GHBDelta) insert(e deltaEntry) {
	slot := g.count % g.cfg.GHBSize
	if len(g.ghb) < g.cfg.GHBSize {
		g.ghb = append(g.ghb, deltaEntry{})
	}
	g.ghb[slot] = e
	g.count++
}
