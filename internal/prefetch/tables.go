package prefetch

import (
	"eventpf/internal/ppu"
	"eventpf/internal/sim"
)

// pendingPF is the record of one generated prefetch, from the kernel that
// emitted it to the fill (or drop) that ends it. id is the observation id the
// request carries as its cache tag (§4.7) and every trace event prints.
type pendingPF struct {
	id         int
	live       bool
	addr       uint64
	chain      int // kernel to run on fill (explicit tag), NoKernel if none
	timedAt    sim.Ticks
	ewma       int // EWMA group the timed chain reports to, -1 if none
	blockedPPU int // blocked mode: PPU suspended on this request, else -1
	createdAt  sim.Ticks
}

// pendTable holds the live prefetch records, direct-mapped by id & mask: a
// request is found again by the tag it carries, not by a search. Ids are
// handed out in order and a record lives only until its fill or drop, so the
// live ids span a window of recent ones; an insert that lands on a live older
// record doubles the table, which always separates the two.
type pendTable struct {
	slots []pendingPF // length a power of two
}

func newPendTable(atLeast int) pendTable {
	size := 8
	for size < atLeast {
		size <<= 1
	}
	return pendTable{slots: pendArrays.Get(size)}
}

// find returns the live record of id, or nil if it was never tracked or has
// been filled, dropped or flushed since.
func (t *pendTable) find(id int) *pendingPF {
	e := &t.slots[id&(len(t.slots)-1)]
	if e.live && e.id == id {
		return e
	}
	return nil
}

// insert returns id's slot, dead; the caller fills it. The pointer is good
// until the next insert.
func (t *pendTable) insert(id int) *pendingPF {
	for {
		e := &t.slots[id&(len(t.slots)-1)]
		if !e.live {
			return e
		}
		// Live ids are distinct modulo the old size, so they stay distinct
		// modulo twice that: re-placing cannot collide.
		old := t.slots
		t.slots = pendArrays.Get(2 * len(old))
		for i := range old {
			if old[i].live {
				t.slots[old[i].id&(len(t.slots)-1)] = old[i]
			}
		}
		pendArrays.Put(old)
	}
}

func (t *pendTable) clear() { clear(t.slots) }

// copyFrom makes t a copy of src at src's length.
func (t *pendTable) copyFrom(src *pendTable) {
	if len(t.slots) != len(src.slots) {
		pendArrays.Put(t.slots)
		t.slots = pendArrays.Get(len(src.slots))
	}
	copy(t.slots, src.slots)
}

// release hands the table back; it holds nothing afterwards.
func (t *pendTable) release() {
	pendArrays.Put(t.slots)
	t.slots = nil
}

// kernelEntry is one slot of the kernel registry, indexed by kernel id.
type kernelEntry struct {
	prog []ppu.Instr
	set  bool // registered; an empty program is still a kernel
	warm bool // already fetched into the shared instruction cache (§4.4)
}
