package mem

import "eventpf/internal/sim"

// The memory system's recycled tables (sim.Recycler, sim.ArrayPool): what a
// released Backing, Cache and TLB hand back for the next machine's to take.

// maxPooledPages bounds the functional pages kept between machines: 64 MiB,
// ~2.5× the most a small-scale figure suite leaves pooled at once (~6 600
// pages; RandAcc's table alone is 4 097). A larger run takes what is kept
// and allocates the rest.
const maxPooledPages = 16 << 10

// pageIdleLimit is how many Backings in a row may be released without one
// having taken a page before the page pool empties: a process that has moved
// on to trace replays, which write no page, stops holding the pages of the
// builds before them.
const pageIdleLimit = 16

// pagePool holds *[wordsPerPage]uint64.
var pagePool = sim.Recycler[*[wordsPerPage]uint64]{Max: maxPooledPages, IdleLimit: pageIdleLimit}

// takePage returns a zeroed page for a Backing to own.
func takePage() *[wordsPerPage]uint64 {
	if p, ok := pagePool.Take(); ok {
		clear(p[:])
		return p
	}
	return new([wordsPerPage]uint64)
}

// pageMaps holds cleared page maps: clear keeps a map's buckets, so a map
// that once held RandAcc's 4 097 pages maps them again without growing. One
// per machine that runs at once.
var pageMaps = sim.Recycler[map[uint64]*[wordsPerPage]uint64]{Max: maxPooledArrays}

// maxPooledArrays bounds the arrays kept per length: one per machine that
// runs at once, with room for a forked sweep's parent beside its lanes.
const maxPooledArrays = 8

var (
	linePool   = sim.ArrayPool[cacheLine]{Max: maxPooledArrays}
	tlbPool    = sim.ArrayPool[tlbEntry]{Max: maxPooledArrays}
	bankArrays = sim.ArrayPool[bankState]{Max: maxPooledArrays}
	mshrFiles  = sim.ArrayPool[mshrEntry]{Max: maxPooledArrays}
	l1TLBEnts  = sim.ArrayPool[l1Entry]{Max: maxPooledArrays}
	l1TLBIdx   = sim.ArrayPool[int32]{Max: maxPooledArrays}
	// Rings and record tables (Queue.Reuse, Slab.Reuse): a machine has four
	// request rings (each cache's lookup pipeline and MSHR-full queue), one
	// walk queue and one translation table.
	requestRings = sim.Recycler[[]*Request]{Max: 4 * maxPooledArrays}
	walkRings    = sim.Recycler[[]int32]{Max: maxPooledArrays}
	transRecs    = sim.Recycler[[]transRec]{Max: maxPooledArrays}
	// requestPools holds released machines' request free lists, requests
	// and all.
	requestPools = sim.Recycler[*Pool]{Max: maxPooledArrays}
)
