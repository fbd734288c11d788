package mem

import "sync"

// Memory a finished machine hands back for the next one to take: functional
// pages (Backing.Release), cache line arrays (Cache.Release) and L2-TLB arrays
// (TLB.Release). These free lists are the one structure shared across
// machines, and a page or array belongs to exactly one machine from the take
// that hands it out to the Release that returns it.
//
// They are bounded free lists, not sync.Pools. A sync.Pool is emptied by
// every other collection and hands a P back only what that P put, so whether
// a run found its memory depended on when the collector ran and on which P
// the run's goroutine sat: a warm run allocated its pages afresh at random,
// and a serving process's allocation swung by a sixth from one batch of jobs
// to the next. A Recycler hands back whatever it holds, to any goroutine,
// until it is empty. What it keeps is bounded by its Max, and the page pool
// empties itself once machines stop drawing on it (IdleLimit): a burst of
// machines pins at most Max, and only while machines like them still run.

// Recycler is a stack of items their last owner handed back, for the next
// owner to take. It is safe for concurrent use; an item belongs to exactly
// one owner from the Take that hands it out to the Put that returns it, and
// the Recycler's lock orders the last owner's writes before the next owner's
// clear.
type Recycler[T any] struct {
	mu     sync.Mutex
	items  []T
	lapses int // Lapse calls since the last Take
	// Max is the most items kept; a Put beyond it leaves the item to the GC.
	Max int
	// IdleLimit, if positive, is how many owners in a row may end their
	// lives (Lapse) without one Take before the Recycler leaves everything
	// it holds to the GC.
	IdleLimit int
}

// Take pops the most recently put item; ok is false when there is none.
func (r *Recycler[T]) Take() (item T, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lapses = 0
	n := len(r.items)
	if n == 0 {
		return item, false
	}
	item = r.items[n-1]
	var zero T
	r.items[n-1] = zero
	r.items = r.items[:n-1]
	return item, true
}

// Put hands item back; the caller keeps no reference to it.
func (r *Recycler[T]) Put(item T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.items) < r.Max {
		r.items = append(r.items, item)
	}
}

// Lapse records that an owner's life ended. Counting owners, not time, keeps
// what a run allocates a function of the runs before it alone.
func (r *Recycler[T]) Lapse() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lapses++; r.IdleLimit > 0 && r.lapses >= r.IdleLimit {
		clear(r.items)
		r.items, r.lapses = nil, 0
	}
}

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
var pagePool = Recycler[*[wordsPerPage]uint64]{Max: maxPooledPages, IdleLimit: pageIdleLimit}

// takePage returns a zeroed page for a Backing to own.
func takePage() *[wordsPerPage]uint64 {
	if p, ok := pagePool.Take(); ok {
		clear(p[:])
		return p
	}
	return new([wordsPerPage]uint64)
}

// maxPooledArrays bounds the arrays kept per length: one per machine that
// runs at once, with room for a forked sweep's parent beside its lanes.
const maxPooledArrays = 8

// arrayPool recycles slices of one element type: one Recycler per length,
// since caches of two geometries must not trade arrays.
type arrayPool[T any] struct {
	mu     sync.Mutex
	bySize map[int]*Recycler[[]T]
}

func (p *arrayPool[T]) pool(n int) *Recycler[[]T] {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.bySize[n]
	if r == nil {
		if p.bySize == nil {
			p.bySize = make(map[int]*Recycler[[]T])
		}
		r = &Recycler[[]T]{Max: maxPooledArrays}
		p.bySize[n] = r
	}
	return r
}

// get returns a zeroed slice of length n.
func (p *arrayPool[T]) get(n int) []T {
	if s, ok := p.pool(n).Take(); ok {
		clear(s)
		return s
	}
	return make([]T, n)
}

// put hands s back; the caller keeps no reference to it.
func (p *arrayPool[T]) put(s []T) {
	if len(s) > 0 {
		p.pool(len(s)).Put(s)
	}
}

var (
	linePool arrayPool[cacheLine]
	tlbPool  arrayPool[tlbEntry]
)
