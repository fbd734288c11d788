package sim

import "sync"

// Memory a finished machine hands back for the next one to take. Every table
// a machine sizes in its constructors or grows while it runs — functional
// pages and the page map, cache line arrays and MSHR files, TLB arrays, the
// timing wheel and its node slab, the core's window and predictor, the
// prefetchers' tables, every Queue ring and Slab — goes back through a
// Recycler (or its length-keyed form, ArrayPool) when the machine is released
// (system.Machine.Release), and the next machine's constructors take it back.
// These free lists are the one structure shared across machines, and an item
// belongs to exactly one machine from the take that hands it out to the
// release that returns it.
//
// They are bounded free lists, not sync.Pools. A sync.Pool is emptied by
// every other collection and hands a P back only what that P put, so whether
// a run found its memory depended on when the collector ran and on which P
// the run's goroutine sat: a warm run allocated its pages afresh at random,
// and a serving process's allocation swung by a sixth from one batch of jobs
// to the next. A Recycler hands back whatever it holds, to any goroutine,
// until it is empty. What it keeps is bounded by its Max, and a pool may empty
// itself once owners stop drawing on it (IdleLimit): a burst of machines pins
// at most Max items a pool, and only while machines like them still run.

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

// ArrayPool recycles slices of one element type, one Recycler per length:
// two caches of different geometry, or a table before and after it doubled,
// never trade arrays, so a slice taken for length n is exactly what a fresh
// make([]T, n) would have been.
type ArrayPool[T any] struct {
	// Max is the most slices kept per length.
	Max int

	mu     sync.Mutex
	bySize map[int]*Recycler[[]T]
}

func (p *ArrayPool[T]) pool(n int) *Recycler[[]T] {
	p.mu.Lock()
	defer p.mu.Unlock()
	r := p.bySize[n]
	if r == nil {
		if p.bySize == nil {
			p.bySize = make(map[int]*Recycler[[]T])
		}
		r = &Recycler[[]T]{Max: p.Max}
		p.bySize[n] = r
	}
	return r
}

// Take returns a slice of length n as its last owner left it; ok is false
// when none is kept. An owner whose elements hold slices of their own (an
// MSHR's waiter list) takes this way and resets each element itself, keeping
// what the nested slices grew to.
func (p *ArrayPool[T]) Take(n int) (s []T, ok bool) {
	if n == 0 {
		return nil, false
	}
	return p.pool(n).Take()
}

// Get returns a zeroed slice of length n.
func (p *ArrayPool[T]) Get(n int) []T {
	if s, ok := p.Take(n); ok {
		clear(s)
		return s
	}
	return make([]T, n)
}

// Put hands s back, keyed by its length; the caller keeps no reference to it.
func (p *ArrayPool[T]) Put(s []T) {
	if len(s) > 0 {
		p.pool(len(s)).Put(s)
	}
}
