package mem

import "sync"

// Memory a finished machine hands back for the next one to take: functional
// pages (Backing.Release), cache line arrays (Cache.Release) and L2-TLB arrays
// (TLB.Release). These pools are the one structure shared across machines,
// and a page or array belongs to exactly one machine from the take that hands
// it out to the Release that returns it. They are sync.Pools, not free lists
// of our own, because the GC drains a sync.Pool: a burst of machines does not
// pin its peak memory for the rest of the process.

// pagePool holds *[wordsPerPage]uint64.
var pagePool sync.Pool

// takePage returns a zeroed page for a Backing to own.
func takePage() *[wordsPerPage]uint64 {
	if p, ok := pagePool.Get().(*[wordsPerPage]uint64); ok {
		clear(p[:])
		return p
	}
	return new([wordsPerPage]uint64)
}

// arrayPool recycles slices of one element type: one sync.Pool per length,
// since caches of two geometries must not trade arrays.
type arrayPool[T any] struct {
	mu     sync.Mutex
	bySize map[int]*sync.Pool
}

func (p *arrayPool[T]) pool(n int) *sync.Pool {
	p.mu.Lock()
	defer p.mu.Unlock()
	sp := p.bySize[n]
	if sp == nil {
		if p.bySize == nil {
			p.bySize = make(map[int]*sync.Pool)
		}
		sp = new(sync.Pool)
		p.bySize[n] = sp
	}
	return sp
}

// get returns a zeroed slice of length n.
func (p *arrayPool[T]) get(n int) []T {
	if s, ok := p.pool(n).Get().(*[]T); ok {
		clear(*s)
		return *s
	}
	return make([]T, n)
}

// put hands s back; the caller keeps no reference to it.
func (p *arrayPool[T]) put(s []T) {
	if len(s) > 0 {
		p.pool(len(s)).Put(&s)
	}
}

var (
	linePool arrayPool[cacheLine]
	tlbPool  arrayPool[tlbEntry]
)
