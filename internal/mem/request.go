package mem

import "eventpf/internal/sim"

// AccessKind distinguishes request types flowing through the hierarchy.
type AccessKind int

// Request kinds.
const (
	Load      AccessKind = iota // demand read from the core
	Store                       // demand write from the core
	Prefetch                    // prefetch fetch (programmable, stride or GHB)
	Writeback                   // dirty eviction travelling down
)

func (k AccessKind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case Prefetch:
		return "prefetch"
	case Writeback:
		return "writeback"
	}
	return "unknown"
}

// NoTag marks a request that carries no prefetch-kernel tag.
const NoTag = -1

// Request is one memory transaction. Addr is the exact (virtual) byte
// address; caches operate on the containing line.
type Request struct {
	Addr uint64
	Line uint64
	Kind AccessKind

	// PC identifies the static instruction issuing a demand access, used by
	// the stride prefetcher's reference prediction table. -1 if untracked.
	PC int

	// Tag names the data structure a programmable prefetch targets; the
	// prefetcher runs the kernel registered for Tag when the fill arrives
	// (the paper's "memory request tags", §4.7). NoTag if none.
	Tag int

	// TimedAt carries the EWMA chain-start time through a prefetch chain
	// (§4.5); negative when the request is not being timed.
	TimedAt sim.Ticks

	// Comp, the request's completion target, receives Comp.Handle(at, CompA,
	// 0) when the access completes. Nil for posted writes and for prefetches
	// nobody waits on. A typed handler rather than a closure, so completing a
	// request allocates nothing and an in-flight request can be forked.
	Comp  sim.Handler
	CompA uint64
}

// Complete fires the completion target, if any, with the completion time.
func (r *Request) Complete(at sim.Ticks) {
	if r.Comp != nil {
		r.Comp.Handle(at, r.CompA, 0)
	}
}

// Pool is a machine-wide free list of Requests. The engine (and every
// component built on it) is confined to one goroutine, so a plain slice —
// no sync.Pool, no locks — is safe; see DESIGN.md §15 for the ownership
// rules (the level that finishes servicing a request releases it).
//
// All methods are nil-receiver safe: components without a pool attached
// (unit tests building a Cache directly) fall back to plain allocation and
// let the GC collect retired requests, exactly the pre-pool behaviour.
type Pool struct {
	free []*Request
}

// NewPool returns a request pool: a released machine's, with the requests it
// freed, when one is pooled.
func NewPool() *Pool {
	if p, ok := requestPools.Take(); ok {
		return p
	}
	return &Pool{}
}

// Release hands p, with every request on its free list, to the next NewPool.
// Requests still out (parked in a released machine's queues) stay with
// whoever holds them. Call it once nothing will Get from or Put to p again.
func (p *Pool) Release() { requestPools.Put(p) }

// Get returns a zeroed Request. Callers must set every field they need —
// including Kind, PC, Tag and TimedAt — exactly as if they had written a
// struct literal.
func (p *Pool) Get() *Request {
	if p == nil || len(p.free) == 0 {
		return &Request{}
	}
	n := len(p.free) - 1
	r := p.free[n]
	p.free[n] = nil
	p.free = p.free[:n]
	*r = Request{}
	return r
}

// Put recycles a request. The caller must hold the only live reference.
func (p *Pool) Put(r *Request) {
	if p == nil || r == nil {
		return
	}
	r.Comp = nil // drop the reference eagerly
	p.free = append(p.free, r)
}

// Level is anything that can service memory requests: a cache or DRAM.
// Access takes ownership of req: the level (or the level it forwards to)
// releases the request to the machine pool once nothing references it.
type Level interface {
	Access(req *Request)
}
