// Package sim provides the discrete-event simulation engine shared by every
// timed component in the system: the main core, the cache hierarchy, DRAM,
// and the programmable prefetcher.
//
// Time is kept as an integer number of ticks. One tick is 62.5 ps, chosen so
// that every clock frequency used in the paper's evaluation divides evenly:
// the 3.2 GHz main core has a 5-tick period, the 1 GHz PPUs 16 ticks, the
// 800 MHz DDR3 bus 20 ticks, and the PPU sweep frequencies from 125 MHz
// (128 ticks) to 4 GHz (4 ticks) are all exact.
package sim

import "math/bits"

// Ticks is a point in (or span of) simulated time. One tick is 62.5 ps.
type Ticks = int64

// TicksPerNs is the number of ticks in one nanosecond.
const TicksPerNs = 16

// Clock describes a clock domain by its period in ticks.
type Clock struct {
	// Period is the length of one cycle in ticks. It must be positive.
	Period Ticks
}

// ClockFromMHz builds a Clock for the given frequency in MHz. The frequency
// must divide 16 GHz so that the period is a whole number of ticks; every
// frequency in the paper does.
func ClockFromMHz(mhz int) Clock {
	const tickRateMHz = 16000 // 16 ticks/ns = 16 GHz tick rate
	if mhz <= 0 || tickRateMHz%mhz != 0 {
		panic("sim: frequency must be a positive divisor of 16 GHz")
	}
	return Clock{Period: Ticks(tickRateMHz / mhz)}
}

// Cycles converts a cycle count in this domain to ticks.
func (c Clock) Cycles(n int64) Ticks { return n * c.Period }

// ToCycles converts a tick span to whole cycles in this domain, rounding up.
func (c Clock) ToCycles(t Ticks) int64 { return (t + c.Period - 1) / c.Period }

// NextEdge returns the first clock edge at or after time t.
func (c Clock) NextEdge(t Ticks) Ticks {
	r := t % c.Period
	if r == 0 {
		return t
	}
	return t + c.Period - r
}

// Handler is the closure-free event target: the steady-state scheduling path
// carries a Handler plus two payload words instead of a heap-allocated
// closure. Implementations are typically two-word adapter structs embedded by
// value in a component, so taking their address converts to Handler without
// allocating, and the payload words name a pool slot, a queue entry, an
// address, or an id — whatever the handler needs to find its state.
//
// The same interface doubles as the memory system's completion callback type
// (mem.Request routes completions through it), so one mechanism covers both
// "run this later" and "tell me when this finishes".
type Handler interface {
	// Handle runs the event. at is the firing time (the engine's Now for
	// scheduled events, the completion time for request completions); a and b
	// carry payload whose meaning the handler defines.
	Handle(at Ticks, a, b uint64)
}

type event struct {
	at   Ticks
	seq  uint64 // tie-break so simultaneous events run in schedule order
	a, b uint64 // handler payload
	h    Handler
}

// before is the overflow heap's ordering: earliest time first, schedule
// order within a tick. (at, seq) is a total order, so the pop sequence is
// unique and any correct queue yields bit-identical simulations.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a concrete binary min-heap over a reusable backing slice. It
// is the engine's overflow: only events scheduled a whole wheel span or more
// ahead live here (see Engine). It deliberately avoids the standard library's
// heap package: the interface{} boxing there costs one allocation per Push
// and per Pop. Here push appends into retained capacity and pop shrinks the
// length, so steady-state operation allocates nothing.
//
// Sifting moves events into a hole instead of swapping, and compares them in
// place through pointers: a 48-byte event copied to the stack goes through
// 16-byte moves on a stack Go aligns to only 8, and those stall when they
// straddle a cache line — which made the whole simulator's speed depend on
// the frame sizes of whoever called Engine.Run.
type eventQueue struct {
	ev []event
}

func (q *eventQueue) len() int { return len(q.ev) }

func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	ev := q.ev
	i := len(ev) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&ev[p]) {
			break
		}
		ev[i] = ev[p]
		i = p
	}
	ev[i] = e
}

func (q *eventQueue) pop() event {
	ev := q.ev
	top := ev[0]
	n := len(ev) - 1
	last := ev[n]
	ev[n] = event{} // release the handler so finished events can be GC'd
	q.ev = ev[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && ev[r].before(&ev[c]) {
			c = r
		}
		if !ev[c].before(&last) {
			break
		}
		ev[i] = ev[c]
		i = c
	}
	ev[i] = last
	return top
}

// wheelSpan is the number of consecutive ticks the timing wheel covers, one
// slot a tick. It is sized from the distances t − now that Schedule is called
// with, counted over the twenty ppf-detail pairs of the benchmark (8 Table-2
// benches × manual, 4 × converted and pragma, 2 × manual-blocked, 2 ×
// adaptive; 9.36 M calls at scale 0.022), cumulatively:
//
//	< 16 ticks   72.4 %
//	< 256        96.4 %
//	< 2048       99.88 %
//	< 4096       99.997 %
//	< 8192       13 more calls (page walks, at most 4 in any one pair)
//	≥ 8192       244 calls, all the adaptive unit's interval timer
//
// so at 4096 the overflow heap sees a few events a run, for 32 KiB of slot
// heads per engine. The queue was 8–127 deep at 89 % of those calls.
const (
	wheelSpan = 4096
	wheelMask = wheelSpan - 1
)

// wheelNode is one pending near event: a pooled FIFO link in the slab.
// Released nodes hold a nil handler, which both lets finished events be
// collected and marks the node free for CopyFrom.
type wheelNode struct {
	at   Ticks
	a, b uint64
	h    Handler
	next int32 // next node in the slot's FIFO, or in the free list; -1 ends it
}

// wheelSlot is the FIFO of events due at one instant. Its fields are
// meaningful only while the slot's occupancy bit is set.
type wheelSlot struct{ head, tail int32 }

// Engine is a single-threaded discrete-event scheduler. Events scheduled for
// the same tick run in the order they were scheduled, which keeps runs
// deterministic. An Engine (and the Machine built around it) is confined to
// one goroutine; the harness runs many engines in parallel, never one engine
// from two goroutines.
//
// The queue is a timing wheel with a heap behind it. An event due less than
// wheelSpan ticks ahead is appended to slot at&wheelMask; anything further
// goes to the overflow heap. Every live wheel event satisfies
// now ≤ at < now+wheelSpan (now only grows, and never past a pending event),
// so a slot holds events of exactly one instant, in schedule order, and the
// first occupied slot at or cyclically after now&wheelMask is the wheel's
// earliest. Step takes the earlier of that and the heap's top, the heap
// winning a tie: an overflow event for instant T was scheduled while
// T − now ≥ wheelSpan, a wheel event for T while T − now < wheelSpan, so
// later in time and therefore in sequence. The firing order is thus exactly
// (at, seq).
type Engine struct {
	now Ticks
	seq uint64

	nodes []wheelNode // slab; indices are stable, so links survive growth
	free  int32       // head of the free list through nodes[].next, -1 if none
	near  int         // events on the wheel
	slots [wheelSpan]wheelSlot
	occ   [wheelSpan / 64]uint64 // bit s: slot s is non-empty
	sum   uint64                 // bit w: occ[w] != 0

	far eventQueue // overflow: events scheduled ≥ wheelSpan ticks ahead

	// owned lists the handler adapters of the machine built on this engine,
	// in construction order; a fork pairs them by position (see Own).
	owned []Handler
}

// NewEngine returns an engine with the clock at tick zero.
func NewEngine() *Engine { return &Engine{free: -1} }

// Now returns the current simulated time.
func (e *Engine) Now() Ticks { return e.now }

// Schedule arranges for h.Handle(t, a, b) to run at time t. This is the
// allocation-free path: the event carries the handler and payload words
// directly, so steady-state scheduling touches no heap. Scheduling in the
// past panics: it would silently corrupt causality.
func (e *Engine) Schedule(t Ticks, h Handler, a, b uint64) {
	if t < e.now {
		panic("sim: event scheduled in the past")
	}
	e.seq++
	if t-e.now >= wheelSpan {
		e.far.push(event{at: t, seq: e.seq, a: a, b: b, h: h})
		return
	}
	i := e.free
	if i >= 0 {
		e.free = e.nodes[i].next
	} else {
		i = int32(len(e.nodes))
		e.nodes = append(e.nodes, wheelNode{})
	}
	nd := &e.nodes[i]
	nd.at, nd.a, nd.b, nd.h, nd.next = t, a, b, h, -1
	s := int(t & wheelMask)
	sl := &e.slots[s]
	w, bit := s>>6, uint64(1)<<(s&63)
	if e.occ[w]&bit == 0 {
		e.occ[w] |= bit
		e.sum |= 1 << w
		sl.head = i
	} else {
		e.nodes[sl.tail].next = i
	}
	sl.tail = i
	e.near++
}

// ScheduleAfter is Schedule at d ticks from now.
func (e *Engine) ScheduleAfter(d Ticks, h Handler, a, b uint64) {
	e.Schedule(e.now+d, h, a, b)
}

// Pending reports how many events are waiting to run.
func (e *Engine) Pending() int { return e.near + e.far.len() }

// firstSlot returns the first occupied wheel slot at or cyclically after the
// cursor now&wheelMask. The wheel must not be empty.
func (e *Engine) firstSlot() int {
	p := int(e.now & wheelMask)
	w := p >> 6
	if m := e.occ[w] >> (p & 63); m != 0 {
		return p + bits.TrailingZeros64(m)
	}
	// Words after the cursor's, else wrap to the lowest occupied word —
	// which may be the cursor's own, for its bits below the cursor.
	m := e.sum &^ (1<<(w+1) - 1)
	if m == 0 {
		m = e.sum
	}
	w = bits.TrailingZeros64(m)
	return w<<6 + bits.TrailingZeros64(e.occ[w])
}

// next locates the earliest pending event: its time and the wheel slot it
// heads, or slot −1 if it is the overflow heap's top. ok is false when
// nothing is pending.
func (e *Engine) next() (at Ticks, slot int, ok bool) {
	if e.near == 0 {
		if e.far.len() == 0 {
			return 0, 0, false
		}
		return e.far.ev[0].at, -1, true
	}
	slot = e.firstSlot()
	at = e.nodes[e.slots[slot].head].at
	if e.far.len() > 0 && e.far.ev[0].at <= at {
		return e.far.ev[0].at, -1, true
	}
	return at, slot, true
}

// NextAt returns the time of the earliest pending event; ok is false when
// none is pending. A component that would otherwise poll every cycle uses it
// to find the first moment anything outside itself can change.
func (e *Engine) NextAt() (at Ticks, ok bool) {
	at, _, ok = e.next()
	return at, ok
}

// Step runs the next event, returning false if the queue is empty.
func (e *Engine) Step() bool {
	at, slot, ok := e.next()
	if ok {
		e.fire(at, slot)
	}
	return ok
}

// fire removes the event next() located and runs it.
func (e *Engine) fire(at Ticks, slot int) {
	e.now = at
	if slot < 0 {
		ev := e.far.pop()
		ev.h.Handle(at, ev.a, ev.b)
		return
	}
	sl := &e.slots[slot]
	i := sl.head
	nd := &e.nodes[i]
	a, b, h := nd.a, nd.b, nd.h
	if nd.next >= 0 {
		sl.head = nd.next
	} else {
		w := slot >> 6
		e.occ[w] &^= 1 << (slot & 63)
		if e.occ[w] == 0 {
			e.sum &^= 1 << w
		}
	}
	nd.h = nil
	nd.next = e.free
	e.free = i
	e.near--
	h.Handle(at, a, b)
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
func (e *Engine) RunUntil(t Ticks) {
	for at, slot, ok := e.next(); ok && at <= t; at, slot, ok = e.next() {
		e.fire(at, slot)
	}
	if e.now < t {
		e.now = t
	}
}
