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

// before is the heap ordering: earliest time first, schedule order within a
// tick. (at, seq) is a total order, so the pop sequence is unique and any
// correct heap yields bit-identical simulations.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is a concrete binary min-heap over a reusable backing slice.
// It deliberately avoids container/heap: the interface{} boxing there costs
// one allocation per Push and per Pop, which dominates the scheduler on the
// simulator's hot path. Here Push appends into retained capacity and Pop
// shrinks the length, so steady-state operation allocates nothing.
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

// Engine is a single-threaded discrete-event scheduler. Events scheduled for
// the same tick run in the order they were scheduled, which keeps runs
// deterministic. An Engine (and the Machine built around it) is confined to
// one goroutine; the harness runs many engines in parallel, never one engine
// from two goroutines.
type Engine struct {
	now   Ticks
	seq   uint64
	queue eventQueue
}

// NewEngine returns an engine with the clock at tick zero.
func NewEngine() *Engine { return &Engine{} }

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
	e.queue.push(event{at: t, seq: e.seq, a: a, b: b, h: h})
}

// ScheduleAfter is Schedule at d ticks from now.
func (e *Engine) ScheduleAfter(d Ticks, h Handler, a, b uint64) {
	e.Schedule(e.now+d, h, a, b)
}

// Pending reports how many events are waiting to run.
func (e *Engine) Pending() int { return e.queue.len() }

// NextAt returns the time of the earliest pending event; ok is false when
// none is pending. A component that would otherwise poll every cycle uses it
// to find the first moment anything outside itself can change.
func (e *Engine) NextAt() (at Ticks, ok bool) {
	if len(e.queue.ev) == 0 {
		return 0, false
	}
	return e.queue.ev[0].at, true
}

// Step runs the next event, returning false if the queue is empty.
func (e *Engine) Step() bool {
	if e.queue.len() == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.at
	ev.h.Handle(ev.at, ev.a, ev.b)
	return true
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
func (e *Engine) RunUntil(t Ticks) {
	for at, ok := e.NextAt(); ok && at <= t; at, ok = e.NextAt() {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}
