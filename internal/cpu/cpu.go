// Package cpu models the main out-of-order core of Table 1 as a
// window-based timing model: micro-ops dispatch in order into a reorder
// buffer, execute when their data dependences resolve (loads going to the
// memory hierarchy), and retire in order. That reproduces the first-order
// behaviour the paper leans on — independent loads overlap up to
// ROB/LQ/MSHR limits while dependent loads serialise (Figure 2) — without
// simulating a full pipeline.
package cpu

import (
	"math/bits"

	"eventpf/internal/sim"
	"eventpf/internal/trace"
)

// OpKind classifies a micro-op.
type OpKind int

// Micro-op kinds.
const (
	OpInt    OpKind = iota // 1-cycle integer ALU op
	OpMul                  // 3-cycle multiply
	OpDiv                  // 12-cycle divide
	OpLoad                 // demand load through the cache hierarchy
	OpStore                // store, retired into a write buffer
	OpSWPf                 // software prefetch instruction
	OpBranch               // conditional branch
	OpConfig               // prefetcher configuration instruction
)

// NoDep marks an unused dependence slot.
const NoDep int64 = -1

// MicroOp is one dynamic instruction. Deps name earlier ops (by dynamic ID,
// assigned in stream order) whose results this op consumes. PC satisfies
// 0 ≤ PC < 2³¹ on every stream this module builds: IR PCs are instruction
// indices and the trace decoders (internal/tracein) deliver nothing else,
// that being what a captured trace's 32-bit field holds; the prefetch units
// read a negative PC as "untracked".
type MicroOp struct {
	Kind  OpKind
	PC    int      // static instruction id (stride prefetcher, branch predictor)
	Addr  uint64   // memory ops and software prefetches
	Deps  [2]int64 // producing op IDs, NoDep if unused
	Taken bool     // branches: resolved direction
	// Do is an OpConfig's side effect, applied at dispatch. It is valid only
	// until the stream's next Fill or Next: a stream may bind one func per
	// stream and keep the op's operands in a slot the next op overwrites.
	// The core's dispatch and the functional warm filter call it before
	// pulling the next op.
	Do func()
}

// Stream supplies micro-ops in program order.
type Stream interface {
	// Next returns the next micro-op, or ok=false at end of program.
	Next() (op MicroOp, ok bool)
}

// Filler is a Stream that writes its next micro-op in place. The core
// dispatches from one slot and has the stream fill it, so on the per-op path
// no MicroOp is returned or passed by value; every stream in this module is
// one, and a plain Stream is adapted once (AsFiller), not per op.
type Filler interface {
	Stream
	// Fill overwrites every field of *op with the next micro-op and returns
	// true, or returns false at end of program, leaving *op unspecified. It
	// yields exactly the sequence Next would.
	Fill(op *MicroOp) bool
}

// AsFiller returns s itself if it fills in place (or is nil), and otherwise
// the one adapter from Next to Fill.
func AsFiller(s Stream) Filler {
	if f, ok := s.(Filler); ok || s == nil {
		return f
	}
	return nextFiller{s}
}

type nextFiller struct{ Stream }

func (n nextFiller) Fill(op *MicroOp) (ok bool) {
	*op, ok = n.Next()
	return ok
}

// Config sizes the core (Table 1 defaults come from the harness package).
type Config struct {
	Clock             sim.Clock
	Width             int   // dispatch/retire width
	ROB               int   // reorder buffer entries
	LQ                int   // load queue entries
	SQ                int   // store queue entries
	MispredictPenalty int64 // cycles of redirect after a mispredicted branch
}

// Ports connect the core to the memory system and prefetch paths.
type Ports struct {
	// Load issues a demand load; h.Handle(at, a, 0) must fire at completion
	// time. The handler-plus-payload shape keeps the per-load path free of
	// closure allocations.
	Load func(addr uint64, pc int, h sim.Handler, a uint64)
	// Store posts a demand store (timing-relevant only for cache state).
	Store func(addr uint64, pc int)
	// SWPrefetch issues a software-prefetch request.
	SWPrefetch func(addr uint64)
}

// Stats describes one finished run.
type Stats struct {
	Ops         int64 // dynamic micro-ops retired
	Loads       int64
	Stores      int64
	Branches    int64
	Mispredicts int64
	SWPrefetch  int64
	FinishTick  sim.Ticks
	Cycles      int64 // FinishTick in core cycles
}

// Add accumulates o — the statistics of a later, separately simulated chunk
// of the same program — into s. Every field is a counter or a duration.
func (s *Stats) Add(o Stats) {
	s.Ops += o.Ops
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.Branches += o.Branches
	s.Mispredicts += o.Mispredicts
	s.SWPrefetch += o.SWPrefetch
	s.FinishTick += o.FinishTick
	s.Cycles += o.Cycles
}

// completionRing is the number of recent op ids whose completion state the
// core remembers, one slot per id modulo the ring. depCompletion trusts a slot
// for ids back to ROB + retiredSlack behind the newest, so New rejects a
// window for which that reach would wrap onto a younger op's slot.
const (
	completionRing = 256
	retiredSlack   = 8
)

type robEntry struct {
	id         int64
	kind       OpKind
	addr       uint64
	pc         int
	deps       [2]int64
	readyAt    sim.Ticks // max of resolved dep completion times and dispatch
	unresolved int       // count of deps whose completion is still unknown
	issued     bool
	mispred    bool      // mispredicted branch: install redirect stall at issue
	waitNext   [2]uint16 // per dep: next link in the producer's wait list (see ringSlot.waitHead)
	completeAt sim.Ticks // -1 until known
}

// Core is the timing model. Create with New, then call Run.
type Core struct {
	eng   *sim.Engine
	cfg   Config
	ports Ports

	stream Filler
	// pendingOp is the slot dispatch works from: the stream fills it, and an
	// op the load or store queue has no room for stays in it (hasPending)
	// until a later tick. Its Do is nil whenever dispatch is not running.
	pendingOp MicroOp
	// rob is a fixed ring buffer of cfg.ROB entries: robHead indexes the
	// oldest entry, robN counts occupancy. Retiring moves the head instead of
	// re-slicing, so the window's backing array lives for the whole run.
	rob []robEntry
	// ring is the completion ring: one slot per recent op id modulo
	// completionRing. Like rob it is taken from a released core and copied
	// beside coreState by a fork.
	ring *[completionRing]ringSlot
	coreState

	tickH     tickHandler
	launchH   launchHandler
	loadDoneH loadDoneHandler
	storeH    storeHandler
	swpfH     swpfHandler

	onDone func()
	bp     branchPredictor

	// Bus, if set, receives CoreStall/CoreStallEnd events. Emission is
	// transition-gated (stallActive) so a stall spanning many ticks costs
	// two events, not one per tick, and a nil bus costs one branch.
	Bus         *trace.Bus
	stallActive [4]bool

	// OpBus, if set, receives one CoreDispatch event per dispatched micro-op
	// — the trace-capture feed (internal/tracein). It is separate from Bus so
	// that attaching an ordinary tracer never pays for, or sees, the per-op
	// stream; with no capture attached the cost is one branch per dispatch.
	OpBus *trace.Bus
}

// ringSlot is what the core remembers of the op whose id falls in its slot of
// the completion ring.
type ringSlot struct {
	completion sim.Ticks
	// waitHead heads the list of window entries waiting for the op to
	// complete. A link names one dependence of one waiter: 1 + 2×(the
	// waiter's index in rob) + (which of its two deps), 0 ending the list;
	// the chain runs through robEntry.waitNext. recordCompletion walks the
	// list once and empties it, so every list is empty again by the time its
	// producer retires.
	waitHead uint16
	known    bool // completion is valid
}

// coreState is the core's scalar execution state: everything a fork copies by
// one assignment (the window, the completion ring, the parked op and the
// predictor table are copied beside it). It must stay free of pointers,
// slices, maps, funcs and interfaces — a reflection test checks — so a new
// field is forked without being listed and can never alias the parent.
type coreState struct {
	hasPending bool // pendingOp is valid
	nextID     int64
	robHead    int
	robN       int
	// ready has one bit per ring slot, set for an unissued window entry all
	// of whose dependences are recorded: exactly the ops the next full tick
	// issues. resolveAndIssue leaves it zero.
	ready      [completionRing / 64]uint64
	inflightLd int
	inflightSt int
	// unissuedN counts window entries with issued == false. It lets the
	// scheduler decide "can anything issue before the next load completion?"
	// without scanning the window every cycle.
	unissuedN int
	// dirty is set whenever window state changes between ticks in a way a
	// tick could act on — an op dispatched, or a completion recorded — and
	// cleared at the start of every full tick. While clear (and dispatch is
	// provably a no-op), a tick cannot retire, issue or dispatch anything,
	// so it can skip straight to scheduling its successor (see idleTick).
	dirty bool

	stallUntil      sim.Ticks // branch redirect: no dispatch before this
	redirectPending bool      // a mispredicted branch has not yet resolved
	tickPending     bool
	done            bool

	Stats Stats
}

// depDistMax caps a recorded dependence distance at what fits a uint32 half
// of Event.Dur. Any distance beyond the window (see depCompletion) resolves
// as "already retired", so clamping far-back producers is timing-neutral.
const depDistMax = 1<<31 - 1

// packDeps encodes a dispatched op's two dependence distances (id minus
// producer id, 0 for NoDep) into one word, low half Deps[0], high half
// Deps[1].
func packDeps(id int64, deps [2]int64) uint64 {
	var packed uint64
	for i, d := range deps {
		if d == NoDep {
			continue
		}
		rel := id - d
		if rel > depDistMax {
			rel = depDistMax
		}
		packed |= uint64(rel) << (32 * i)
	}
	return packed
}

// setStall emits a CoreStall/CoreStallEnd pair boundary when the given
// stall reason changes state; purely observational, never affects timing.
func (c *Core) setStall(reason int32, on bool) {
	if c.Bus == nil || c.stallActive[reason] == on {
		return
	}
	c.stallActive[reason] = on
	kind := trace.CoreStall
	if !on {
		kind = trace.CoreStallEnd
	}
	c.Bus.Emit(trace.Event{At: c.eng.Now(), Kind: kind, A: reason})
}

// New builds a core.
func New(eng *sim.Engine, cfg Config, ports Ports) *Core {
	if cfg.Width <= 0 || cfg.ROB <= 0 || cfg.ROB+retiredSlack > completionRing {
		panic("cpu: invalid core configuration")
	}
	c := &Core{eng: eng, cfg: cfg, ports: ports}
	c.rob = robArrays.Get(cfg.ROB)
	if t, ok := ringTables.Take(); ok {
		*t = [completionRing]ringSlot{}
		c.ring = t
	} else {
		c.ring = new([completionRing]ringSlot)
	}
	c.tickH.c = c
	c.launchH.c = c
	c.loadDoneH.c = c
	c.storeH.c = c
	c.swpfH.c = c
	eng.Own(c.tickH, c.launchH, c.loadDoneH, c.storeH, c.swpfH)
	c.bp.init()
	return c
}

// The core's tables, recycled from a released core to the next one built:
// the window, the completion ring and the predictor's counters. One each per
// machine that runs at once.
var (
	robArrays  = sim.ArrayPool[robEntry]{Max: 8}
	ringTables = sim.Recycler[*[completionRing]ringSlot]{Max: 8}
	bpTables   = sim.ArrayPool[uint8]{Max: 8}
)

// Release hands the core's window, completion ring and predictor table back
// for the next core to take; Stats stay readable. Call it once the core will
// not run again.
func (c *Core) Release() {
	if c.ring == nil {
		return
	}
	robArrays.Put(c.rob)
	ringTables.Put(c.ring)
	bpTables.Put(c.bp.table)
	c.rob, c.ring, c.bp.table = nil, nil, nil
}

// robAt returns the i-th oldest window entry (i < robN).
func (c *Core) robAt(i int) *robEntry {
	p := c.robHead + i
	if p >= len(c.rob) {
		p -= len(c.rob)
	}
	return &c.rob[p]
}

// robTail returns the index in rob the next dispatched entry will occupy.
func (c *Core) robTail() int {
	p := c.robHead + c.robN
	if p >= len(c.rob) {
		p -= len(c.rob)
	}
	return p
}

func (c *Core) robPop() {
	c.robHead++
	if c.robHead == len(c.rob) {
		c.robHead = 0
	}
	c.robN--
}

// tickHandler runs one core cycle; the recurring tick event carries it
// instead of a per-tick method-value closure.
type tickHandler struct{ c *Core }

func (h tickHandler) Handle(sim.Ticks, uint64, uint64) { h.c.tick() }

// launchHandler issues a load whose operands resolved in the future; a is
// the op id, resolved to address/PC through its window entry.
type launchHandler struct{ c *Core }

func (h launchHandler) Handle(_ sim.Ticks, a, _ uint64) { h.c.launchLoad(int64(a)) }

// loadDoneHandler receives a demand-load completion; a is the op id.
type loadDoneHandler struct{ c *Core }

func (h loadDoneHandler) Handle(at sim.Ticks, a, _ uint64) { h.c.loadComplete(int64(a), at) }

// storeHandler posts a retiring store to the memory port; a is the address,
// b the PC.
type storeHandler struct{ c *Core }

func (h storeHandler) Handle(_ sim.Ticks, a, b uint64) { h.c.ports.Store(a, int(int64(b))) }

// swpfHandler posts a software prefetch; a is the address.
type swpfHandler struct{ c *Core }

func (h swpfHandler) Handle(_ sim.Ticks, a, _ uint64) { h.c.ports.SWPrefetch(a) }

// Run begins executing the stream; onDone is called when the last op
// retires. Run must be called before the engine runs.
func (c *Core) Run(s Stream, onDone func()) {
	c.stream = AsFiller(s)
	c.onDone = onDone
	c.scheduleTick(c.eng.Now())
}

func (c *Core) scheduleTick(at sim.Ticks) {
	if c.tickPending || c.done {
		return
	}
	c.tickPending = true
	c.eng.Schedule(c.cfg.Clock.NextEdge(at), c.tickH, 0, 0)
}

func (c *Core) wake() { c.scheduleTick(c.eng.Now()) }

func (c *Core) depCompletion(id int64) (sim.Ticks, bool) {
	if id == NoDep {
		return 0, true
	}
	// Anything older than the window is certainly retired.
	if id < c.nextID-int64(c.cfg.ROB)-retiredSlack {
		return 0, true
	}
	if r := &c.ring[id%completionRing]; r.known {
		return r.completion, true
	}
	return 0, false
}

// recordCompletion publishes op id's completion time and wakes the entries
// waiting on it: each has its readyAt raised, and one whose last outstanding
// dependence this was becomes ready to issue.
func (c *Core) recordCompletion(id int64, at sim.Ticks) {
	r := &c.ring[id%completionRing]
	r.completion, r.known = at, true
	c.dirty = true
	for l := r.waitHead; l != 0; {
		e := &c.rob[(l-1)>>1]
		l = e.waitNext[(l-1)&1]
		if at > e.readyAt {
			e.readyAt = at
		}
		if e.unresolved--; e.unresolved == 0 {
			c.markReady(e.id)
		}
	}
	r.waitHead = 0
}

func (c *Core) markReady(id int64) {
	slot := uint(id % completionRing)
	c.ready[slot>>6] |= 1 << (slot & 63)
}

// firstReady returns the ring slot of the oldest ready entry. Window ids are
// consecutive and fewer than the ring has slots, so that is the first set bit
// at or cyclically after the head's slot.
func (c *Core) firstReady(head uint) (slot uint, ok bool) {
	w := head >> 6
	if m := c.ready[w] >> (head & 63); m != 0 {
		return head + uint(bits.TrailingZeros64(m)), true
	}
	// The words after the head's, wrapping round to the head's own word
	// for its bits below the head.
	for i := uint(1); i <= uint(len(c.ready)); i++ {
		w = (head>>6 + i) % uint(len(c.ready))
		if m := c.ready[w]; m != 0 {
			return w<<6 + uint(bits.TrailingZeros64(m)), true
		}
	}
	return 0, false
}

func (c *Core) tick() {
	c.tickPending = false
	now := c.eng.Now()

	if c.idleTick(now) {
		// Nothing to do this cycle, nor on any later cycle until some other
		// event fires: skip the window scans and tick next at the idle
		// horizon. With no horizon nothing can ever wake the core, so it
		// stops ticking; the engine drains and the run driver reports the
		// deadlock.
		if at, ok := c.idleHorizon(now); ok {
			c.scheduleTick(at)
		}
		return
	}
	c.dirty = false

	c.retire(now)
	c.resolveAndIssue(now)
	c.dispatch(now)

	if c.robN == 0 && c.streamDone() {
		c.finish(now)
		return
	}
	c.scheduleNext(now)
}

// idleTick reports whether this tick provably cannot change core state, so
// tick() may skip retire/resolveAndIssue/dispatch and only reschedule. The
// conditions mirror what each stage needs to make progress:
//
//   - retire: the head has no recorded completion (completions only arrive
//     via recordCompletion, which sets dirty);
//   - resolveAndIssue: the previous full tick issued everything resolvable,
//     and nothing was dispatched or completed since (dirty is clear), so
//     every unissued entry still waits on an unrecorded dependency;
//   - dispatch: the stream is gone, the window is full, or dispatch is
//     stalled behind a redirect.
//
// With a tracer (Bus) attached the tick must also have nothing to emit:
// retire and dispatch report stalls through the transition-gated setStall,
// so once the retire stall is flagged and the redirect flag agrees with the
// redirect state, a full tick is silent and the idle one may stand in for it.
func (c *Core) idleTick(now sim.Ticks) bool {
	if c.dirty || c.robN == 0 || c.unissuedN == 0 {
		return false
	}
	if c.robAt(0).completeAt >= 0 {
		return false
	}
	redirect := now < c.stallUntil || c.redirectPending
	if c.Bus != nil && (!c.stallActive[trace.StallRetire] ||
		c.stream != nil && c.stallActive[trace.StallRedirect] != redirect) {
		return false
	}
	return c.stream == nil || c.robN >= c.cfg.ROB || redirect
}

// idleHorizon returns the clock edge an idle core should tick on next: the
// first edge at or after the moment anything can change what a tick would
// do, never sooner than the next cycle. An idle core changes state only when
// some other event fires, so that moment is the engine's next pending event
// — or the end of a redirect stall, when dispatch resumes (and a tracer sees
// the stall end) with no event involved. ok is false when neither lies ahead.
//
// Jumping there is order-preserving, not an approximation. Every event
// already queued was scheduled before the tick this schedules, so one landing
// exactly on a clock edge still runs before that edge's tick, as it would
// ahead of a tick chain kept alive cycle by cycle; and whatever those events
// schedule in turn is scheduled after the tick either way. The ticks skipped
// in between would each have found the core exactly as this one did.
func (c *Core) idleHorizon(now sim.Ticks) (at sim.Ticks, ok bool) {
	at, ok = c.eng.NextAt()
	if c.stream != nil && now < c.stallUntil && (!ok || c.stallUntil < at) {
		at, ok = c.stallUntil, true
	}
	return max(c.cfg.Clock.NextEdge(at), now+c.cfg.Clock.Period), ok
}

func (c *Core) streamDone() bool { return c.stream == nil && !c.hasPending }

func (c *Core) retire(now sim.Ticks) {
	retired := 0
	for retired < c.cfg.Width && c.robN > 0 {
		head := c.robAt(0)
		if head.completeAt < 0 || head.completeAt > now {
			break
		}
		switch head.kind {
		case OpLoad:
			c.inflightLd--
			c.Stats.Loads++
		case OpStore:
			c.inflightSt--
			c.Stats.Stores++
		case OpBranch:
			c.Stats.Branches++
		case OpSWPf:
			c.Stats.SWPrefetch++
		}
		c.Stats.Ops++
		c.Stats.FinishTick = now
		c.robPop()
		retired++
	}
	c.setStall(trace.StallRetire, retired == 0 && c.robN > 0 && c.robAt(0).completeAt < 0)
}

// resolveAndIssue issues every ready entry, oldest first. An op it issues
// that completes at a known time (anything but a load) wakes its consumers on
// the spot; they are younger, so their bits land ahead of the scan and they
// issue in this same pass.
func (c *Core) resolveAndIssue(now sim.Ticks) {
	if c.robN == 0 {
		return
	}
	headID := c.robAt(0).id
	head := uint(headID % completionRing)
	for {
		slot, ok := c.firstReady(head)
		if !ok {
			return
		}
		c.ready[slot>>6] &^= 1 << (slot & 63)
		c.issue(c.robAt(int((slot-head)%completionRing)), now)
	}
}

func (c *Core) issue(e *robEntry, now sim.Ticks) {
	c.unissuedN--
	start := e.readyAt
	if start < now {
		start = now
	}
	cyc := func(n int64) sim.Ticks { return c.cfg.Clock.Cycles(n) }
	switch e.kind {
	case OpInt, OpConfig, OpSWPf, OpStore, OpBranch:
		e.completeAt = start + cyc(1)
	case OpMul:
		e.completeAt = start + cyc(3)
	case OpDiv:
		e.completeAt = start + cyc(12)
	case OpLoad:
		e.issued = true
		e.completeAt = -1
		if start > now {
			c.eng.Schedule(start, c.launchH, uint64(e.id), 0)
		} else {
			c.ports.Load(e.addr, e.pc, c.loadDoneH, uint64(e.id))
		}
		return
	}
	e.issued = true
	c.recordCompletion(e.id, e.completeAt)
	if e.mispred {
		c.stallUntil = e.completeAt + c.cfg.Clock.Cycles(c.cfg.MispredictPenalty)
		c.redirectPending = false
	}
	if e.kind == OpStore && c.ports.Store != nil {
		c.eng.Schedule(e.completeAt, c.storeH, e.addr, uint64(int64(e.pc)))
	}
	if e.kind == OpSWPf && c.ports.SWPrefetch != nil {
		c.eng.Schedule(e.completeAt, c.swpfH, e.addr, 0)
	}
}

// launchLoad fires a delayed load issue: the op cannot retire before its
// load completes, so its address and PC are read back from its window entry.
func (c *Core) launchLoad(id int64) {
	e := c.robAt(int(id - c.rob[c.robHead].id))
	c.ports.Load(e.addr, e.pc, c.loadDoneH, uint64(id))
}

func (c *Core) loadComplete(id int64, at sim.Ticks) {
	c.recordCompletion(id, at)
	// Window ids are consecutive, so the op's slot is a direct offset from
	// the head (out of range means it is no longer in the window).
	if c.robN > 0 {
		if i := id - c.robAt(0).id; i >= 0 && i < int64(c.robN) {
			c.robAt(int(i)).completeAt = at
		}
	}
	c.wake()
}

func (c *Core) dispatch(now sim.Ticks) {
	if c.stream == nil {
		return
	}
	if now < c.stallUntil || c.redirectPending {
		c.setStall(trace.StallRedirect, true)
		return
	}
	c.setStall(trace.StallRedirect, false)
	for n := 0; n < c.cfg.Width; n++ {
		if c.robN >= c.cfg.ROB {
			return
		}
		// An op parked in the slot goes first; otherwise the stream writes
		// its next one there.
		op := &c.pendingOp
		if c.hasPending {
			c.hasPending = false
		} else if !c.stream.Fill(op) {
			op.Do = nil
			c.stream = nil
			return
		}
		switch op.Kind {
		case OpLoad:
			if c.inflightLd >= c.cfg.LQ {
				// No LQ entry: hold the op until one frees at retirement.
				c.setStall(trace.StallLQ, true)
				c.hasPending = true
				return
			}
			c.inflightLd++
			c.setStall(trace.StallLQ, false)
		case OpStore:
			if c.inflightSt >= c.cfg.SQ {
				c.setStall(trace.StallSQ, true)
				c.hasPending = true
				return
			}
			c.inflightSt++
			c.setStall(trace.StallSQ, false)
		case OpConfig:
			if op.Do != nil {
				op.Do()
				op.Do = nil
			}
		}
		id := c.nextID
		c.nextID++
		if c.OpBus != nil {
			var flags int32
			if op.Taken {
				flags = 1
			}
			c.OpBus.Emit(trace.Event{
				At: now, Kind: trace.CoreDispatch, Addr: op.Addr, ID: id,
				A: int32(op.Kind), B: int32(op.PC), C: flags,
				Dur: sim.Ticks(packDeps(id, op.Deps)),
			})
		}
		c.ring[id%completionRing].known = false
		// The window entry is written where it lives, field by field (the
		// dependences one word at a time, as the stream stored them: a
		// 16-byte load of two fresh 8-byte stores stalls the host's pipeline).
		tail := c.robTail()
		e := &c.rob[tail]
		e.id, e.kind, e.addr, e.pc = id, op.Kind, op.Addr, op.PC
		e.issued, e.mispred, e.waitNext, e.completeAt = false, false, [2]uint16{}, -1
		readyAt, unresolved := now, 0
		for i := range e.deps {
			d := op.Deps[i]
			e.deps[i] = d
			if at, ok := c.depCompletion(d); ok {
				if at > readyAt {
					readyAt = at
				}
			} else {
				// The producer is still in the window: wait on its slot.
				unresolved++
				head := &c.ring[d%completionRing].waitHead
				e.waitNext[i] = *head
				*head = uint16(1 + 2*tail + i)
			}
		}
		e.readyAt, e.unresolved = readyAt, unresolved
		c.robN++
		c.unissuedN++
		c.dirty = true
		if unresolved == 0 {
			c.markReady(id)
		}
		if op.Kind == OpBranch {
			if c.bp.predictAndUpdate(op.PC, op.Taken) != op.Taken {
				c.Stats.Mispredicts++
				// Redirect: no further dispatch until the branch resolves
				// plus the front-end refill penalty. The stall is installed
				// when the branch issues (its resolve time is then known).
				e.mispred = true
				c.redirectPending = true
				return
			}
		}
	}
}

func (c *Core) scheduleNext(now sim.Ticks) {
	// Prefer simply ticking next cycle while forward progress is plausible:
	// something retireable, issueable or dispatchable soon.
	next := now + c.cfg.Clock.Period

	if c.robN > 0 {
		head := c.robAt(0)
		if head.completeAt >= 0 {
			// Head has a known completion: tick then (or next cycle if past).
			if head.completeAt > next {
				next = head.completeAt
			}
			c.scheduleTick(next)
			return
		}
		// Head incomplete. If there are unissued ops that may become ready,
		// tick next cycle; if everything issued and waiting on memory, sleep
		// until a load callback wakes us. (With ops unissued the sleep is NOT
		// timing-neutral: a completion landing exactly on a clock edge behind
		// a tick already queued for that edge takes effect a cycle later,
		// where a fresh wake would tick in that very cycle. So a core with
		// unissued ops always keeps a tick queued, and the idle horizon in
		// tick() places it without paying for the cycles in between.)
		if c.unissuedN > 0 {
			c.scheduleTick(next)
			return
		}
		if c.stream != nil && c.robN < c.cfg.ROB && now >= c.stallUntil && !c.redirectPending {
			c.scheduleTick(next)
			return
		}
		if c.stallUntil > now {
			c.scheduleTick(c.stallUntil)
			return
		}
		return // idle: a load completion will wake us
	}
	// ROB empty but stream still has ops (we were stalled): tick again.
	if c.stream != nil {
		if c.stallUntil > next {
			next = c.stallUntil
		}
		c.scheduleTick(next)
	}
}

func (c *Core) finish(now sim.Ticks) {
	c.done = true
	c.Stats.FinishTick = now
	c.Stats.Cycles = int64(now / c.cfg.Clock.Period)
	if c.onDone != nil {
		c.onDone()
	}
}

// branchPredictor is a small gshare predictor: XOR of PC and global history
// indexing a table of 2-bit counters.
type branchPredictor struct {
	history uint32
	table   []uint8
}

const (
	bpBits    = 12
	bpEntries = 1 << bpBits
)

func (b *branchPredictor) init() {
	b.table = bpTables.Get(bpEntries)
	for i := range b.table {
		b.table[i] = 1 // weakly not-taken
	}
}

func (b *branchPredictor) predictAndUpdate(pc int, taken bool) bool {
	idx := (uint32(pc) ^ b.history) & (bpEntries - 1)
	ctr := b.table[idx]
	pred := ctr >= 2
	if taken && ctr < 3 {
		b.table[idx] = ctr + 1
	}
	if !taken && ctr > 0 {
		b.table[idx] = ctr - 1
	}
	b.history = ((b.history << 1) | boolBit(taken)) & (bpEntries - 1)
	return pred
}

func boolBit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Window reports the reorder-buffer occupancy, outstanding loads and the
// completion state of the window head (diagnostics).
func (c *Core) Window() (rob, loads int, headComplete bool, headKind OpKind) {
	if c.robN > 0 {
		head := c.robAt(0)
		headComplete = head.completeAt >= 0
		headKind = head.kind
	}
	return c.robN, c.inflightLd, headComplete, headKind
}
