// Package trace is the simulator-wide trace bus: every timed component —
// the core, both cache levels, the TLB, DRAM and the programmable
// prefetcher — emits typed lifecycle events onto one Bus, and sinks attached
// to the bus observe the merged stream in simulation order. The package
// grew out of the prefetcher-only tracer (it keeps that package's ring
// buffer and event vocabulary) and adds the rest of the machine, a metrics
// registry (metrics.go) and a Chrome trace-event exporter (chrome.go).
//
// Cost discipline: tracing must be free when off. Components hold a *Bus
// that is nil unless a sink was attached, and Emit on a nil bus is a single
// branch; events are plain value structs, so an enabled bus with a
// preallocated sink still allocates nothing per event. The zero-overhead
// property is pinned by TestEmitDisabledZeroAllocs.
package trace

import (
	"fmt"
	"io"

	"eventpf/internal/sim"
)

// Kind classifies trace events. The PF* kinds are the prefetcher lifecycle
// (in rough order); the rest cover the memory system and the core.
type Kind int32

// Trace event kinds. The comment after each kind documents how the
// kind-specific Event fields A, B, C and ID are used.
const (
	PFObserve  Kind = iota // load/fill observation accepted; A=kernel
	PFObsDrop              // observation queue overflow; A=kernel of dropped obs
	PFKernel               // kernel started on a PPU; A=kernel, C=ppu
	PFGenerate             // kernel emitted a prefetch; A=kernel, B=chain tag, C=ppu, ID=request
	PFEnqueue              // request entered the request queue; A=depth after, ID=request
	PFIssue                // request issued into the L1; ID=request
	PFFill                 // prefetched data arrived; A=chain kernel, B=1 real fill/0 resident, ID=request
	PFDrop                 // request dropped; A=reason (DropQueue/DropTLB/DropMSHR), ID=request
	PFFlush                // context-switch flush
	PFUnitFree             // PPU finished and went idle; C=ppu

	CacheMiss     // MSHR allocated; A=cache level, B=MSHR slot, C=1 demand/0 prefetch, ID=line
	CacheFill     // MSHR filled and released; A=cache level, B=MSHR slot, ID=line
	CacheMSHRFull // demand miss queued behind a full MSHR file; A=cache level
	CachePFDrop   // prefetch discarded inside the cache; A=cache level, ID=tag
	DRAMAccess    // bank activity; A=bank, B=row state (RowHit/RowMiss/RowEmpty), Dur=bank busy
	TLBWalk       // page-table walk; A=walker slot, B=1 mapped/0 fault, Dur=walk latency
	CoreStall     // dispatch/retire stall began; A=stall reason (Stall*)
	CoreStallEnd  // the stall reason cleared; A=stall reason

	AdaptiveSwitch     // adaptive controller changed the active arm; A=from arm, B=to arm, C=reason (Switch*)
	AdaptiveIdleDemote // adaptive controller demoted its blind pf arm; A=that arm, B=the interval's demand accesses

	// CoreDispatch is one micro-op entering the core's window, the feed the
	// trace-capture sink (internal/tracein) records: ID=dynamic op id,
	// A=cpu.OpKind, B=PC, C bit0=branch taken, Dur=the two dependence
	// distances (id minus producer id, 0 = none) packed as uint32 halves.
	// It is emitted on the core's dedicated OpBus, never the machine bus,
	// so ordinary -trace-out exports are not flooded with per-op events.
	CoreDispatch
)

// AdaptiveSwitch reasons (Event.C).
const (
	SwitchSweep   int32 = iota // trialling arms, at start or after an idle demotion
	SwitchExploit              // the best-reward arm takes over
)

// PFDrop reasons (Event.A).
const (
	DropQueue int32 = iota // request-queue overflow
	DropTLB                // page-table miss during translation
	DropMSHR               // no free L1 MSHR
)

// DRAMAccess row states (Event.B).
const (
	RowHit int32 = iota
	RowMiss
	RowEmpty
)

// CoreStall reasons (Event.A).
const (
	StallLQ       int32 = iota // load-queue full at dispatch
	StallSQ                    // store-queue full at dispatch
	StallRedirect              // branch mispredict redirect
	StallRetire                // retirement blocked on an incomplete memory op
)

var kindNames = [...]string{
	PFObserve: "observe", PFObsDrop: "obs-drop", PFKernel: "kernel",
	PFGenerate: "generate", PFEnqueue: "enqueue", PFIssue: "issue",
	PFFill: "fill", PFDrop: "drop", PFFlush: "flush", PFUnitFree: "unit-free",
	CacheMiss: "cache-miss", CacheFill: "cache-fill",
	CacheMSHRFull: "mshr-full", CachePFDrop: "cache-pf-drop",
	DRAMAccess: "dram", TLBWalk: "tlb-walk",
	CoreStall: "core-stall", CoreStallEnd: "core-stall-end",
	AdaptiveSwitch: "adapt-switch", AdaptiveIdleDemote: "adapt-idle-demote",
	CoreDispatch: "dispatch",
}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one component lifecycle event. Only At, Kind and Addr are
// universal; A, B, C and ID are kind-specific (see the Kind constants), with
// -1 meaning "not applicable". Dur is nonzero only for span-shaped events
// (DRAMAccess, TLBWalk) whose extent is known at emission time.
type Event struct {
	At   sim.Ticks
	Dur  sim.Ticks
	Addr uint64
	ID   int64
	Kind Kind
	A    int32
	B    int32
	C    int32
}

func (e Event) String() string {
	switch e.Kind {
	case PFObserve, PFObsDrop:
		return fmt.Sprintf("%12d %-9s addr=%#x kernel=%d ppu=%d", e.At, e.Kind, e.Addr, e.A, e.C)
	case PFKernel:
		return fmt.Sprintf("%12d %-9s addr=%#x kernel=%d ppu=%d", e.At, e.Kind, e.Addr, e.A, e.C)
	case PFGenerate:
		return fmt.Sprintf("%12d %-9s addr=%#x kernel=%d tag=%d ppu=%d id=%d", e.At, e.Kind, e.Addr, e.A, e.B, e.C, e.ID)
	case PFEnqueue, PFIssue, PFFill, PFDrop:
		return fmt.Sprintf("%12d %-9s addr=%#x id=%d a=%d b=%d", e.At, e.Kind, e.Addr, e.ID, e.A, e.B)
	case DRAMAccess:
		return fmt.Sprintf("%12d %-9s line=%#x bank=%d row=%d dur=%d", e.At, e.Kind, e.Addr, e.A, e.B, e.Dur)
	case TLBWalk:
		return fmt.Sprintf("%12d %-9s page=%#x walker=%d ok=%d dur=%d", e.At, e.Kind, e.Addr, e.A, e.B, e.Dur)
	default:
		return fmt.Sprintf("%12d %-9s addr=%#x a=%d b=%d c=%d id=%d", e.At, e.Kind, e.Addr, e.A, e.B, e.C, e.ID)
	}
}

// Sink receives events. Implementations must be cheap: they run inline with
// the simulation, on the simulation's goroutine.
type Sink interface {
	Event(Event)
}

// Bus fans component events out to its sinks. A nil *Bus is the disabled
// bus: Emit on it is a single branch, so components can hold a possibly-nil
// bus and emit unconditionally.
type Bus struct {
	sinks []Sink
}

// NewBus builds a bus delivering to the given sinks.
func NewBus(sinks ...Sink) *Bus {
	return &Bus{sinks: sinks}
}

// Attach adds a sink to the bus.
func (b *Bus) Attach(s Sink) { b.sinks = append(b.sinks, s) }

// Emit delivers e to every sink; nil-safe and allocation-free.
func (b *Bus) Emit(e Event) {
	if b == nil {
		return
	}
	for _, s := range b.sinks {
		s.Event(e)
	}
}

// Ring keeps the most recent N events — the usual way to look at "what was
// the machine doing just before things went wrong".
type Ring struct {
	buf  []Event
	next int
	full bool
}

// NewRing creates a sink holding the last n events.
func NewRing(n int) *Ring { return &Ring{buf: make([]Event, n)} }

// Event implements Sink.
func (r *Ring) Event(e Event) {
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Dump writes the retained events to w.
func (r *Ring) Dump(w io.Writer) {
	for _, e := range r.Events() {
		fmt.Fprintln(w, e)
	}
}

// Collector retains every event, for exporters that need the full run
// (chrome.go). Appends amortise; for long runs prefer a Ring.
type Collector struct {
	events []Event
}

// NewCollector builds an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Event implements Sink.
func (c *Collector) Event(e Event) { c.events = append(c.events, e) }

// Events returns everything collected, in emission order.
func (c *Collector) Events() []Event { return c.events }
