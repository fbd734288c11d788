// Package system assembles the complete simulated machine of Table 1: the
// out-of-order core, two cache levels, TLB, DDR3 DRAM, and exactly one of
// the prefetching schemes under comparison (none, stride, GHB Markov, or
// the programmable prefetcher). It also implements the ir.ConfigSink that
// routes configuration instructions dispatched on the core into the
// programmable prefetcher's filter table and global registers.
package system

import (
	"fmt"

	"eventpf/internal/adaptive"
	"eventpf/internal/baseline"
	"eventpf/internal/cpu"
	"eventpf/internal/ir"
	"eventpf/internal/mem"
	"eventpf/internal/ppu"
	"eventpf/internal/prefetch"
	"eventpf/internal/sim"
	"eventpf/internal/trace"
)

// Config collects every sizing knob of the simulated machine. The zero
// value is not usable; start from DefaultConfig.
type Config struct {
	CoreMHz            int
	Width, ROB, LQ, SQ int
	MispredictPenalty  int64

	L1, L2 mem.CacheConfig
	TLB    mem.TLBConfig
	DRAM   mem.DRAMConfig

	Prefetcher prefetch.Config
	Stride     baseline.StrideConfig
	GHB        baseline.GHBConfig
	RPT        baseline.RPTConfig
	Delta      baseline.DeltaConfig
	TSKID      baseline.TSKIDConfig

	// ContextSwitchTicks, if positive, flushes the programmable prefetcher
	// on this period, modelling context switches (§5.3).
	ContextSwitchTicks sim.Ticks
}

// DefaultConfig reproduces Table 1.
func DefaultConfig() Config {
	return Config{
		CoreMHz: 3200, Width: 3, ROB: 40, LQ: 16, SQ: 32,
		MispredictPenalty: 12,
		L1:                mem.CacheConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 2, HitCycles: 2, MSHRs: 12},
		L2:                mem.CacheConfig{Name: "L2", SizeBytes: 1 << 20, Ways: 16, HitCycles: 12, MSHRs: 16},
		TLB:               mem.DefaultTLBConfig(),
		DRAM:              mem.DefaultDRAMConfig(),
		Prefetcher:        prefetch.DefaultConfig(),
		Stride:            baseline.DefaultStrideConfig(),
		GHB:               baseline.RegularGHBConfig(),
		RPT:               baseline.DefaultRPTConfig(),
		Delta:             baseline.DefaultDeltaConfig(),
		TSKID:             baseline.DefaultTSKIDConfig(),
	}
}

// Machine is one assembled simulation instance. Build the workload's data
// through Arena/Backing, install kernels with RegisterKernel, then Run.
type Machine struct {
	Scheme  Scheme
	Cfg     Config
	Eng     *sim.Engine
	Backing *mem.Backing
	Arena   *mem.Arena
	L1      *mem.Cache
	L2      *mem.Cache
	DRAM    *mem.DRAM
	TLB     *mem.TLB
	Core    *cpu.Core
	PF      *prefetch.Prefetcher // nil unless the scheme is programmable
	// Baseline is the scheme's hardware prefetch unit (nil for no-pf and the
	// programmable scheme).
	Baseline baseline.Unit

	// Counter is the shared dynamic micro-op counter for interpreters
	// feeding this machine's core.
	Counter *int64

	glue     *portGlue
	ctxH     ctxSwitchHandler
	metrics  *trace.Registry // set by AttachMetrics
	stream   cpu.Stream
	coreDone bool
	runDone  bool
	released bool
}

// ctxSwitchHandler fires the periodic context-switch flush (§5.3) and
// re-arms itself. A typed handler the engine owns rather than a recursive
// closure, so the pending flush event survives a machine fork.
type ctxSwitchHandler struct{ m *Machine }

// Handle implements sim.Handler.
func (h ctxSwitchHandler) Handle(sim.Ticks, uint64, uint64) {
	m := h.m
	if m.coreDone {
		return // let the engine drain once the program ends
	}
	m.PF.Flush()
	m.Eng.ScheduleAfter(m.Cfg.ContextSwitchTicks, m.ctxH, 0, 0)
}

// New assembles a machine for the given scheme.
func New(cfg Config, scheme Scheme) *Machine {
	eng := sim.NewEngine()
	bk := mem.NewBacking()
	coreClk := sim.ClockFromMHz(cfg.CoreMHz)

	dram := mem.NewDRAM(eng, cfg.DRAM)
	l2 := mem.NewCache(eng, coreClk, cfg.L2, dram)
	l1 := mem.NewCache(eng, coreClk, cfg.L1, l2)
	tlb := mem.NewTLB(eng, coreClk, cfg.TLB, bk)

	m := &Machine{
		Scheme:  scheme,
		Cfg:     cfg,
		Eng:     eng,
		Backing: bk,
		Arena:   mem.NewArena(bk),
		L1:      l1,
		L2:      l2,
		DRAM:    dram,
		TLB:     tlb,
		Counter: new(int64),
	}

	m.ctxH.m = m
	eng.Own(m.ctxH)

	if !scheme.Valid() {
		panic(fmt.Sprintf("system: New: unknown scheme %d", int(scheme)))
	}
	// The two halves are not exclusive: the adaptive controller hosts the
	// programmable prefetcher as one arm of its menu. A unit is passive: this
	// is where it is attached to the L1's demand stream, replacing the snoop
	// prefetch.New installed (which a machine carrying only the programmable
	// prefetcher keeps).
	row := schemes[scheme]
	if row.programmable {
		m.PF = prefetch.New(eng, cfg.Prefetcher, bk, l1, tlb)
		if cfg.ContextSwitchTicks > 0 {
			eng.ScheduleAfter(cfg.ContextSwitchTicks, m.ctxH, 0, 0)
		}
	}
	switch {
	case scheme == Adaptive:
		m.Baseline = adaptive.New(eng, l1, m.PF, func(name string) baseline.Unit {
			if ctor := units[name]; ctor != nil {
				return ctor(eng, &cfg, l1, tlb)
			}
			return nil
		})
	case row.unit != "":
		m.Baseline = units[row.unit](eng, &cfg, l1, tlb)
	}
	if m.Baseline != nil {
		l1.OnDemandAccess = m.Baseline.Observe
	}

	g := newPortGlue(eng, tlb, l1)
	m.glue = g
	l1.Pool, l2.Pool, dram.Pool = g.pool, g.pool, g.pool
	ports := cpu.Ports{
		Load: func(addr uint64, pc int, h sim.Handler, a uint64) {
			ri := g.recs.Put(loadRec{addr: addr, pc: pc, h: h, a: a})
			tlb.TranslateTo(addr, g.loadH, uint64(ri))
		},
		Store: func(addr uint64, pc int) {
			req := g.pool.Get()
			req.Addr, req.Kind, req.PC = addr, mem.Store, pc
			req.Tag, req.TimedAt = mem.NoTag, -1
			l1.Access(req)
		},
		SWPrefetch: func(addr uint64) {
			tlb.TranslateTo(addr, g.swpfH, addr)
		},
	}
	m.Core = cpu.New(eng, cpu.Config{
		Clock: coreClk, Width: cfg.Width, ROB: cfg.ROB, LQ: cfg.LQ, SQ: cfg.SQ,
		MispredictPenalty: cfg.MispredictPenalty,
	}, ports)
	// A unit that wants host taps (the adaptive controller's reward and
	// end-of-run signals) gets them once the core exists. The structural
	// interface keeps the dependency one-way: this package imports adaptive,
	// never the reverse.
	if hb, ok := m.Baseline.(hostBound); ok {
		hb.BindHost(func() int64 { return m.Core.Stats.Ops }, func() bool { return m.coreDone })
	}
	return m
}

// hostBound is implemented by units that need taps into the host machine
// (currently adaptive.Unit). BindHost also arms the unit's first periodic
// event.
type hostBound interface {
	BindHost(ops func() int64, done func() bool)
}

// portGlue is the allocation-free bridge between the core's memory ports and
// the TLB/L1. It owns the machine-wide request pool and a table of in-flight
// demand loads (the address, PC and completion target that must survive the
// TLB latency); translation events carry table slots.
type portGlue struct {
	eng  *sim.Engine
	tlb  *mem.TLB
	l1   *mem.Cache
	pool *mem.Pool

	recs sim.Slab[loadRec]

	loadH loadTransHandler
	swpfH swpfTransHandler
}

type loadRec struct {
	addr uint64
	pc   int
	h    sim.Handler
	a    uint64
}

// loadRecArrays recycles the load-record tables of released machines.
var loadRecArrays = sim.Recycler[[]loadRec]{Max: 8}

func newPortGlue(eng *sim.Engine, tlb *mem.TLB, l1 *mem.Cache) *portGlue {
	g := &portGlue{eng: eng, tlb: tlb, l1: l1, pool: mem.NewPool()}
	g.recs.Reuse(&loadRecArrays)
	g.loadH.g = g
	g.swpfH.g = g
	eng.Own(g.loadH, g.swpfH)
	return g
}

// loadTransHandler receives a demand load's translation (a = record index)
// and forwards the load into L1.
type loadTransHandler struct{ g *portGlue }

func (h loadTransHandler) Handle(_ sim.Ticks, a, ok uint64) {
	g := h.g
	r := g.recs.Take(int32(a))
	if ok == 0 {
		panic(fmt.Sprintf("system: demand load to unmapped address %#x", r.addr))
	}
	req := g.pool.Get()
	req.Addr, req.Kind, req.PC = r.addr, mem.Load, r.pc
	req.Tag, req.TimedAt = mem.NoTag, -1
	req.Comp, req.CompA = r.h, r.a
	g.l1.Access(req)
}

// swpfTransHandler receives a software prefetch's translation (a = address);
// faulting or MSHR-less prefetches are silently dropped, as in hardware.
type swpfTransHandler struct{ g *portGlue }

func (h swpfTransHandler) Handle(_ sim.Ticks, a, ok uint64) {
	g := h.g
	if ok == 0 || g.l1.FreeMSHRs() == 0 {
		return
	}
	req := g.pool.Get()
	req.Addr, req.Kind, req.PC = a, mem.Prefetch, -1
	req.Tag, req.TimedAt = mem.NoTag, -1
	g.l1.Access(req)
}

// AttachTrace points every timed component at bus. Call before Run; the
// machine must be used from a single goroutine while a bus is attached
// (sinks are not synchronised). With no bus attached, event emission costs
// one branch per site.
func (m *Machine) AttachTrace(bus *trace.Bus) {
	m.L1.Bus, m.L1.Level = bus, 1
	m.L2.Bus, m.L2.Level = bus, 2
	m.DRAM.Bus = bus
	m.TLB.Bus = bus
	m.Core.Bus = bus
	if m.PF != nil {
		m.PF.Bus = bus
	}
	if tb, ok := m.Baseline.(interface{ AttachTrace(*trace.Bus) }); ok {
		tb.AttachTrace(bus)
	}
}

// AttachOpTrace points the core's per-op dispatch feed at bus: one
// trace.CoreDispatch event per dispatched micro-op. This is the capture path
// of the trace front end (internal/tracein); it is deliberately separate
// from AttachTrace so component tracing and op capture compose freely.
// Call before Run.
func (m *Machine) AttachOpTrace(bus *trace.Bus) { m.Core.OpBus = bus }

// AttachMetrics registers the machine's queue-occupancy histograms
// (observation, request and walk queues) with reg. Call before Run.
func (m *Machine) AttachMetrics(reg *trace.Registry) {
	m.metrics = reg
	m.TLB.AttachMetrics(reg)
	if m.PF != nil {
		m.PF.AttachMetrics(reg)
	}
	if mb, ok := m.Baseline.(interface{ AttachMetrics(*trace.Registry) }); ok {
		mb.AttachMetrics(reg)
	}
}

// observer names a per-run observer attached to the machine, or "" if there
// is none. Attachments are not carried over by Fork, so RunPlan will not
// split an observed run into lanes.
func (m *Machine) observer() string {
	switch {
	case m.Core.Bus != nil:
		return "trace sink"
	case m.Core.OpBus != nil:
		return "op-trace sink"
	case m.metrics != nil:
		return "metrics registry"
	case m.PF != nil && m.PF.Bus != nil:
		return "prefetcher trace sink"
	}
	return ""
}

// RegisterKernel installs a PPU kernel (no-op on machines without the
// programmable prefetcher, so benchmark setup code is scheme-agnostic).
func (m *Machine) RegisterKernel(id int, prog []ppu.Instr) {
	if m.PF != nil {
		m.PF.RegisterKernel(id, prog)
	}
}

// Configure implements ir.ConfigSink: configuration instructions dispatched
// by the core program the prefetcher's filter table and global registers.
func (m *Machine) Configure(info ir.CfgInfo, args []uint64) {
	if m.PF == nil {
		return
	}
	switch info.Kind {
	case ir.CfgBounds:
		if len(args) != 2 {
			panic("system: CfgBounds expects [lo, hi]")
		}
		m.PF.SetRange(info.Slot, prefetch.RangeConfig{
			Lo: args[0], Hi: args[1],
			LoadKernel: info.LoadKernel,
			PFKernel:   info.PFKernel,
			EWMAGroup:  info.EWMAGroup,
			Interval:   info.Interval,
			TimedStart: info.TimedStart,
			TimedEnd:   info.TimedEnd,
		})
	case ir.CfgGlobal:
		if len(args) != 1 {
			panic("system: CfgGlobal expects [value]")
		}
		m.PF.SetGlobal(info.GReg, args[0])
	}
}

// NewInterp builds an interpreter for fn wired to this machine's backing
// store, configuration sink and micro-op counter.
func (m *Machine) NewInterp(fn *ir.Fn, args ...uint64) *ir.Interp {
	return ir.NewInterp(fn, m.Backing, m, m.Counter, args...)
}

// Result captures everything the harness reports about one run.
type Result struct {
	Scheme   Scheme
	Core     cpu.Stats
	L1       mem.CacheStats
	L2       mem.CacheStats
	DRAM     mem.DRAMStats
	TLB      mem.TLBStats
	PF       prefetch.Stats
	Activity []float64 // per-PPU awake fractions (programmable only)
	// Lookaheads are the EWMA look-ahead distances at end of run.
	Lookaheads [8]uint64
	Baseline   baseline.IssuerStats
	Ticks      sim.Ticks
	Cycles     int64
	// Sampled, Adaptive, TimeParallel and Fallback are omitted when unset, so
	// exact serial encodings are byte-identical to earlier versions.
	//
	// Sampled is set only on sampled runs (Plan.Sample).
	Sampled *SampledStats `json:",omitempty"`
	// Adaptive is set only for the adaptive scheme.
	Adaptive *adaptive.Stats `json:",omitempty"`
	// TimeParallel is set only on runs that actually sliced (Plan.Slices).
	TimeParallel *TimeParallelStats `json:",omitempty"`
	// Fallback says why RunPlan did not honour part of its Plan (ran
	// serially although slices were asked for, or ignored Slices under
	// sampling). Empty whenever the requested engine ran.
	Fallback string `json:",omitempty"`
}

// Run executes the micro-op stream to completion and returns the collected
// statistics. It is Start + Drain + Finish; callers that want to pause at an
// op boundary (to Fork or checkpoint) use the pieces directly.
func (m *Machine) Run(stream cpu.Stream) Result {
	m.Start(stream)
	m.Drain()
	return m.Finish()
}

func (m *Machine) onCoreDone() { m.runDone = true; m.coreDone = true }

// Start begins executing the micro-op stream on the core without advancing
// simulated time. The stream is retained so a later Fork can clone it (if it
// implements ForkableStream).
func (m *Machine) Start(stream cpu.Stream) {
	m.stream = stream
	m.runDone = false
	m.Core.Run(stream, m.onCoreDone)
}

// Drain runs the engine until no events remain, panicking if the core did
// not finish (a deadlock in the memory system).
func (m *Machine) Drain() {
	m.Eng.Run()
	if !m.runDone {
		panic("system: simulation deadlocked: engine drained before the core finished")
	}
}

// RunUntilOps advances the simulation until the core has retired at least n
// micro-ops (or the run completes). The machine is left between events — a
// consistent point to Fork or digest. Start must have been called.
func (m *Machine) RunUntilOps(n int64) {
	for !m.runDone && m.Core.Stats.Ops < n {
		if !m.Eng.Step() {
			panic("system: simulation deadlocked: engine drained before the core finished")
		}
	}
}

// Done reports whether the started run has completed.
func (m *Machine) Done() bool { return m.runDone }

// Release hands every table the machine sized in New or grew while it ran
// to the pools (sim.Recycler, sim.ArrayPool), for the next machine built in
// the process to take:
//
//   - mem: the functional pages and the page map, both caches' line arrays,
//     MSHR files and request rings, the TLB's L1 and L2 arrays, walk ring and
//     translation table, the DRAM bank array, and the request free list with
//     its requests;
//   - sim: the timing wheel's slot heads, its node slab and the owned-handler
//     list;
//   - cpu: the reorder window and the branch predictor's table;
//   - prefetch: the pending table, queue rings, pump records, kernel registry
//     and filter arrays, and the invocation records;
//   - baseline (the adaptive controller's arms too): prediction tables,
//     history buffers, the Markov index and the issuer rings;
//   - this package: the load-record table.
//
// Each pool keeps at most a fixed number of items (per length, for the
// length-keyed ones; mem's page pool: 64 MiB), so what a process pins is
// bounded. Whoever builds a machine
// calls Release after the machine's last read of memory: harness.Run after
// its oracle check, RunPlan on the machines it does not return. Afterwards a
// functional access (Backing.Read64 or Write64, an L1 or L2 Access) panics
// and the machine cannot be forked, while the engine's clock, Seq and
// Pending, every Stats field and the counters stay readable, and so do
// Finish and Digest. Release is idempotent.
func (m *Machine) Release() {
	if m.released {
		return
	}
	m.released = true
	m.Backing.Release()
	m.L1.Release()
	m.L2.Release()
	m.DRAM.Release()
	m.TLB.Release()
	m.Core.Release()
	if m.PF != nil {
		m.PF.Release()
	}
	if m.Baseline != nil {
		m.Baseline.Release()
	}
	m.glue.recs.Release()
	m.glue.pool.Release()
	m.glue.pool, m.L1.Pool, m.L2.Pool, m.DRAM.Pool = nil, nil, nil, nil
	m.Eng.Release()
}

// Finish finalises statistics and builds the Result for a drained run.
func (m *Machine) Finish() Result {
	m.L1.FinalizeStats()
	m.L2.FinalizeStats()

	r := Result{
		Scheme: m.Scheme,
		Core:   m.Core.Stats,
		L1:     m.L1.Stats,
		L2:     m.L2.Stats,
		DRAM:   m.DRAM.Stats,
		TLB:    m.TLB.Stats,
		Ticks:  m.Core.Stats.FinishTick,
		Cycles: m.Core.Stats.Cycles,
	}
	if m.PF != nil {
		r.PF = m.PF.Stats
		r.Activity = m.PF.ActivityFactors()
		for g := range r.Lookaheads {
			r.Lookaheads[g] = m.PF.Lookahead(g)
		}
	}
	if m.Baseline != nil {
		r.Baseline = m.Baseline.Stats()
	}
	if au, ok := m.Baseline.(*adaptive.Unit); ok {
		cs := au.ControllerStats()
		r.Adaptive = &cs
	}
	return r
}
