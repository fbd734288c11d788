// Package harness runs benchmarks under the paper's comparison schemes and
// regenerates every table and figure of the evaluation (§7). It is the glue
// between workloads, the compiler passes and the simulated machine.
package harness

import (
	"fmt"
	"io"

	"eventpf/internal/compiler"
	"eventpf/internal/cpu"
	"eventpf/internal/ir"
	"eventpf/internal/mem"
	"eventpf/internal/sim"
	"eventpf/internal/system"
	"eventpf/internal/trace"
	"eventpf/internal/workloads"
)

// ErrUnsupported reports a benchmark/scheme pair that does not exist, such
// as software prefetching for PageRank (§7.1).
var ErrUnsupported = fmt.Errorf("harness: scheme not applicable to this benchmark")

// Options adjusts a run away from the Table 1 defaults.
type Options struct {
	// Scale multiplies the benchmark's default reduced input size;
	// 0 means 1.0.
	Scale float64
	// PPUs and PPUMHz override the prefetcher sizing (Figure 9); 0 keeps
	// the default 12 units at 1000 MHz.
	PPUs   int
	PPUMHz int
	// Config, if non-nil, replaces the whole machine configuration.
	Config *system.Config
	// TraceLast, if positive, attaches a ring tracer of that size to the
	// programmable prefetcher and returns it in Result.Trace.
	TraceLast int
	// TraceSink, if non-nil, is attached to the machine-wide trace bus and
	// receives typed events from every component (core, caches, TLB, DRAM,
	// prefetcher). The sink runs on the simulation goroutine and belongs to
	// one run: a Suite, which copies its Options into every concurrent run,
	// refuses one (NewSuite).
	TraceSink trace.Sink
	// Metrics, if non-nil, receives the machine's counters and
	// queue-occupancy histograms. Same confinement rule as TraceSink.
	Metrics *trace.Registry
	// OpSink, if non-nil, is attached to the core's dedicated micro-op trace
	// bus and receives one trace.CoreDispatch event per dispatched op — the
	// capture feed for tracein.Writer. If the sink also implements
	// CaptureSink, BeginCapture runs with the machine's memory regions after
	// the benchmark's data is built and before the first op. Same confinement
	// rule as TraceSink.
	OpSink trace.Sink
	// Parallel bounds how many simulations a Suite runs concurrently;
	// 0 means GOMAXPROCS. Run itself is always a single simulation on the
	// calling goroutine — each Machine stays confined to one goroutine.
	Parallel int
	// Sample, if non-nil, runs under SMARTS-style interval sampling: only
	// the configured detailed intervals are simulated in timing detail, the
	// rest executes functionally with cache/TLB/predictor warming. The
	// result's Sampled field reports the whole-program cycle estimate.
	Sample *system.SampleConfig
	// Slices, if above 1, runs time-parallel: the dynamic op stream is cut
	// into that many contiguous slices, each fast-forwarded functionally to
	// its boundary on a forked machine and detail-simulated concurrently
	// (system.Plan). Approximate but deterministic. When Sample is set, a
	// per-run observer is attached (TraceSink, OpSink, Metrics, TraceLast —
	// it would see the first slice only), the stream cannot be forked or the
	// program is too short to slice, the request is not honoured and
	// Result.Fallback says why. 0 or 1 keeps the exact serial engine —
	// results then stay byte-identical to earlier versions.
	Slices int
}

// CaptureSink is an optional extension of trace.Sink for op-trace capture:
// a sink that also wants the machine's memory-region table (to reproduce the
// page map on replay) receives it once per run, after the benchmark builds
// its data and before any op is dispatched. tracein.Writer implements it.
type CaptureSink interface {
	trace.Sink
	BeginCapture(regions []mem.Region)
}

// Result is one benchmark × scheme measurement.
type Result struct {
	Benchmark string
	Scheme    Scheme
	system.Result
	// Pass reports compiler-pass statistics for Pragma/Converted runs.
	Pass *compiler.Result
	// Trace holds the retained prefetcher events when Options.TraceLast > 0.
	Trace *trace.Ring
}

// Run executes one benchmark under one scheme and validates the result
// against the benchmark's oracle. Options.Sample and Options.Slices become a
// system.Plan, executed by the one run driver. The driver returns the
// machine of the final lane — the one that reached end of program and
// carries the state the oracle check needs — so the setup is retargeted at
// it and its stream (after a serial run these are the setup's own).
func Run(b *workloads.Benchmark, scheme Scheme, opt Options) (Result, error) {
	rs, err := prepare(b, scheme, opt)
	if err != nil {
		return Result{}, err
	}
	sys, fm, err := rs.m.RunPlan(rs.stream, system.Plan{Sample: opt.Sample, Slices: opt.Slices})
	if err != nil {
		return Result{}, err
	}
	fs, ok := fm.Stream().(*seq)
	if !ok {
		return Result{}, fmt.Errorf("harness: %s: final lane's stream is %T, not a run sequence", b.Name, fm.Stream())
	}
	rs.m, rs.stream = fm, fs
	return rs.collect(sys)
}

// runSetup is a prepared but not yet completed run: the assembled machine,
// its micro-op stream, and everything the post-run oracle check and result
// assembly need. It is the unit the fork/checkpoint machinery hands around —
// a fork produces a new runSetup over the cloned machine and stream.
type runSetup struct {
	b      *workloads.Benchmark
	scheme Scheme
	m      *system.Machine
	stream *seq
	inst   *workloads.Instance
	tracer *trace.Ring
	pass   *compiler.Result
}

// prepare assembles the machine, applies the scheme's compiler pass or
// manual kernels, and builds the micro-op stream, stopping just short of
// running anything.
func prepare(b *workloads.Benchmark, scheme Scheme, opt Options) (*runSetup, error) {
	if opt.Scale == 0 {
		opt.Scale = 1.0
	}
	info, ok := scheme.Info()
	if !ok {
		return nil, &UnknownSchemeError{Scheme: scheme}
	}
	cfg, err := ConfigFor(opt, scheme)
	if err != nil {
		return nil, err
	}

	m := system.New(cfg, info.Machine)
	inst := b.Build(m, opt.Scale)
	rs := &runSetup{b: b, scheme: scheme, m: m, inst: inst}

	if opt.TraceSink != nil {
		m.AttachTrace(trace.NewBus(opt.TraceSink))
	}
	if opt.TraceLast > 0 && m.PF != nil {
		// The ring keeps prefetcher events only, so it joins the
		// prefetcher's bus, ahead of the machine-wide sink if there is one.
		rs.tracer = trace.NewRing(opt.TraceLast)
		sinks := []trace.Sink{rs.tracer}
		if opt.TraceSink != nil {
			sinks = append(sinks, opt.TraceSink)
		}
		m.PF.Bus = trace.NewBus(sinks...)
	}
	if opt.Metrics != nil {
		m.AttachMetrics(opt.Metrics)
	}
	if opt.OpSink != nil {
		if cs, ok := opt.OpSink.(CaptureSink); ok {
			cs.BeginCapture(m.Arena.Regions())
		}
		m.AttachOpTrace(trace.NewBus(opt.OpSink))
	}

	if inst.StreamFn != nil {
		// A stream-fed instance (trace replay) has no IR: there is nothing
		// for the compiler passes to transform and no address expressions for
		// software prefetching, so only plain-variant, pass-less schemes
		// apply. Manual applicability is decided below, like everywhere else.
		if info.Variant != workloads.Plain || info.Pass != nil {
			return nil, ErrUnsupported
		}
		if err := applyManual(m, info, inst); err != nil {
			return nil, err
		}
		st, err := inst.StreamFn()
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", b.Name, err)
		}
		rs.stream = &seq{m: m, runs: []seqRun{{st: st}}}
		return rs, nil
	}

	fn := inst.BuildFn(info.Variant)
	if fn == nil {
		return nil, ErrUnsupported
	}
	if len(inst.Runs) == 0 {
		// Without this guard the post-run oracle check would dereference a
		// nil final interpreter.
		return nil, fmt.Errorf("harness: %s: benchmark instance has no runs", b.Name)
	}

	if info.Pass != nil {
		pass, err := info.Pass(fn, compiler.NewAlloc())
		if err != nil {
			return nil, fmt.Errorf("%s: %s pass: %w", b.Name, info.PassName, err)
		}
		for id, prog := range pass.Kernels {
			m.RegisterKernel(id, prog)
		}
		rs.pass = pass
	}
	if err := applyManual(m, info, inst); err != nil {
		return nil, err
	}

	rs.stream = &seq{m: m}
	for _, run := range inst.Runs {
		rs.stream.runs = append(rs.stream.runs, seqRun{before: run.Before, st: m.NewInterp(fn, run.Args...)})
	}
	return rs, nil
}

// applyManual installs a benchmark's hand-written PPU kernels for a Manual
// scheme. A benchmark with no hand-written kernels (BTree's descent exceeds a
// single fill-triggered event; replayed traces carry no kernels at all) is
// unsupported on a machine whose only prefetcher is the programmable one —
// but still runs on schemes like adaptive that merely include it as an arm,
// which then simply never switch to an unconfigured programmable prefetcher.
func applyManual(m *system.Machine, info SchemeInfo, inst *workloads.Instance) error {
	if !info.Manual {
		return nil
	}
	if inst.Manual == nil {
		if info.Machine == system.Programmable {
			return ErrUnsupported
		}
		return nil
	}
	inst.Manual(m)
	return nil
}

// collect validates the oracle against the machine that ran and assembles
// the harness Result.
func (rs *runSetup) collect(sys system.Result) (Result, error) {
	res := Result{Benchmark: rs.b.Name, Scheme: rs.scheme, Result: sys,
		Pass: rs.pass, Trace: rs.tracer}
	var ret uint64
	var hasRet bool
	if rs.inst.StreamFn == nil {
		// Stream-fed instances (trace replay) have no interpreter and no
		// return value; their oracle is the decode state, checked below.
		last := rs.stream.lastInterp()
		if last == nil {
			return res, fmt.Errorf("harness: %s: run finished without a final interpreter", rs.b.Name)
		}
		ret, hasRet = last.Result()
	}
	if err := rs.inst.Check(rs.m, ret, hasRet); err != nil {
		return res, fmt.Errorf("%s under %s: oracle mismatch: %w", rs.b.Name, rs.scheme, err)
	}
	// A stream that tracks its own error state (a trace replayer) is
	// consulted directly: under time-parallel slicing the instance's Check
	// closure holds the original stream, which stopped at its slice
	// boundary — the final slice's clone is the one that must have decoded
	// cleanly to end of trace.
	if err := rs.stream.streamErr(); err != nil {
		return res, fmt.Errorf("%s under %s: stream error: %w", rs.b.Name, rs.scheme, err)
	}
	return res, nil
}

// MaxPPUs bounds the PPU count a run may ask for. The paper sweeps 3 to 12
// (Figure 9b); the bound exists so that a count arriving from outside the
// program — a JobSpec, a command line — cannot size the prefetcher's unit
// table without limit.
const MaxPPUs = 256

// tickRateMHz is the engine's tick rate (sim.ClockFromMHz): 16 ticks a
// nanosecond.
const tickRateMHz = 16000

// table1 is the default machine, read (never written) wherever a run's
// configuration is compared with or completed from Table 1.
var table1 = system.DefaultConfig()

// ppuSizing is the one statement of which PPU count and clock a run gets: the
// override when set (Options.PPUs / PPUMHz; a Pair's lands there first,
// pairOptions), then cfg (Options.Config), then Table 1. ConfigFor applies
// the answer and foldSizing keys on it. Every entry point passes through
// here, so this is also where a sizing no machine can be built with is
// refused: a clock that is not a positive divisor of the 16 GHz tick rate, a
// PPU count outside 1..MaxPPUs. A clock no override touches is returned as
// the configuration holds it.
func ppuSizing(ppus, mhz int, cfg *system.Config) (int, sim.Clock, error) {
	if cfg == nil {
		cfg = &table1
	}
	if ppus == 0 {
		ppus = cfg.Prefetcher.NumPPUs
	}
	if ppus < 1 || ppus > MaxPPUs {
		return 0, sim.Clock{}, fmt.Errorf("harness: PPU count %d is outside 1..%d", ppus, MaxPPUs)
	}
	if mhz == 0 {
		return ppus, cfg.Prefetcher.PPUClock, nil
	}
	if mhz < 0 || tickRateMHz%mhz != 0 {
		return 0, sim.Clock{}, fmt.Errorf("harness: PPU clock %d MHz is not a positive divisor of %d MHz (one tick is 1/16 ns)", mhz, tickRateMHz)
	}
	return ppus, sim.ClockFromMHz(mhz), nil
}

// ConfigFor resolves the machine configuration a Run with these options and
// scheme would use (exported so CLIs can derive the trace Layout that
// matches the run). Scheme defaults (ghb-large's big sizing, the blocked
// mode) come from the scheme's Configure hook; a value outside the scheme
// constants is an *UnknownSchemeError, and a PPU sizing no machine can be
// built with (ppuSizing) is an error too.
func ConfigFor(opt Options, scheme Scheme) (system.Config, error) {
	info, ok := scheme.Info()
	if !ok {
		return system.Config{}, &UnknownSchemeError{Scheme: scheme}
	}
	ppus, clock, err := ppuSizing(opt.PPUs, opt.PPUMHz, opt.Config)
	if err != nil {
		return system.Config{}, err
	}
	cfg := table1
	explicit := opt.Config != nil
	if explicit {
		cfg = *opt.Config
	}
	cfg.Prefetcher.NumPPUs, cfg.Prefetcher.PPUClock = ppus, clock
	if info.Configure != nil {
		info.Configure(&cfg, explicit)
	}
	return cfg, nil
}

// LayoutFor describes the traced resources of a run with these options and
// scheme, for the Chrome exporter.
func LayoutFor(opt Options, scheme Scheme) (trace.Layout, error) {
	info, ok := scheme.Info()
	if !ok {
		return trace.Layout{}, &UnknownSchemeError{Scheme: scheme}
	}
	cfg, err := ConfigFor(opt, scheme)
	if err != nil {
		return trace.Layout{}, err
	}
	lay := trace.Layout{
		DRAMBanks:  cfg.DRAM.Banks,
		L1MSHRs:    cfg.L1.MSHRs,
		L2MSHRs:    cfg.L2.MSHRs,
		TLBWalkers: cfg.TLB.Walks,
	}
	if info.Machine.IsProgrammable() {
		lay.PPUs = cfg.Prefetcher.NumPPUs
	}
	return lay, nil
}

// seq concatenates the per-invocation micro-op streams of one run (several
// kernels sharing one dynamic-op counter) and implements
// system.ForkableStream so a machine paused mid-run can be forked. It
// advances by index, keeping every stream reachable for cloning and for the
// post-run oracle check.
type seq struct {
	m    *system.Machine // what the Before callbacks run against
	runs []seqRun
	pos  int
	// cur is runs[pos].st once that run has begun: set when its first
	// micro-op is pulled, after its Before callback.
	cur cpu.Filler
}

// seqRun is one invocation: its stream, and the workload callback (e.g.
// Graph500's parent reset) due when the stream's first micro-op is pulled.
type seqRun struct {
	before func(*system.Machine)
	st     cpu.Stream
}

// Next implements cpu.Stream.
func (s *seq) Next() (op cpu.MicroOp, ok bool) {
	ok = s.Fill(&op)
	return op, ok
}

// Fill implements cpu.Filler.
func (s *seq) Fill(op *cpu.MicroOp) bool {
	for {
		if s.cur != nil {
			if s.cur.Fill(op) {
				return true
			}
			s.cur = nil
			s.pos++
		}
		if s.pos == len(s.runs) {
			return false
		}
		r := s.runs[s.pos]
		if r.before != nil {
			r.before(s.m)
		}
		s.cur = cpu.AsFiller(r.st)
	}
}

// ForkStream implements system.ForkableStream: every stream is cloned at its
// exact position, re-bound to the fork's backing store, config sink and
// micro-op counter, and the callbacks still due will run against the fork.
func (s *seq) ForkStream(f *system.Machine) (cpu.Stream, error) {
	c := &seq{m: f, runs: make([]seqRun, len(s.runs)), pos: s.pos}
	for i, r := range s.runs {
		c.runs[i].before = r.before
		switch st := r.st.(type) {
		case *ir.Interp:
			c.runs[i].st = st.Clone(f.Backing, f, f.Counter)
		case system.StreamCloner:
			// Leaf streams that open a second cursor over their source — a
			// trace replayer re-opening its file.
			cs, err := st.CloneStream(f)
			if err != nil {
				return nil, err
			}
			c.runs[i].st = cs
		default:
			return nil, fmt.Errorf("harness: stream %T does not support forking", st)
		}
	}
	if s.cur != nil {
		c.cur = cpu.AsFiller(c.runs[c.pos].st)
	}
	return c, nil
}

// lastInterp returns the final invocation's interpreter, whose return value
// the oracle check consumes.
func (s *seq) lastInterp() *ir.Interp {
	if len(s.runs) == 0 {
		return nil
	}
	it, _ := s.runs[len(s.runs)-1].st.(*ir.Interp)
	return it
}

// errStream is a stream that latches its own error state (decode failures
// cannot surface through Next); tracein.Replayer implements it.
type errStream interface{ Err() error }

// streamErr returns the first latched error of any member stream.
func (s *seq) streamErr() error {
	for _, r := range s.runs {
		if es, ok := r.st.(errStream); ok {
			if err := es.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close implements io.Closer so the run driver can release a sequence it
// abandons mid-run (a non-final lane's clone): member streams that hold a
// resource — a trace replayer's file — are closed, the rest need nothing.
func (s *seq) Close() error {
	var first error
	for _, r := range s.runs {
		if c, ok := r.st.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Speedup returns base cycles / this run's cycles.
func Speedup(base, run Result) float64 {
	return float64(base.Cycles) / float64(run.Cycles)
}
