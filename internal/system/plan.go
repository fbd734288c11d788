package system

import (
	"fmt"
	"io"
	"sync"

	"eventpf/internal/cpu"
)

// Run plans. Every run is a set of lanes, each on its own machine, and every
// lane is a sequence of windows over the program's dynamic op stream: warm
// skip ops functionally (backing store, caches, TLB and predictor updated,
// no simulated time), simulate detail ops in timing detail, then stop or
// warm gap ops and repeat. The three engines are three plan shapes:
//
//	serial        one lane {0, -1, 0}: no wrapper, the exact engine
//	SMARTS sample one lane {0, warm+measure, ff} (Wunderlich et al., ISCA 2003)
//	K slices      K lanes {N·i/K, N·(i+1)/K − start, 0}, the last to end of stream
//
// Lanes are forked at op zero and drained concurrently; their results are
// stitched in lane order. Multi-lane and sampled runs are approximate (each
// window starts with warm caches but an empty core window, idle MSHRs and
// idle DRAM banks) yet deterministic: boundaries are a pure function of the
// plan, warming is deterministic, and forked machines share no mutable
// state, so equal plans give byte-identical results however the goroutines
// are scheduled.

// lane is one machine's share of a run plan, in dynamic micro-ops.
type lane struct {
	skip   int64 // ops warmed functionally before the first detailed window
	detail int64 // ops per detailed window; negative means to end of stream
	gap    int64 // ops warmed between windows; 0 stops after the first window
}

// SampleConfig sizes SMARTS-style sampling intervals, all in dynamic
// micro-ops.
type SampleConfig struct {
	// WarmupOps is the detailed prefix run before each measurement window
	// to refill the core window, MSHRs and prefetcher queues after a
	// fast-forward gap.
	WarmupOps int64
	// MeasureOps is the length of each detailed measurement window.
	MeasureOps int64
	// FFOps is the fast-forward gap between detailed intervals.
	FFOps int64
}

// DefaultSampleConfig returns intervals suited to the harness workloads:
// 10k-op detailed intervals (2k warmup + 8k measured) every 50k ops, i.e. a
// 5x simulation-rate gain at roughly percent-level CPI error.
func DefaultSampleConfig() SampleConfig {
	return SampleConfig{WarmupOps: 2_000, MeasureOps: 8_000, FFOps: 40_000}
}

// SampledStats reports what a sampled run actually simulated.
type SampledStats struct {
	TotalOps    int64 // dynamic ops in the full program
	DetailedOps int64 // ops simulated in timing detail (incl. warmup)
	Intervals   int64 // detailed intervals executed
	// EstimatedCycles extrapolates the detailed-interval CPI to the whole
	// program: Cycles * TotalOps / DetailedOps. Compare against a full
	// run's Cycles to measure sampling error.
	EstimatedCycles int64
}

// MinSliceOps is the smallest detailed window worth forking a machine for:
// below this the per-slice cold-start transient (window refill, first-miss
// overlap) dominates and the parallelism cannot pay for the fork. Slicing
// requests are clamped so every slice has at least this many ops; programs
// shorter than 2*MinSliceOps run serially.
const MinSliceOps = 1024

// TimeParallelStats records what a multi-lane run actually did.
type TimeParallelStats struct {
	// Slices is the effective slice count after clamping.
	Slices int
	// WarmOps[i] counts the ops slice i fast-forwarded functionally.
	WarmOps []int64
	// DetailOps[i] counts the ops slice i simulated in timing detail.
	DetailOps []int64
	// SliceCycles[i] is slice i's detailed core cycles; the stitched
	// Result.Cycles is their sum.
	SliceCycles []int64
}

// Plan requests an engine for one run. The zero value is the exact serial
// engine.
type Plan struct {
	// Sample, if non-nil, asks for interval sampling; it wins over Slices.
	Sample *SampleConfig
	// Slices, if above 1, asks for that many time-parallel slices. Slice
	// boundaries need the program's dynamic op count up front, which RunPlan
	// takes from a fork drained functionally at op zero.
	Slices int
}

var serialLanes = []lane{{detail: -1}}

// lanes resolves the request for a machine with the named per-run observer
// attached ("" for none). why is non-empty when something requested was not
// honoured; it ends up in Result.Fallback. Nil lanes and no error mean the
// run is to be sliced, once sliceLanes has the op count.
func (p Plan) lanes(observer string) (lanes []lane, why string, err error) {
	if c := p.Sample; c != nil {
		if c.MeasureOps <= 0 || c.FFOps <= 0 || c.WarmupOps < 0 {
			return nil, "", fmt.Errorf("system: invalid sample config %+v", *c)
		}
		if p.Slices > 1 {
			why = fmt.Sprintf("slices=%d ignored: sampling is set", p.Slices)
		}
		return []lane{{detail: c.WarmupOps + c.MeasureOps, gap: c.FFOps}}, why, nil
	}
	if p.Slices <= 1 {
		return serialLanes, "", nil
	}
	if observer != "" {
		// Observers stay with the machine they were attached to; a fork
		// starts with none, so every lane but the first would run unseen.
		return serialLanes, fmt.Sprintf("serial: slices=%d ignored: the %s would see only the first slice", p.Slices, observer), nil
	}
	return nil, "", nil
}

// sliceLanes cuts a program of total dynamic ops into the requested number of
// slices, clamped so each holds at least MinSliceOps. A slightly-off count
// only skews the final slice's length (it runs to the true end of the
// stream), never drops or duplicates ops.
func (p Plan) sliceLanes(total int64) (lanes []lane, why string) {
	k := min(int64(p.Slices), total/MinSliceOps)
	if k < 2 {
		return serialLanes, fmt.Sprintf("serial: program has %d ops, slicing needs at least %d", total, 2*MinSliceOps)
	}
	lanes = make([]lane, k)
	for i := range lanes {
		start := total * int64(i) / k
		lanes[i] = lane{skip: start, detail: total*int64(i+1)/k - start}
	}
	lanes[k-1].detail = -1
	return lanes, ""
}

// forkOpCount returns the dynamic op count of the stream m has started, by
// forking m and draining the fork's clone of the stream functionally: no
// events, no timing, and the fork is dropped after. Streams execute at pull
// time, so the count is exact, and the machine was built once.
func (m *Machine) forkOpCount() (int64, error) {
	f, err := m.Fork()
	if err != nil {
		return 0, err
	}
	if f.stream == nil {
		return 0, nil
	}
	defer closeStream(f.stream)
	src := cpu.AsFiller(f.stream)
	var n int64
	var op cpu.MicroOp
	for src.Fill(&op) {
		n++
	}
	return n, nil
}

// RunPlan executes the stream under p and returns the stitched Result plus
// the machine that simulated the final lane — the one holding the complete
// functional execution (backing store, final stream position), which callers
// need for end-of-run oracle checks; its Stream() is m's stream or the clone
// a fork made of it. When p's request cannot be honoured the run is serial
// on m, byte-identical to m.Run(stream) except that Result.Fallback says
// why.
func (m *Machine) RunPlan(stream cpu.Stream, p Plan) (Result, *Machine, error) {
	lanes, why, err := p.lanes(m.observer())
	if err != nil {
		return Result{}, nil, err
	}
	// Fork at op zero: Start has installed the stream but no event has run,
	// so every fork is a byte-exact copy of the initial machine with its
	// own stream clone positioned at op zero. A sliced run forks once more
	// first, to count the ops its slice boundaries are cut from.
	m.Start(stream)
	if lanes == nil {
		total, err := m.forkOpCount()
		if err != nil {
			lanes, why = serialLanes, "serial: "+err.Error()
		} else {
			lanes, why = p.sliceLanes(total)
		}
	}
	machines := append(make([]*Machine, 0, len(lanes)), m)
	for len(machines) < len(lanes) {
		f, err := m.Fork()
		if err != nil {
			for _, fm := range machines[1:] {
				closeStream(fm.stream)
			}
			machines, lanes, why = machines[:1], serialLanes, "serial: "+err.Error()
			break
		}
		machines = append(machines, f)
	}
	if l := lanes[0]; l.skip == 0 && l.detail < 0 {
		m.Drain()
		res := m.Finish()
		res.Fallback = why
		return res, m, nil
	}

	streams := make([]*phaseStream, len(lanes))
	for i, mi := range machines {
		streams[i] = &phaseStream{inner: cpu.AsFiller(mi.stream), lane: lanes[i], left: lanes[i].skip}
		streams[i].init(mi)
		// Only the core sees the wrapper (legal: it has not pulled an op
		// yet); Machine.Stream() stays the caller's own stream type.
		mi.Core.SwapStream(streams[i])
	}
	// Each machine is confined to its goroutine; results are read only
	// after the join.
	var wg sync.WaitGroup
	for _, mi := range machines[1:] {
		wg.Add(1)
		go func(mi *Machine) {
			defer wg.Done()
			mi.Drain()
		}(mi)
	}
	m.Drain()
	wg.Wait()

	last := len(machines) - 1
	results := make([]Result, len(lanes))
	for i, mi := range machines {
		results[i] = mi.Finish()
		if i < last {
			// Every lane but the last stops short of its stream's end
			// and may hold open trace files.
			closeStream(mi.stream)
		}
	}

	out := stitch(results)
	out.Fallback = why
	if len(lanes) > 1 {
		tp := &TimeParallelStats{Slices: len(lanes)}
		for i, s := range streams {
			tp.WarmOps = append(tp.WarmOps, s.pulled-s.outOps)
			tp.DetailOps = append(tp.DetailOps, s.outOps)
			tp.SliceCycles = append(tp.SliceCycles, results[i].Cycles)
		}
		out.TimeParallel = tp
	}
	if s := streams[0]; s.lane.gap > 0 {
		st := &SampledStats{TotalOps: s.pulled, DetailedOps: s.outOps, Intervals: s.windows}
		if st.DetailedOps > 0 {
			st.EstimatedCycles = int64(float64(out.Cycles) * float64(st.TotalOps) / float64(st.DetailedOps))
		}
		out.Sampled = st
	}
	return out, machines[last], nil
}

// stitch composes per-lane results, in lane order, into one whole-program
// Result: Result.Add sums counters and durations (each dynamic op was
// detail-simulated in exactly one lane, and every lane's clock starts at
// zero, so per-lane times are chunk durations) and takes end-of-run gauges
// from the last lane; per-PPU activity fractions average weighted by lane
// duration.
func stitch(results []Result) Result {
	out := results[0]
	if len(results) == 1 {
		return out
	}
	activity := make([]float64, len(out.Activity))
	for i, r := range results {
		for p := range activity {
			activity[p] += r.Activity[p] * float64(r.Ticks)
		}
		if i > 0 {
			out.Add(r)
		}
	}
	for p := range activity {
		activity[p] /= float64(out.Ticks)
	}
	if len(activity) > 0 { // schemes without PPUs keep a nil Activity
		out.Activity = activity
	}
	return out
}

// Add folds next — the result of the lane that ran after r's in program
// order — into r. Counters and durations sum; end-of-run gauges (EWMA
// look-ahead distances, PPU activity, the adaptive controller's final arm
// and sensors) are next's. Sampled, TimeParallel and Fallback describe a
// whole run and are left alone.
func (r *Result) Add(next Result) {
	r.Core.Add(next.Core)
	r.L1.Add(next.L1)
	r.L2.Add(next.L2)
	r.DRAM.Add(next.DRAM)
	r.TLB.Add(next.TLB)
	r.PF.Add(next.PF)
	r.Baseline.Add(next.Baseline)
	r.Ticks += next.Ticks
	r.Cycles += next.Cycles
	r.Activity = next.Activity
	r.Lookaheads = next.Lookaheads
	if r.Adaptive != nil && next.Adaptive != nil {
		sum := r.Adaptive.Add(*next.Adaptive)
		r.Adaptive = &sum
	}
}

// closeStream releases a stream abandoned mid-run (a non-final lane's
// clone): trace replayers hold open file handles that only a clean
// end-of-stream would otherwise close.
func closeStream(s cpu.Stream) {
	if c, ok := s.(io.Closer); ok {
		c.Close() // best effort; the stream is abandoned
	}
}

// depRing sizes the dynamic-id translation window; it only needs to cover
// ids still referenced by in-flight deps, i.e. a little over the ROB size.
const depRing = 4096

// warmFilter is the machinery behind phaseStream: it swallows some
// inner-stream ops (executing them functionally) and passes others to the
// core in timing detail. Two jobs:
//
//   - Dep renumbering. MicroOp.Deps name producer ops by their inner-stream
//     order; the core assigns its own ids to the ops it actually receives.
//     Swallowing ops would desynchronise the two, so deps on pass-through
//     ops are rewritten to core ids via a ring map. A dep on a swallowed (or
//     long-retired) producer maps to NoDep — its result counts as long since
//     available, which is part of the approximation.
//
//   - Functional warming. Swallowed loads/stores touch the TLB and caches
//     (hit/LRU/insert only, no timing), branches train the predictor, and
//     configuration ops apply their side effect so the prefetcher is
//     programmed identically to a full run.
//
// Inner-stream ids are counted locally (pulled): every stream the harness
// feeds a core assigns ids in pull order starting at zero, so the count is
// the id of the next inner op whether the producer is an interpreter (which
// also advances the machine Counter) or a trace replayer (which does not).
type warmFilter struct {
	m      *Machine
	pulled int64 // inner ops pulled so far == inner-stream id of the next op
	outOps int64 // ops delivered to the core == next core-assigned id

	depSrc [depRing]int64 // inner-stream id each slot maps (-1 = empty)
	depMap [depRing]int64 // corresponding core-assigned id
}

func (w *warmFilter) init(m *Machine) {
	w.m = m
	for i := range w.depSrc {
		w.depSrc[i] = -1
	}
}

// deliver renumbers op's deps to core ids and records the mapping for the
// inner-stream id srcID. Call exactly once per op passed through to the core.
func (w *warmFilter) deliver(op *cpu.MicroOp, srcID int64) {
	for i := range op.Deps {
		op.Deps[i] = w.translateDep(op.Deps[i])
	}
	slot := srcID % depRing
	w.depSrc[slot] = srcID
	w.depMap[slot] = w.outOps
	w.outOps++
}

func (w *warmFilter) translateDep(d int64) int64 {
	if d == cpu.NoDep {
		return cpu.NoDep
	}
	slot := d % depRing
	if w.depSrc[slot] == d {
		return w.depMap[slot]
	}
	return cpu.NoDep
}

// warm executes a swallowed op functionally against the machine.
func (w *warmFilter) warm(op *cpu.MicroOp) {
	m := w.m
	switch op.Kind {
	case cpu.OpLoad:
		m.TLB.WarmAccess(op.Addr)
		if !m.L1.WarmAccess(op.Addr, false) {
			m.L2.WarmAccess(op.Addr, false)
		}
	case cpu.OpStore:
		m.TLB.WarmAccess(op.Addr)
		if !m.L1.WarmAccess(op.Addr, true) {
			m.L2.WarmAccess(op.Addr, false)
		}
	case cpu.OpBranch:
		m.Core.WarmBranch(op.PC, op.Taken)
	case cpu.OpConfig:
		if op.Do != nil {
			op.Do() // the prefetcher must see configuration regardless of phase
			op.Do = nil
		}
	}
	// Software prefetches in a fast-forward gap are dropped: they only
	// affect timing, which functional warming deliberately skips.
}

// phaseStream feeds a core one lane of its inner stream: it alternates
// between warming (ops swallowed by warmFilter) and detail (ops passed
// through with renumbered deps) as the lane's windows dictate, and reports
// end-of-program when the lane stops even if the inner stream has more —
// the next lane covers those. It starts in the warm phase with left set to
// the lane's skip.
type phaseStream struct {
	warmFilter
	inner cpu.Filler
	lane  lane

	detail  bool  // current phase passes ops through
	left    int64 // ops remaining in the current phase; negative = unbounded
	windows int64 // detailed windows entered
}

// Next implements cpu.Stream.
func (s *phaseStream) Next() (op cpu.MicroOp, ok bool) {
	ok = s.Fill(&op)
	return op, ok
}

// Fill implements cpu.Filler. A swallowed op is warmed where the inner stream
// wrote it, in the caller's slot, and the next one overwrites it.
func (s *phaseStream) Fill(op *cpu.MicroOp) bool {
	for {
		if s.left == 0 {
			if s.detail && s.lane.gap == 0 {
				return false
			}
			s.detail = !s.detail
			s.left = s.lane.gap
			if s.detail {
				s.left = s.lane.detail
				s.windows++
			}
		}
		srcID := s.pulled // id the inner stream assigns this op
		if !s.inner.Fill(op) {
			return false
		}
		s.pulled++
		s.left--
		if !s.detail {
			s.warm(op)
			continue
		}
		s.deliver(op, srcID)
		return true
	}
}
