package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"eventpf/internal/harness"
	"eventpf/internal/system"
	"eventpf/internal/tracein"
	"eventpf/internal/workloads"
)

// listWork is the three workloads whose pass is a list of single
// simulations run one after another on the calling goroutine: ppf-detail,
// hwpf-replay and engines-approx. They differ in what setup prepares and in
// the options each item runs under.
type listWork struct {
	r *run
	t tally

	// hwpf-replay: one captured trace per benchmark.
	traceDir string
	traces   map[string]*capturedTrace

	// engines-approx: the serial reference run of every pair.
	refs map[pair]reference

	// Engine events and ops of the exact serial runs made through
	// Warm/Resume (traced run only), for sim.events_per_op.
	events, eventOps int64

	schemeWall map[string]float64 // op wall per scheme
	engineWall map[string]float64 // engines-approx: op wall per engine
	refWall    float64            // engines-approx: wall of the references measured
	maxErr     map[string]float64 // engines-approx: max |CPI error| per engine, percent
}

type capturedTrace struct {
	path    string
	capture harness.Result
	bytes   int64
	ops     int64
}

type reference struct {
	cpi   float64
	wallS float64
}

func newListWork(r *run) *listWork {
	return &listWork{r: r, schemeWall: map[string]float64{}, engineWall: map[string]float64{}, maxErr: map[string]float64{}}
}

func resolve(bench, scheme string) (*workloads.Benchmark, harness.Scheme, error) {
	b, err := workloads.ByName(bench)
	if err != nil {
		return nil, 0, err
	}
	s, ok := harness.ParseScheme(scheme)
	if !ok {
		return nil, 0, &harness.UnknownSchemeError{Name: scheme}
	}
	return b, s, nil
}

// warmUp is the one tiny simulation every set-up ends with, so the first
// measured operation does not pay for first-touch page faults and heap growth.
func warmUp() error {
	b, s, err := resolve("HJ-2", "manual")
	if err != nil {
		return err
	}
	_, err = harness.Run(b, s, harness.Options{Scale: 0.02})
	return err
}

func (w *listWork) setup() error {
	switch w.r.cfg.Workload {
	case wHWPF:
		if err := w.captureTraces(); err != nil {
			return err
		}
	case wEngines:
		if err := w.runReferences(); err != nil {
			return err
		}
	}
	return warmUp()
}

// captureTraces records each hwpf-replay benchmark's op stream once, under
// no-pf, into a PPFT file, then decodes it to count what a replay will read.
func (w *listWork) captureTraces() error {
	w.traceDir = filepath.Join(w.r.cfg.OutDir, fmt.Sprintf("tmp-traces-%d", os.Getpid()))
	if err := os.MkdirAll(w.traceDir, 0o755); err != nil {
		return err
	}
	w.traces = map[string]*capturedTrace{}
	for _, it := range w.r.plan.Items {
		if w.traces[it.Bench] != nil {
			continue
		}
		b, noPF, err := resolve(it.Bench, "no-pf")
		if err != nil {
			return err
		}
		path := filepath.Join(w.traceDir, it.Bench+".ppft")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		sp := w.r.spans.begin("capture "+it.Bench, 0)
		sink := tracein.NewWriter(f, tracein.Meta{Bench: b.Name, Scheme: "no-pf", Scale: it.Scale, Tool: "benchmark"})
		res, runErr := harness.Run(b, noPF, harness.Options{Scale: it.Scale, OpSink: sink})
		err = errors.Join(runErr, sink.Close(), f.Close())
		w.r.spans.end(sp)
		if err != nil {
			return fmt.Errorf("capture %s: %w", it.Bench, err)
		}
		ct := &capturedTrace{path: path, capture: res}
		sp = w.r.spans.begin("tracein.Open+decode "+it.Bench, 0)
		ct.ops, ct.bytes, err = decodeTrace(path)
		w.r.spans.end(sp)
		if err != nil {
			return fmt.Errorf("decode %s: %w", path, err)
		}
		if ct.ops != res.Core.Ops {
			return fmt.Errorf("trace %s holds %d ops, the capture run retired %d", path, ct.ops, res.Core.Ops)
		}
		w.traces[it.Bench] = ct
	}
	return nil
}

// decodeTrace reads a trace file to its end and returns its op count and size.
func decodeTrace(path string) (ops, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	dec, err := tracein.Open(f)
	if err != nil {
		return 0, 0, err
	}
	for {
		if _, err := dec.Next(); err == io.EOF {
			return ops, st.Size(), nil
		} else if err != nil {
			return 0, 0, err
		}
		ops++
	}
}

// runReferences makes the exact serial run of every engines-approx pair that
// the sliced and sampled CPIs are judged against.
func (w *listWork) runReferences() error {
	w.refs = map[pair]reference{}
	for _, it := range w.r.plan.Items {
		pr := pair{it.Bench, it.Scheme}
		if _, done := w.refs[pr]; done {
			continue
		}
		ref := it
		ref.Engine = ""
		t0 := time.Now()
		res, err := w.simulate(ref, 0)
		if err != nil {
			return fmt.Errorf("reference %s: %w", ref, err)
		}
		w.refs[pr] = reference{cpi: ratio(float64(res.Cycles), float64(res.Core.Ops)), wallS: time.Since(t0).Seconds()}
	}
	return nil
}

// simulate makes the one harness call an item stands for; in a traced run an
// exact serial item goes through exactRun, the same simulation.
func (w *listWork) simulate(it item, parent int) (harness.Result, error) {
	b, s, err := resolve(it.Bench, it.Scheme)
	if err != nil {
		return harness.Result{}, err
	}
	if ct := w.traces[it.Bench]; ct != nil {
		b = tracein.Bench(ct.path)
	}
	opt := harness.Options{Scale: it.Scale}
	switch it.Engine {
	case "sliced":
		opt.Slices = 2
	case "sampled":
		sc := system.DefaultSampleConfig()
		opt.Sample = &sc
	}
	if w.r.cfg.Traced && it.Engine == "" {
		sp := w.r.spans.begin("harness.Warm+Resume", parent)
		defer w.r.spans.end(sp)
		res, events, err := exactRun(b, s, opt)
		if err == nil {
			w.events += events
			w.eventOps += res.Core.Ops
		}
		return res, err
	}
	sp := w.r.spans.begin("harness.Run", parent)
	defer w.r.spans.end(sp)
	return harness.Run(b, s, opt)
}

// exactRun is harness.Run for an exact serial run, made through Warm(…, 0) +
// Resume so that the machine stays reachable and the number of events its
// engine scheduled can be read.
func exactRun(b *workloads.Benchmark, s harness.Scheme, opt harness.Options) (harness.Result, int64, error) {
	wr, err := harness.Warm(b, s, opt, 0)
	if err != nil {
		return harness.Result{}, 0, err
	}
	res, err := wr.Resume()
	return res, int64(wr.Machine().Eng.Seq()), err
}

func (w *listWork) pass() {
	for slot, it := range w.r.plan.Items {
		w.r.step(it.String(), func(sp int) {
			t0 := time.Now()
			res, err := w.simulate(it, sp)
			d := time.Since(t0)
			if err == nil {
				err = w.checkItem(it, res)
			}
			w.r.op(slot, d, err)
			if err != nil {
				return
			}
			w.r.addSimOps(programOps(res))
			w.t.add(res)
			w.schemeWall[it.Scheme] += d.Seconds()
			if it.Engine != "" {
				w.engineWall[it.Engine] += d.Seconds()
				if it.Engine == "sliced" {
					w.refWall += w.refs[pair{it.Bench, it.Scheme}].wallS
				}
			}
		})
	}
}

// checkItem holds the per-operation correctness rules beyond the oracle check
// harness.Run already made.
func (w *listWork) checkItem(it item, res harness.Result) error {
	switch it.Engine {
	case "sliced":
		if res.TimeParallel == nil {
			return fmt.Errorf("%s: fell back to the serial engine (no TimeParallel stats)", it)
		}
		w.noteCPIError(it, ratio(float64(res.Cycles), float64(res.Core.Ops)))
	case "sampled":
		if res.Sampled == nil {
			return fmt.Errorf("%s: fell back to the serial engine (no Sampled stats)", it)
		}
		w.noteCPIError(it, ratio(float64(res.Sampled.EstimatedCycles), float64(res.Sampled.TotalOps)))
	}
	if ct := w.traces[it.Bench]; ct != nil && it.Scheme == "no-pf" {
		got, want := res.Result, ct.capture.Result
		if got.Cycles != want.Cycles || got.Core != want.Core || got.L1 != want.L1 || got.L2 != want.L2 ||
			got.DRAM != want.DRAM || got.TLB != want.TLB {
			return fmt.Errorf("%s: no-pf replay statistics differ from the capture run's", it)
		}
	}
	return nil
}

func (w *listWork) noteCPIError(it item, cpi float64) {
	ref := w.refs[pair{it.Bench, it.Scheme}].cpi
	w.maxErr[it.Engine] = max(w.maxErr[it.Engine], 100*math.Abs(cpi-ref)/ref)
}

func (w *listWork) verify() {}

func (w *listWork) counts(m map[string]float64) {
	w.t.metrics(m)
	m["sim.events_per_op"] = ratio(float64(w.events), float64(w.eventOps))
	if w.r.cfg.Workload == wHWPF {
		for _, s := range hwpfSchemes {
			m["baseline."+s+"_wall_s"] = w.schemeWall[s]
		}
	}
	m["adaptive.pair_wall_s"] = w.schemeWall["adaptive"]
	var ops, bytes int64
	for _, it := range w.r.plan.Items {
		if ct := w.traces[it.Bench]; ct != nil {
			ops += ct.ops
			bytes += ct.bytes
		}
	}
	passes := float64(len(w.r.passes))
	m["tracein.ops_decoded"] = float64(ops) * passes
	m["tracein.bytes_per_op"] = ratio(float64(bytes), float64(ops))
	m["system.sliced_speedup_x"] = ratio(w.refWall, w.engineWall["sliced"])
	m["system.sampled_speedup_x"] = ratio(w.refWall, w.engineWall["sampled"])
	m["system.sliced_cpi_err_pct"] = w.maxErr["sliced"]
	m["system.sampled_cpi_err_pct"] = w.maxErr["sampled"]
}

func (w *listWork) tally() *tally { return &w.t }

func (w *listWork) close() {
	if w.traceDir != "" {
		os.RemoveAll(w.traceDir)
	}
}
