package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"eventpf/internal/workloads"
)

// result is what one child invocation reports: the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newWorkload(r *run) workload {
	switch r.cfg.Workload {
	case wFigures:
		return newFigureWork(r)
	case wServe:
		return newServeWork(r)
	}
	return newListWork(r)
}

// runChild runs one workload once — untraced for the end-to-end metrics, or
// traced for the per-layer ones — and returns the contract result plus the
// recorder, whose details the caller may print.
func runChild(cfg config) (result, *run, error) {
	r, err := newRun(cfg)
	if err != nil {
		return result{}, nil, err
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return result{}, nil, err
	}
	w := newWorkload(r)
	defer w.close()
	// Every workload sets up at least three times, and a cheap set-up up to
	// nine times until a second has gone into it; setup_s is the median.
	for spent := 0.0; len(r.setupS) < 3 || (spent < 1 && len(r.setupS) < 9); {
		sp := r.spans.begin("setup", 0)
		t0 := time.Now()
		err := w.setup()
		d := time.Since(t0).Seconds()
		r.spans.end(sp)
		r.setupS = append(r.setupS, d)
		spent += d
		if err != nil {
			return result{}, r, fmt.Errorf("%s setup: %w", cfg.Workload, err)
		}
	}
	r.measure(w)
	w.verify()

	var values map[string]float64
	defs := endToEnd
	if cfg.Traced {
		defs = perLayer
		if values, err = perLayerMetrics(r, w); err != nil {
			return result{}, r, err
		}
		if err := r.spans.write(filepath.Join(cfg.OutDir, "trace-"+cfg.Workload+".json")); err != nil {
			return result{}, r, err
		}
	} else {
		values = r.endToEnd()
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		res.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return res, r, nil
}

// perLayerMetrics assembles the traced run's output: the workload's counts,
// the layer probes, and the estimated share of the pass's CPU time each
// layer explains (probe cost per unit × the workload's unit count ÷ process
// CPU seconds). The shares are an outside estimate: probes overlap (a cache
// round trip includes its engine events) and miss what happens between
// layers, so they need not sum to one.
func perLayerMetrics(r *run, w workload) (map[string]float64, error) {
	m := map[string]float64{}
	w.counts(m)
	budget := time.Duration(min(60, max(2, r.cfg.Seconds*4))) * time.Millisecond
	probes, err := runProbes(budget)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		m[k] = v
	}

	t := w.tally()
	cpuNS := 0.0
	for _, p := range r.passes {
		cpuNS += p.cpuS * 1e9
	}
	m["sim.events"] = float64(int64(m["sim.events_per_op"]*float64(t.detailOps) + 0.5))
	share := func(ns float64) float64 { return ratio(ns, cpuNS) }
	m["sim.est_share"] = share(m["sim.events"] * m["sim.ns_per_event"])
	m["cpu.est_share"] = share(float64(t.detailOps) * m["cpu.busy_ns_per_op"])
	if r.cfg.Workload != wHWPF {
		m["ir.est_share"] = share(float64(t.ops+t.warmOps) * m["ir.ns_per_op"])
	}
	// An L1 fill that the L2 serves costs the miss round trip less its DRAM leg.
	m["mem.est_share"] = share(float64(t.l1Hits+t.l1StoreHits)*m["mem.l1_hit_ns"] +
		float64(t.l1Misses-t.l2Misses)*(m["mem.l1_miss_ns"]-m["mem.dram_ns_per_access"]) +
		float64(t.l2Misses)*m["mem.l1_miss_ns"] +
		float64(t.tlbAccesses)*m["mem.tlb_hit_ns"] + float64(t.tlbWalks)*m["mem.tlb_walk_ns"])
	m["prefetch.est_share"] = share(float64(t.pfObs) * m["prefetch.ns_per_observation"])
	m["tracein.est_share"] = share(ratio(m["tracein.ops_decoded"]*1e3, m["tracein.decode_mops_per_s"]))
	attributed := 0.0
	for _, k := range []string{"sim", "cpu", "ir", "mem", "prefetch", "tracein"} {
		attributed += m[k+".est_share"]
	}
	m["system.unattributed_share"] = max(0, 1-attributed)

	// What building the inputs costs: every simulation starts with one Build.
	// hwpf-replay's passes build nothing (its Builds happen in the capture).
	items, builds := r.plan.Items, 1.0
	switch r.cfg.Workload {
	case wFigures:
		items = nil
		for _, b := range workloads.Names() {
			items = append(items, item{Bench: b, Scale: r.plan.Scale})
		}
		builds = m["harness.memo_misses"] / float64(len(items))
	case wServe:
		items = nil
		seen := map[int]bool{}
		for _, cfg := range r.plan.Requests {
			if !seen[cfg] {
				seen[cfg] = true
				items = append(items, r.plan.Items[cfg])
			}
		}
	}
	meanMS, totalS := buildProbe(items)
	m["workloads.build_ms"] = meanMS
	if r.cfg.Workload != wHWPF {
		m["workloads.build_share"] = share(totalS * builds * 1e9)
	}

	m["trace.span_overhead_pct"] = 100 * ratio(m["trace.span_ns"]*float64(len(r.spans.spans)), r.stepSeconds()*1e9)
	delete(m, "trace.span_ns")
	return m, nil
}

// watchdog ends a run that outlives its deadline: it writes every
// goroutine's stack where the parent can point at it and exits nonzero, so
// a livelock in the simulator cannot hang the benchmark.
func watchdog(cfg config) {
	time.AfterFunc(childDeadline, func() {
		path := filepath.Join(cfg.OutDir, "goroutines-"+cfg.Workload+".txt")
		if f, err := os.Create(path); err == nil {
			_ = pprof.Lookup("goroutine").WriteTo(f, 2)
			f.Close()
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s exceeded its %v deadline; goroutine dump in %s\n", cfg.Workload, childDeadline, path)
		os.Exit(3)
	})
}
