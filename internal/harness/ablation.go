package harness

import (
	"fmt"
	"strings"

	"eventpf/internal/system"
	"eventpf/internal/workloads"
)

// AblationRow is one design-parameter sensitivity measurement, run on HJ-8
// (the benchmark that exercises every prefetcher structure: chains, tags,
// queues and the scheduler).
type AblationRow struct {
	Parameter string
	Value     int
	Speedup   float64
}

// Ablations measures sensitivity to the design parameters DESIGN.md calls
// out: observation-queue depth, prefetch-request-queue depth, and the MSHR
// count shared with demand traffic. The mutated-Config runs cannot use the
// suite memo, so they go straight to the worker pool (forkSweep); rows come
// back in the fixed cell order regardless of completion order.
//
// Queue-depth cells differ only in the prefetcher's queue limits, which a
// machine fork may change, so they share one warmed parent instead of each
// re-simulating the warmup; MSHR cells change cache geometry and run in
// full, alongside that warm-up.
func (s *Suite) Ablations() ([]AblationRow, error) {
	b := workloads.HJ8
	base, err := s.Run(Pair{Bench: b, Scheme: NoPF})
	if err != nil {
		return nil, err
	}

	var rows []AblationRow
	var opts []Options
	cell := func(param string, value int, mutate func(cfg *system.Config)) {
		cfg := system.DefaultConfig()
		mutate(&cfg)
		opt := s.Opt
		opt.Config = &cfg
		rows = append(rows, AblationRow{Parameter: param, Value: value})
		opts = append(opts, opt)
	}
	for _, q := range []int{5, 10, 40, 160} {
		cell("obs-queue", q, func(cfg *system.Config) { cfg.Prefetcher.ObsQueue = q })
	}
	for _, q := range []int{25, 50, 200, 800} {
		cell("req-queue", q, func(cfg *system.Config) { cfg.Prefetcher.ReqQueue = q })
	}
	forked := len(rows)
	for _, m := range []int{6, 12, 24} {
		cell("l1-mshrs", m, func(cfg *system.Config) { cfg.L1.MSHRs = m })
	}

	warmOpt := s.Opt
	dcfg := system.DefaultConfig()
	warmOpt.Config = &dcfg
	// The MSHR cells run in full while the forkable cells share a warm-up to
	// half the program.
	groups := []func() error{
		func() error {
			return s.forkSweep(b, Manual, warmOpt, base.Core.Ops/2, opts[:forked], func(i int, r Result, err error) {
				if err == nil {
					rows[i].Speedup = Speedup(base, r)
				}
			})
		},
		func() error {
			return s.fanOut(len(rows)-forked, func(i int) error {
				r, err := Run(b, Manual, opts[forked+i])
				if err == nil {
					rows[forked+i].Speedup = Speedup(base, r)
				}
				return err
			})
		},
	}
	if err := forEach(len(groups), func(g int) error { return groups[g]() }); err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatAblations renders the sensitivity table.
func FormatAblations(rows []AblationRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %8s %10s\n", "parameter", "value", "speedup")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-12s %8d %9.2fx\n", r.Parameter, r.Value, r.Speedup)
	}
	return sb.String()
}

// ContextSwitchRow measures the cost of periodically flushing the
// prefetcher (§5.3): with infrequent switches the loss should be small.
type ContextSwitchRow struct {
	IntervalCycles int64 // 0 = never
	Speedup        float64
}

// ContextSwitches measures prefetcher-flush sensitivity on IntSort.
func (s *Suite) ContextSwitches() ([]ContextSwitchRow, error) {
	b := workloads.IntSort
	base, err := s.Run(Pair{Bench: b, Scheme: NoPF})
	if err != nil {
		return nil, err
	}
	intervals := []int64{0, 1_000_000, 100_000, 10_000}
	rows := make([]ContextSwitchRow, len(intervals))
	err = s.fanOut(len(intervals), func(i int) error {
		cfg := system.DefaultConfig()
		cfg.ContextSwitchTicks = intervals[i] * 5 // core cycles → ticks
		opt := s.Opt
		opt.Config = &cfg
		r, err := Run(b, Manual, opt)
		if err != nil {
			return err
		}
		rows[i] = ContextSwitchRow{IntervalCycles: intervals[i], Speedup: Speedup(base, r)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatContextSwitches renders the flush-sensitivity table.
func FormatContextSwitches(rows []ContextSwitchRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %10s\n", "switch interval", "speedup")
	for _, r := range rows {
		label := "never"
		if r.IntervalCycles > 0 {
			label = fmt.Sprintf("%d cycles", r.IntervalCycles)
		}
		fmt.Fprintf(&sb, "%-18s %9.2fx\n", label, r.Speedup)
	}
	return sb.String()
}
