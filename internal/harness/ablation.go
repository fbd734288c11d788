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
// count shared with demand traffic. Every cell is a mutation of Table 1's
// machine, whatever s.Opt.Config is, and a memo entry like any other run: the
// three cells that hold Table 1's own value are the HJ-8 × manual entry the
// figures use.
//
// Queue-depth cells differ only in the prefetcher's queue limits, which a
// machine fork may change, so they share one parent warmed under Table 1 to
// half the program instead of each re-simulating the warm-up (sweep); MSHR
// cells change cache geometry and run in full, alongside that warm-up.
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
		rows = append(rows, AblationRow{Parameter: param, Value: value})
		opts = append(opts, s.withConfig(cfg))
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

	// Job 0 is the queue cells' sweep; the MSHR cells are one job each.
	err = forEach(1+len(opts)-forked, func(i int) error {
		if i == 0 {
			return s.sweep(b, Manual, s.withConfig(system.DefaultConfig()), base.Core.Ops/2, opts[:forked])
		}
		_, err := s.measure(b, Manual, opts[forked+i-1])
		return err
	})
	if err != nil {
		return nil, err
	}
	for i := range rows {
		r, err := s.measure(b, Manual, opts[i])
		if err != nil {
			return nil, err
		}
		rows[i].Speedup = Speedup(base, r)
	}
	return rows, nil
}

// withConfig returns the suite's options over cfg, in place of whatever
// machine s.Opt.Config names: the options of one sensitivity cell.
func (s *Suite) withConfig(cfg system.Config) Options {
	opt := s.Opt
	opt.Config = &cfg
	return opt
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

// ContextSwitches measures prefetcher-flush sensitivity on IntSort. The
// "never" row is Table 1's machine: the IntSort × manual entry of the figures.
func (s *Suite) ContextSwitches() ([]ContextSwitchRow, error) {
	b := workloads.IntSort
	base, err := s.Run(Pair{Bench: b, Scheme: NoPF})
	if err != nil {
		return nil, err
	}
	intervals := []int64{0, 1_000_000, 100_000, 10_000}
	rows := make([]ContextSwitchRow, len(intervals))
	err = forEach(len(intervals), func(i int) error {
		cfg := system.DefaultConfig()
		cfg.ContextSwitchTicks = intervals[i] * 5 // core cycles → ticks
		r, err := s.measure(b, Manual, s.withConfig(cfg))
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
