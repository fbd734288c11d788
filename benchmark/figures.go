package main

import (
	"fmt"
	"math"
	"time"

	"eventpf/internal/harness"
	"eventpf/internal/workloads"
)

// paperFig7ManualGeomean is the paper's headline (abstract; EXPERIMENTS.md):
// the manual scheme's geometric-mean speedup over no prefetching.
const paperFig7ManualGeomean = 3.0

// figureWork is figure-suite: every pass builds one cold Suite and asks it
// for Figures 7, 9(a) and 11, which is what a ppftables user waits for.
type figureWork struct {
	r *run
	t tally

	memoHits, memoMisses int64
	figWall              map[string]float64
	paperErrPct          float64
	events, eventOps     int64
}

func newFigureWork(r *run) *figureWork {
	return &figureWork{r: r, figWall: map[string]float64{}}
}

func (w *figureWork) setup() error { return warmUp() }

func (w *figureWork) pass() {
	suite := harness.NewSuite(harness.Options{Scale: w.r.plan.Scale, Parallel: workers()})
	var fig7 []harness.Fig7Row
	figure := func(slot int, name string, fn func() error) {
		w.r.step(name, func(int) {
			t := time.Now()
			err := fn()
			d := time.Since(t)
			w.r.op(slot, d, err)
			w.figWall[name] += d.Seconds()
		})
	}
	figure(0, "Suite.Fig7", func() (err error) { fig7, err = suite.Fig7(); return })
	figure(1, "Suite.Fig9a", func() error { _, err := suite.Fig9a(); return err })
	figure(2, "Suite.Fig11", func() error { _, err := suite.Fig11(); return err })

	// Everything below reads the memo the figures filled; none of it is part
	// of a step, so it is outside wall_s.
	hits, misses := suite.MemoStats()
	w.memoHits += hits
	w.memoMisses += misses
	seen := map[string]bool{}
	for _, p := range figurePairs() {
		key := suite.Key(p)
		if seen[key] {
			continue
		}
		seen[key] = true
		res, err := suite.Run(p)
		if err != nil {
			continue // the paper's missing bars; real failures already failed a figure
		}
		w.r.addSimOps(programOps(res))
		w.t.add(res)
	}
	if g, err := manualGeomean(fig7); err != nil {
		w.r.fail("figure-suite: %v", err)
	} else {
		w.paperErrPct = 100 * math.Abs(g-paperFig7ManualGeomean) / paperFig7ManualGeomean
	}
}

// figurePairs lists every pair Fig7, Fig9a and Fig11 request, so the
// benchmark can read their Results back out of the suite's memo.
func figurePairs() []harness.Pair {
	var ps []harness.Pair
	for _, b := range workloads.All {
		ps = append(ps, harness.Pair{Bench: b, Scheme: harness.NoPF}, harness.Pair{Bench: b, Scheme: harness.ManualBlocked})
		for _, s := range harness.Schemes {
			ps = append(ps, harness.Pair{Bench: b, Scheme: s})
		}
		for _, mhz := range harness.Fig9aClocks {
			ps = append(ps, harness.Pair{Bench: b, Scheme: harness.Manual, PPUMHz: mhz})
		}
	}
	return ps
}

func manualGeomean(rows []harness.Fig7Row) (float64, error) {
	sum, n := 0.0, 0
	for _, row := range rows {
		v := row.Speedup[harness.Manual]
		if math.IsNaN(v) || v <= 0 {
			return 0, fmt.Errorf("Fig7 has no manual speedup for %s", row.Benchmark)
		}
		sum += math.Log(v)
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("Fig7 returned no rows")
	}
	return math.Exp(sum / float64(n)), nil
}

// sampleEvents runs one pair in eight of the Fig7 matrix serially through
// Warm/Resume to read the engine's events per op at the suite's scale
// (traced run only; the Suite itself hides its machines).
func (w *figureWork) sampleEvents() {
	for i, p := range figurePairs() {
		if i%8 != 0 || p.PPUMHz != 0 {
			continue
		}
		if res, events, err := exactRun(p.Bench, p.Scheme, harness.Options{Scale: w.r.plan.Scale}); err == nil {
			w.events += events
			w.eventOps += res.Core.Ops
		}
	}
}

func (w *figureWork) verify() {
	if w.r.cfg.Traced {
		w.sampleEvents()
	}
}

func (w *figureWork) counts(m map[string]float64) {
	w.t.metrics(m)
	m["sim.events_per_op"] = ratio(float64(w.events), float64(w.eventOps))
	m["harness.memo_hits"] = float64(w.memoHits)
	m["harness.memo_misses"] = float64(w.memoMisses)
	cpuS, wallS := 0.0, 0.0
	for _, p := range w.r.passes {
		cpuS += p.cpuS
		wallS += p.wallS
	}
	m["harness.pool_utilisation"] = ratio(cpuS, wallS*float64(workers()))
	m["harness.fig7_wall_s"] = w.figWall["Suite.Fig7"]
	m["harness.fig9a_wall_s"] = w.figWall["Suite.Fig9a"]
	m["harness.fig11_wall_s"] = w.figWall["Suite.Fig11"]
	m["harness.paper_err_pct"] = w.paperErrPct
}

func (w *figureWork) tally() *tally { return &w.t }

func (w *figureWork) close() {}
