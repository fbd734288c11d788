package main

import (
	"fmt"
	"math/rand"

	"eventpf/internal/workloads"
)

// Workload names are fixed: later issues refer to them.
const (
	wPPFDetail = "ppf-detail"
	wHWPF      = "hwpf-replay"
	wFigures   = "figure-suite"
	wEngines   = "engines-approx"
	wServe     = "serve-mix"
)

// workloadDef is one row of the benchmark: its name, the one-line reason it
// exists, and the nominal input scale of its simulations. The scales are
// sized so one pass takes about a quarter of the reference 15-second run on
// the 2-core reference host, and sit away from the scales at which a
// generator's size jumps (the Graph500 graphs double at 0.0078, 0.0156,
// 0.0312 and 0.0625): see README, "How the scales were sized".
type workloadDef struct {
	Name  string
	Why   string
	Scale float64
}

var workloadDefs = []workloadDef{
	{wPPFDetail, "exact IR-fed runs of the programmable prefetcher (manual, converted, pragma, blocked, adaptive): prefetch+ppu+compiler busy, mem sees fills on top of demand; baseline, tracein, memo, serve idle", 0.022},
	{wHWPF, "PPFT trace replay under six hardware schemes: ops come from tracein decode, the core is mostly stalled, baseline units prefetch; prefetch, ppu, ir, compiler idle, so a gain there must not show here", 0.025},
	{wFigures, "one cold Suite producing Fig7+Fig9a+Fig11 at small scale: worker pool, singleflight memo and shared-warm-up Fork fan-out, where workload Build and allocation dominate; yields the paper-fidelity figure", 0.0105},
	{wEngines, "time-parallel (Slices=2) and SMARTS-sampled runs against serial references: the approximate engines do the work, speed is reported beside CPI error so a faster-but-wronger engine shows", 0.060},
	{wServe, "closed-loop POST /jobs?wait=1 against an in-process server, 90% duplicate configs: serve cache/dedup and the memo serve hits, the simulator serves the 10% misses", 0.0066},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// ladder is the three-step scale ladder the seed picks from, as multiples of
// the workload's nominal scale. The steps are one percent apart on purpose: a
// different seed must give different inputs (sizes, addresses, op counts),
// but the amount of work has to stay comparable, or the spread between seeds
// would drown the bounds.
var ladder = [3]float64{0.99, 1.0, 1.01}

// serveRequests is the length of one serve-mix pass. Its 118 configs make
// 90 % of the requests repeats. The pass is sent in serveRounds rounds, each
// a timed step of its own with a barrier after it, so that wall_s can take
// each round's best time across passes.
const (
	serveRequests = 1200
	serveRounds   = 6
)

// item is one operation of a pass: a simulation of Bench under Scheme at
// Scale. Engine selects an approximate engine (engines-approx only). For
// hwpf-replay Bench names the benchmark whose captured trace is replayed.
type item struct {
	Bench  string  `json:"bench"`
	Scheme string  `json:"scheme"`
	Scale  float64 `json:"scale"`
	Engine string  `json:"engine,omitempty"` // "sliced" or "sampled"
}

func (it item) String() string {
	s := fmt.Sprintf("%s×%s@%g", it.Bench, it.Scheme, it.Scale)
	if it.Engine != "" {
		s += "/" + it.Engine
	}
	return s
}

// plan is everything the seed decides for one workload: the items of a pass
// in run order, and for serve-mix the request sequence over them.
type plan struct {
	Items []item `json:"items"`
	// Scale is the figure-suite Suite scale (its pass has no item list).
	Scale float64 `json:"scale,omitempty"`
	// Requests index Items (serve-mix): the closed-loop clients send them in
	// this order.
	Requests []int `json:"requests,omitempty"`
}

type pair struct{ bench, scheme string }

func cross(benches, schemes []string) []pair {
	var ps []pair
	for _, b := range benches {
		for _, s := range schemes {
			ps = append(ps, pair{b, s})
		}
	}
	return ps
}

// The pair matrices. ErrUnsupported for any pair listed here is a benchmark
// bug (TestPlansAreSupported runs every one).
func ppfDetailPairs() []pair {
	ps := cross(workloads.Names(), []string{"manual"})
	ps = append(ps, cross([]string{"HJ-2", "IntSort", "RandAcc", "ConjGrad"}, []string{"converted", "pragma"})...)
	ps = append(ps, cross([]string{"G500-CSR", "HJ-8"}, []string{"manual-blocked"})...)
	return append(ps, cross([]string{"PhaseMix", "HJ-8"}, []string{"adaptive"})...)
}

var (
	hwpfBenches = []string{"HJ-8", "G500-List", "IntSort", "ConjGrad", "SpMV", "BTree"}
	hwpfSchemes = []string{"no-pf", "stride", "rpt", "ghb-regular", "ghb-delta", "tskid"}

	enginePairs = cross([]string{"HJ-8", "G500-CSR", "PageRank", "ConjGrad"}, []string{"no-pf", "manual"})

	serveSchemes = []string{"no-pf", "stride", "ghb-regular", "ghb-large", "rpt", "ghb-delta", "tskid", "adaptive", "manual", "manual-blocked"}
)

// servePairs is every menu benchmark under the ten serve schemes, less the
// pairs that do not exist (BTree has no hand-written kernels).
func servePairs() []pair {
	var ps []pair
	for _, p := range cross(workloads.MenuNames(), serveSchemes) {
		if p.bench == "BTree" && (p.scheme == "manual" || p.scheme == "manual-blocked") {
			continue
		}
		ps = append(ps, p)
	}
	return ps
}

// planConfig is what a plan is made from besides the workload's definition.
type planConfig struct {
	Seed     int64
	Scale    float64 // nominal scale (the workload's own unless overridden)
	Requests int     // serve-mix pass length
	// Third keeps every third item: the traced run's shorter list.
	Third bool
}

// makePlan derives a workload's inputs from the seed alone: which ladder step
// each input runs at, the run order, and the serve request mix. The same
// seed gives the same plan.
func makePlan(workload string, cfg planConfig) plan {
	rng := rand.New(rand.NewSource(cfg.Seed))
	pick := func() float64 { return cfg.Scale * ladder[rng.Intn(len(ladder))] }
	var p plan
	switch workload {
	case wPPFDetail:
		for _, pr := range ppfDetailPairs() {
			p.Items = append(p.Items, item{Bench: pr.bench, Scheme: pr.scheme, Scale: pick()})
		}
	case wHWPF:
		// One trace per benchmark, so the ladder step is per benchmark.
		for _, b := range hwpfBenches {
			sc := pick()
			for _, s := range hwpfSchemes {
				p.Items = append(p.Items, item{Bench: b, Scheme: s, Scale: sc})
			}
		}
	case wFigures:
		p.Scale = pick()
		return p
	case wEngines:
		// Both engines and the serial reference share the pair's scale.
		for _, pr := range enginePairs {
			sc := pick()
			p.Items = append(p.Items,
				item{Bench: pr.bench, Scheme: pr.scheme, Scale: sc, Engine: "sliced"},
				item{Bench: pr.bench, Scheme: pr.scheme, Scale: sc, Engine: "sampled"})
		}
	case wServe:
		for _, pr := range servePairs() {
			p.Items = append(p.Items, item{Bench: pr.bench, Scheme: pr.scheme, Scale: pick()})
		}
	}
	if workload == wServe {
		// The configs keep their order (benchmark-major), so the first
		// appearances of one benchmark's ten schemes are neighbours and the
		// simulations that overlap on the workers are of like size whatever
		// the seed; a shuffled order made peak RSS a lottery (210 to 335 MB)
		// over which two simulations happened to overlap.
		p.Requests = requestMix(rng, cfg.Requests, len(p.Items))
		return p
	}
	rng.Shuffle(len(p.Items), func(i, j int) { p.Items[i], p.Items[j] = p.Items[j], p.Items[i] })
	if cfg.Third {
		var third []item
		for i := 0; i < len(p.Items); i += 3 {
			third = append(third, p.Items[i])
		}
		p.Items = third
	}
	return p
}

// requestMix builds a sequence of n requests over configs 0..distinct-1 in
// which every config appears, in order of first appearance 0, 1, 2, …, and
// every other request repeats a config already sent: with 1200 requests over
// 118 configs, 90 % are repeats. The positions of the first appearances and
// the config each repeat picks come from rng; the number of simulations a
// pass causes does not. A short sequence (the smoke test's) uses a tenth as
// many configs as it has requests, keeping the share of repeats.
func requestMix(rng *rand.Rand, n, distinct int) []int {
	distinct = min(distinct, max(1, n/10))
	first := make([]bool, n)
	if n > 0 {
		first[0] = true // nothing to repeat yet
		for _, i := range rng.Perm(n - 1)[:distinct-1] {
			first[i+1] = true
		}
	}
	seq := make([]int, n)
	used := 0
	for i := range seq {
		if first[i] {
			seq[i] = used
			used++
		} else {
			seq[i] = rng.Intn(used)
		}
	}
	return seq
}
