package harness

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"eventpf/internal/system"
	"eventpf/internal/workloads"
)

// Suite memoises runs so experiments that share measurements (Figures 7, 8
// and 11 all need the no-prefetch baseline) do not repeat simulations, and
// fans independent simulations out over a bounded worker pool. Each
// simulation's Machine lives on exactly one worker goroutine; the memo is a
// singleflight, so concurrent figure generators requesting the same
// benchmark×scheme pair share one run. Because every simulation is exact and
// unobserved (NewSuite refuses options that would make it otherwise),
// results are bit-identical however they are scheduled.
type Suite struct {
	Opt Options

	mu    sync.Mutex
	cache map[string]*suiteCall
	sem   chan struct{} // worker pool: one token per concurrent simulation

	// memoHits/memoMisses count Key lookups that joined an existing entry
	// (finished or in flight) versus ones that started a simulation.
	memoHits   atomic.Int64
	memoMisses atomic.Int64

	// onSweep, when a test sets it before the suite runs, sees every
	// warm-up, fork, finish, resume and release a sweep makes, from the
	// goroutine that makes it.
	onSweep func(sweepEvent)
}

// suiteCall is one memoised (possibly in-flight) measurement.
type suiteCall struct {
	done chan struct{} // closed when res/err are valid
	res  Result
	err  error
}

// NewSuite prepares a suite; opt.Scale scales every benchmark input and
// opt.Parallel sizes the worker pool (0 = GOMAXPROCS). It panics on options a
// suite cannot honour: opt is copied into every run, so an observer would be
// one unsynchronised sink under concurrent writers, and an approximate engine
// would make a Figure 9 point depend on whether a run or an (always exact)
// forked continuation filled its memo entry. Observe or approximate a single
// Run instead.
func NewSuite(opt Options) *Suite {
	for _, refused := range []struct {
		field string
		set   bool
	}{
		{"TraceSink", opt.TraceSink != nil},
		{"Metrics", opt.Metrics != nil},
		{"OpSink", opt.OpSink != nil},
		{"Slices", opt.Slices > 1},
		{"Sample", opt.Sample != nil},
	} {
		if refused.set {
			panic("harness: NewSuite: Options." + refused.field + " is per-run; a Suite's runs are exact and unobserved")
		}
	}
	n := opt.Parallel
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Suite{
		Opt:   opt,
		cache: map[string]*suiteCall{},
		sem:   make(chan struct{}, n),
	}
}

// Pair names one memoisable measurement: a benchmark×scheme pair, with the
// optional PPU-sizing overrides the Figure 9 sweeps use.
type Pair struct {
	Bench  *workloads.Benchmark
	Scheme Scheme
	PPUs   int
	PPUMHz int
}

// Key is the memo key of p under this suite's options. Two pairs with equal
// keys are guaranteed to simulate identically under this suite; the serving
// layer's content-addressed cache hashes the same folded values (Job.Key).
func (s *Suite) Key(p Pair) string {
	return s.key(p.Bench, p.Scheme, s.pairOptions(p))
}

// key names the memo entry of b×scheme under opt. PPU sizing is folded to
// its effective values so that, e.g., the Figure 9(a) 1000 MHz point and the
// default Manual run share one simulation, and schemes that never touch a PPU
// collapse onto one entry regardless of requested sizing. An Options.Config
// adds a term — the whole machine — only when it builds a machine other than
// the one the same options build without it (both resolved by ConfigFor, so a
// scheme's own defaults count), so the key of a Table-1 run carries no
// configuration term.
func (s *Suite) key(b *workloads.Benchmark, scheme Scheme, opt Options) string {
	ppus, mhz, err := foldSizing(scheme, opt.PPUs, opt.PPUMHz, opt.Config)
	if err != nil {
		// The run fails in ConfigFor with this error; it is memoised under the
		// sizing as asked.
		ppus, mhz = opt.PPUs, opt.PPUMHz
	}
	scale := opt.Scale
	if scale == 0 {
		scale = 1.0
	}
	key := fmt.Sprintf("%s/%s/p%d/f%d/s%g", b.Name, scheme, ppus, mhz, scale)
	if opt.Config != nil {
		// A ConfigFor error leaves a zero Config, which keys the failing run
		// apart from any that can be built.
		cfg, _ := ConfigFor(opt, scheme)
		opt.Config = nil
		if def, _ := ConfigFor(opt, scheme); cfg != def {
			key += fmt.Sprintf("/%+v", cfg)
		}
	}
	return key
}

// foldSizing reduces a run's PPU sizing (ppuSizing) to the values a memo key
// or content hash covers: the effective count and clock in MHz for a scheme
// that carries the programmable prefetcher, zeros for one that does not,
// because sizing cannot affect it. Which schemes are programmable comes from
// the scheme table, not a scheme list.
func foldSizing(scheme Scheme, ppus, mhz int, cfg *system.Config) (int, int, error) {
	ppus, clock, err := ppuSizing(ppus, mhz, cfg)
	if err != nil {
		return 0, 0, err
	}
	if info, ok := scheme.Info(); !ok || !info.Machine.IsProgrammable() {
		return 0, 0, nil
	}
	return ppus, int(tickRateMHz / clock.Period), nil
}

// MemoStats reports how many lookups joined an existing memo entry (hits)
// versus started a new simulation (misses). Safe to call while the suite is
// running.
func (s *Suite) MemoStats() (hits, misses int64) {
	return s.memoHits.Load(), s.memoMisses.Load()
}

// Run returns the memoised measurement for p, simulating it on the worker
// pool if it is not cached yet. Callers that need several pairs should
// Prefetch them first so the simulations overlap.
func (s *Suite) Run(p Pair) (Result, error) {
	return s.measure(p.Bench, p.Scheme, s.pairOptions(p))
}

// measure is the one way a suite simulates: it returns the memo entry of
// b×scheme under opt, running it first if nobody has. opt is the suite's
// options with a Pair's sizing or a mutated Config applied.
//
// The first caller for a key executes the simulation (holding a worker-pool
// token); later callers block on the same entry without consuming a worker,
// so a full fan-out can never deadlock the pool.
func (s *Suite) measure(b *workloads.Benchmark, scheme Scheme, opt Options) (Result, error) {
	c, mine := s.claim(s.key(b, scheme, opt))
	if !mine {
		s.memoHits.Add(1)
		<-c.done
		return c.res, c.err
	}
	s.sem <- struct{}{}
	res, err := Run(b, scheme, opt)
	<-s.sem
	fill(c, res, err)
	return res, err
}

// claim returns key's memo entry and whether this call created it. The
// creator owns the simulation: it counts as the memo miss and MUST complete
// the entry with fill, or waiters block forever. Everyone else must not
// simulate it — it is already simulated or in flight elsewhere.
func (s *Suite) claim(key string) (c *suiteCall, mine bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.cache[key]; ok {
		return c, false
	}
	c = &suiteCall{done: make(chan struct{})}
	s.cache[key] = c
	s.memoMisses.Add(1)
	return c, true
}

// fill completes a claimed memo entry.
func fill(c *suiteCall, res Result, err error) {
	c.res, c.err = res, err
	close(c.done)
}

// pairOptions applies p's overrides to the suite's options.
func (s *Suite) pairOptions(p Pair) Options {
	opt := s.Opt
	if p.PPUs != 0 {
		opt.PPUs = p.PPUs
	}
	if p.PPUMHz != 0 {
		opt.PPUMHz = p.PPUMHz
	}
	return opt
}

// sweep fills the memo entries of b×scheme under each of opts that nobody
// holds yet, sharing one warm-up between them: the run is warmed under
// warmOpt until warmOps micro-ops have retired, and the claimed points are a
// queue that the warm-up's worker token, and any token freed meanwhile,
// drains. A worker pops a point, forks the paused parent for it — opts[i]'s
// configuration may differ from warmOpt's only in what a machine fork may
// change — and finishes the fork. A warmed parent thus keeps a token until
// its last fork, and a suite never holds more parents, nor more forks, than
// the pool has tokens. A point under the warm-up's own
// configuration is queued last and resumes the parent itself, byte-identical
// to a full run; without one, the parent is released
// (system.Machine.Release) right after the last fork, and the forks still to
// come build from its memory. The other points treat the shared warm-up as
// functional warming. When the program ends before the fork point there is
// nothing to share: the parent serves its own point and every other point
// runs in full. Callers read the results back with measure. Every claimed
// entry is filled exactly once — a failed warm-up fails them all, a failed
// fork only its own point — and the lowest-indexed error is returned.
func (s *Suite) sweep(b *workloads.Benchmark, scheme Scheme, warmOpt Options, warmOps int64, opts []Options) error {
	var todo []*suiteCall
	var mine []Options
	for _, opt := range opts {
		if c, ok := s.claim(s.key(b, scheme, opt)); ok {
			todo = append(todo, c)
			mine = append(mine, opt)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	s.sem <- struct{}{} // the warm-up is a simulation: hold a worker token
	w, err := Warm(b, scheme, warmOpt, warmOps)
	if err != nil {
		<-s.sem
		for _, c := range todo {
			fill(c, Result{}, err)
		}
		return err
	}
	s.noteSweep(parentWarmed)

	queue := make([]int, 0, len(todo))
	own := -1 // the point the parent serves
	for i := range mine {
		if cfg, err := ConfigFor(mine[i], scheme); err == nil && own < 0 && cfg == w.Machine().Cfg {
			own = i
		} else {
			queue = append(queue, i)
		}
	}
	forks := len(queue) // points still to fork from the parent
	if w.Done() {
		forks = 0
	}
	if own >= 0 {
		queue = append(queue, own)
	} else if forks == 0 {
		s.releaseParent(w)
	}

	var mu sync.Mutex // orders the pops and every read of the parent
	errs := make([]error, len(todo))
	// drain finishes queued points on its caller's token until none is left.
	drain := func() {
		for {
			mu.Lock()
			if len(queue) == 0 {
				mu.Unlock()
				return
			}
			i := queue[0]
			queue = queue[1:]
			var cont *RunCont
			var err error
			if i != own && forks > 0 {
				var cfg system.Config
				if cfg, err = ConfigFor(mine[i], scheme); err == nil {
					cont, err = w.Fork(cfg)
				}
				if err == nil {
					s.noteSweep(forkMade)
				}
				if forks--; forks == 0 && own < 0 {
					s.releaseParent(w)
				}
			}
			mu.Unlock()
			var res Result
			switch {
			case err != nil:
			case i == own:
				res, err = w.Resume()
				s.noteSweep(parentResumed)
			case cont != nil:
				res, err = cont.Finish()
				s.noteSweep(forkFinished)
			default:
				res, err = Run(b, scheme, mine[i])
			}
			fill(todo[i], res, err)
			errs[i] = err
		}
	}
	// The warm-up's token drains the queue; helpers join on tokens freed
	// meanwhile.
	var wg sync.WaitGroup
	for range len(queue) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.sem <- struct{}{}
			drain()
			<-s.sem
		}()
	}
	drain()
	<-s.sem
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweepEvent is one thing a sweep does with a machine it warmed or forked.
type sweepEvent int

const (
	parentWarmed  sweepEvent = iota
	parentResumed            // and finished
	parentReleased
	forkMade
	forkFinished
)

// noteSweep hands ev to the suite's onSweep hook, if a test set one.
func (s *Suite) noteSweep(ev sweepEvent) {
	if s.onSweep != nil {
		s.onSweep(ev)
	}
}

// releaseParent releases a sweep's warmed parent once nothing will fork it.
func (s *Suite) releaseParent(w *WarmRun) {
	w.Machine().Release()
	s.noteSweep(parentReleased)
}

// Prefetch runs every pair concurrently on the worker pool, warming the
// memo so the figure generators' subsequent collection loops hit the cache.
// ErrUnsupported pairs (the paper's missing bars) are not errors; the first
// other failure is returned after all workers finish.
func (s *Suite) Prefetch(pairs []Pair) error {
	return forEach(len(pairs), func(i int) error {
		_, err := s.Run(pairs[i])
		if errors.Is(err, ErrUnsupported) {
			return nil
		}
		return err
	})
}

// forEach runs fn(0..n-1) on separate goroutines, waits for all, and
// returns the lowest-indexed error so a parallel suite reports the same
// failure a serial one would have hit first.
func forEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// collect is the figure loop every benchmark×scheme table shares: prefetch
// the cross product so the simulations overlap on the worker pool, then hand
// row each benchmark's results keyed by scheme, in benches order. A pair the
// benchmark does not support (the paper's missing bars) is absent from the
// map; any other failure aborts the figure before row has run at all, so a
// caller's rows are empty whenever the error is set.
func (s *Suite) collect(benches []*workloads.Benchmark, schemes []Scheme,
	row func(b *workloads.Benchmark, r map[Scheme]Result)) error {
	var pairs []Pair
	for _, b := range benches {
		for _, sch := range schemes {
			pairs = append(pairs, Pair{Bench: b, Scheme: sch})
		}
	}
	if err := s.Prefetch(pairs); err != nil {
		return err
	}
	results := make([]map[Scheme]Result, len(benches))
	for i, b := range benches {
		results[i] = make(map[Scheme]Result, len(schemes))
		for _, sch := range schemes {
			res, err := s.Run(Pair{Bench: b, Scheme: sch})
			if errors.Is(err, ErrUnsupported) {
				continue
			}
			if err != nil {
				return err
			}
			results[i][sch] = res
		}
	}
	for i, b := range benches {
		row(b, results[i])
	}
	return nil
}

// Fig7Row is one benchmark's bars in Figure 7: speedup over no prefetching.
// Missing bars (PageRank software/converted) are NaN.
type Fig7Row struct {
	Benchmark string
	Speedup   map[Scheme]float64
}

// staticSpeedups computes one benchmark's Figure 7 bars from its results
// under NoPF and every Schemes entry: NaN where the benchmark does not
// support the scheme.
func staticSpeedups(r map[Scheme]Result) map[Scheme]float64 {
	bars := make(map[Scheme]float64, len(Schemes))
	for _, sch := range Schemes {
		bars[sch] = math.NaN()
		if res, ok := r[sch]; ok {
			bars[sch] = Speedup(r[NoPF], res)
		}
	}
	return bars
}

// Fig7 reproduces Figure 7: speedups for all schemes on all benchmarks.
func (s *Suite) Fig7() ([]Fig7Row, error) {
	var rows []Fig7Row
	err := s.collect(workloads.All, append([]Scheme{NoPF}, Schemes...), func(b *workloads.Benchmark, r map[Scheme]Result) {
		rows = append(rows, Fig7Row{Benchmark: b.Name, Speedup: staticSpeedups(r)})
	})
	return rows, err
}

// FormatFig7 renders the Figure 7 data as an aligned text table.
func FormatFig7(rows []Fig7Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s", "bench")
	for _, sch := range Schemes {
		fmt.Fprintf(&sb, " %12s", sch)
	}
	sb.WriteByte('\n')
	geo := map[Scheme][]float64{}
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s", r.Benchmark)
		for _, sch := range Schemes {
			v := r.Speedup[sch]
			if math.IsNaN(v) {
				fmt.Fprintf(&sb, " %12s", "-")
			} else {
				fmt.Fprintf(&sb, " %11.2fx", v)
				geo[sch] = append(geo[sch], v)
			}
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%-10s", "geomean")
	for _, sch := range Schemes {
		fmt.Fprintf(&sb, " %11.2fx", geomean(geo[sch]))
	}
	sb.WriteByte('\n')
	return sb.String()
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Fig8Row is one benchmark's Figure 8 data: prefetch utilisation before L1
// eviction (8a) and the L1 read hit rate without/with the programmable
// prefetcher (8b), plus the L2 hit rates behind the G500-List annotation.
type Fig8Row struct {
	Benchmark   string
	Utilisation float64
	L1HitNoPF   float64
	L1HitPF     float64
	L2HitNoPF   float64
	L2HitPF     float64
}

// Fig8 reproduces Figure 8.
func (s *Suite) Fig8() ([]Fig8Row, error) {
	var rows []Fig8Row
	err := s.collect(workloads.All, []Scheme{NoPF, Manual}, func(b *workloads.Benchmark, r map[Scheme]Result) {
		base, man := r[NoPF], r[Manual]
		rows = append(rows, Fig8Row{
			Benchmark:   b.Name,
			Utilisation: man.L1.PrefetchUtilisation(),
			L1HitNoPF:   base.L1.ReadHitRate(),
			L1HitPF:     man.L1.ReadHitRate(),
			L2HitNoPF:   base.L2.ReadHitRate(),
			L2HitPF:     man.L2.ReadHitRate(),
		})
	})
	return rows, err
}

// FormatFig8 renders both Figure 8 panels.
func FormatFig8(rows []Fig8Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %12s %10s %10s %10s %10s\n",
		"bench", "pf-util(8a)", "L1 no-pf", "L1 pf", "L2 no-pf", "L2 pf")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %12.2f %10.2f %10.2f %10.2f %10.2f\n",
			r.Benchmark, r.Utilisation, r.L1HitNoPF, r.L1HitPF, r.L2HitNoPF, r.L2HitPF)
	}
	return sb.String()
}

// Fig9aClocks are the PPU frequencies swept in Figure 9(a).
var Fig9aClocks = []int{250, 500, 1000, 2000}

// Fig9bClocks and Fig9bPPUs are the Figure 9(b) sweep dimensions.
var (
	Fig9bClocks = []int{125, 250, 500, 1000, 2000, 4000}
	Fig9bPPUs   = []int{3, 6, 12}
)

// Fig9aRow is one benchmark's speedup as PPU frequency varies (12 PPUs).
type Fig9aRow struct {
	Benchmark string
	Speedup   map[int]float64 // MHz → speedup over no prefetching
}

// clockSweep returns b's Manual speedup over no prefetching at each PPU
// clock, with ppus units (0 = default). The clock points share one warm-up
// (sweep): the machine is warmed once at the suite's default clock to two
// thirds of the no-prefetch dynamic op count and forked per point the memo
// still lacks, so a sweep costs little more than one run instead of one per
// point. Away from the default clock the shared warm-up is functional
// warming — the sweep measures steady-state behaviour, which is exactly what
// Figure 9 plots.
func (s *Suite) clockSweep(b *workloads.Benchmark, ppus int, clocks []int) (map[int]float64, error) {
	base, err := s.Run(Pair{Bench: b, Scheme: NoPF}) // its op count sizes the warm-up
	if err != nil {
		return nil, err
	}
	opts := make([]Options, len(clocks))
	for i, mhz := range clocks {
		opts[i] = s.pairOptions(Pair{PPUs: ppus, PPUMHz: mhz})
	}
	if err := s.sweep(b, Manual, s.pairOptions(Pair{PPUs: ppus}), base.Core.Ops*2/3, opts); err != nil {
		return nil, err
	}
	speedup := make(map[int]float64, len(clocks))
	for i, mhz := range clocks {
		r, err := s.measure(b, Manual, opts[i])
		if err != nil {
			return nil, err
		}
		speedup[mhz] = Speedup(base, r)
	}
	return speedup, nil
}

// Fig9a reproduces Figure 9(a): one clock sweep per benchmark, the sweeps
// overlapping on the worker pool.
func (s *Suite) Fig9a() ([]Fig9aRow, error) {
	rows := make([]Fig9aRow, len(workloads.All))
	err := forEach(len(rows), func(i int) error {
		b := workloads.All[i]
		speedup, err := s.clockSweep(b, 0, Fig9aClocks)
		rows[i] = Fig9aRow{Benchmark: b.Name, Speedup: speedup}
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatFig9a renders the Figure 9(a) series.
func FormatFig9a(rows []Fig9aRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s", "bench")
	for _, mhz := range Fig9aClocks {
		fmt.Fprintf(&sb, " %8dMHz", mhz)
	}
	sb.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s", r.Benchmark)
		for _, mhz := range Fig9aClocks {
			fmt.Fprintf(&sb, " %10.2fx", r.Speedup[mhz])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Fig9bCell is one (PPU count, frequency) point for G500-CSR.
type Fig9bCell struct {
	PPUs    int
	MHz     int
	Speedup float64
}

// Fig9b reproduces Figure 9(b): G500-CSR speedup across PPU count and clock,
// one clock sweep per PPU count. Cells come back row-major, Fig9bPPUs by
// Fig9bClocks.
func (s *Suite) Fig9b() ([]Fig9bCell, error) {
	grid := make([]map[int]float64, len(Fig9bPPUs))
	err := forEach(len(grid), func(i int) (err error) {
		grid[i], err = s.clockSweep(workloads.G500CSR, Fig9bPPUs[i], Fig9bClocks)
		return err
	})
	if err != nil {
		return nil, err
	}
	var cells []Fig9bCell
	for i, ppus := range Fig9bPPUs {
		for _, mhz := range Fig9bClocks {
			cells = append(cells, Fig9bCell{PPUs: ppus, MHz: mhz, Speedup: grid[i][mhz]})
		}
	}
	return cells, nil
}

// FormatFig9b renders the Figure 9(b) grid from cells in Fig9b's row-major
// order.
func FormatFig9b(cells []Fig9bCell) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s", "PPUs")
	for _, mhz := range Fig9bClocks {
		fmt.Fprintf(&sb, " %8dMHz", mhz)
	}
	sb.WriteByte('\n')
	for i, ppus := range Fig9bPPUs {
		fmt.Fprintf(&sb, "%-8d", ppus)
		for j := range Fig9bClocks {
			fmt.Fprintf(&sb, " %10.2fx", cells[i*len(Fig9bClocks)+j].Speedup)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Fig10Row is one benchmark's PPU activity distribution (Figure 10): the
// fraction of time each of the 12 units is awake, with the scheduler's
// lowest-id-first policy making the spread informative.
type Fig10Row struct {
	Benchmark                string
	Activity                 []float64 // per PPU, unit id order
	Min, Q1, Median, Q3, Max float64
}

// Fig10 reproduces Figure 10.
func (s *Suite) Fig10() ([]Fig10Row, error) {
	var rows []Fig10Row
	err := s.collect(workloads.All, []Scheme{Manual}, func(b *workloads.Benchmark, r map[Scheme]Result) {
		row := Fig10Row{Benchmark: b.Name, Activity: r[Manual].Activity}
		sorted := append([]float64(nil), row.Activity...)
		sort.Float64s(sorted)
		q := func(f float64) float64 {
			idx := f * float64(len(sorted)-1)
			lo := int(idx)
			if lo >= len(sorted)-1 {
				return sorted[len(sorted)-1]
			}
			frac := idx - float64(lo)
			return sorted[lo]*(1-frac) + sorted[lo+1]*frac
		}
		row.Min, row.Q1, row.Median, row.Q3, row.Max = q(0), q(0.25), q(0.5), q(0.75), q(1)
		rows = append(rows, row)
	})
	return rows, err
}

// FormatFig10 renders the Figure 10 box data.
func FormatFig10(rows []Fig10Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %6s %6s %6s %6s %6s\n", "bench", "min", "q1", "med", "q3", "max")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %6.2f %6.2f %6.2f %6.2f %6.2f\n",
			r.Benchmark, r.Min, r.Q1, r.Median, r.Q3, r.Max)
	}
	return sb.String()
}

// Fig11Row compares event-triggered execution with blocking on
// intermediate loads (Figure 11).
type Fig11Row struct {
	Benchmark string
	Blocked   float64
	Events    float64
}

// Fig11 reproduces Figure 11.
func (s *Suite) Fig11() ([]Fig11Row, error) {
	var rows []Fig11Row
	err := s.collect(workloads.All, []Scheme{NoPF, Manual, ManualBlocked}, func(b *workloads.Benchmark, r map[Scheme]Result) {
		rows = append(rows, Fig11Row{
			Benchmark: b.Name,
			Blocked:   Speedup(r[NoPF], r[ManualBlocked]),
			Events:    Speedup(r[NoPF], r[Manual]),
		})
	})
	return rows, err
}

// FormatFig11 renders the Figure 11 comparison.
func FormatFig11(rows []Fig11Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %10s %10s\n", "bench", "blocked", "events")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %9.2fx %9.2fx\n", r.Benchmark, r.Blocked, r.Events)
	}
	return sb.String()
}

// InstrRow is the §7.1 dynamic-instruction-overhead analysis of software
// prefetching.
type InstrRow struct {
	Benchmark   string
	PlainOps    int64
	SWPfOps     int64
	IncreasePct float64
}

// InstrOverhead reproduces the §7.1 instruction-increase numbers
// (paper: IntSort +113 %, RandAcc +83 %, HJ-2 +56 %). Benchmarks without a
// software-prefetch variant have no row.
func (s *Suite) InstrOverhead() ([]InstrRow, error) {
	var rows []InstrRow
	err := s.collect(workloads.All, []Scheme{NoPF, Software}, func(b *workloads.Benchmark, r map[Scheme]Result) {
		sw, ok := r[Software]
		if !ok {
			return
		}
		base := r[NoPF]
		rows = append(rows, InstrRow{
			Benchmark:   b.Name,
			PlainOps:    base.Core.Ops,
			SWPfOps:     sw.Core.Ops,
			IncreasePct: 100 * (float64(sw.Core.Ops)/float64(base.Core.Ops) - 1),
		})
	})
	return rows, err
}

// FormatInstrOverhead renders the instruction-overhead analysis.
func FormatInstrOverhead(rows []InstrRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %12s %12s %10s\n", "bench", "plain ops", "swpf ops", "increase")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %12d %12d %9.0f%%\n", r.Benchmark, r.PlainOps, r.SWPfOps, r.IncreasePct)
	}
	return sb.String()
}

// ExtraMemRow is the §7.2 extra-memory-traffic analysis: DRAM reads with
// the programmable prefetcher relative to no prefetching
// (paper: G500-List +40 %, G500-CSR +16 %, the rest negligible).
type ExtraMemRow struct {
	Benchmark string
	BaseReads int64
	PFReads   int64
	ExtraPct  float64
	// Chain latency of the Manual run's prefetches, in ticks: mean
	// generation→L1-issue and generation→memory-fill delays, with resident
	// hits (targets already in the L1) counted apart from real fills.
	MeanIssueTicks float64
	MeanFillTicks  float64
	Fills          int64
	ResidentHits   int64
}

// ExtraMem reproduces the extra-memory-access analysis.
func (s *Suite) ExtraMem() ([]ExtraMemRow, error) {
	var rows []ExtraMemRow
	err := s.collect(workloads.All, []Scheme{NoPF, Manual}, func(b *workloads.Benchmark, r map[Scheme]Result) {
		base, man := r[NoPF], r[Manual]
		row := ExtraMemRow{
			Benchmark:    b.Name,
			BaseReads:    base.DRAM.Reads,
			PFReads:      man.DRAM.Reads,
			ExtraPct:     100 * (float64(man.DRAM.Reads)/float64(base.DRAM.Reads) - 1),
			Fills:        man.PF.FillCount,
			ResidentHits: man.PF.FillObservations - man.PF.FillCount,
		}
		if man.PF.Issued > 0 {
			row.MeanIssueTicks = float64(man.PF.IssueLatencySum) / float64(man.PF.Issued)
		}
		if man.PF.FillCount > 0 {
			row.MeanFillTicks = float64(man.PF.FillLatencySum) / float64(man.PF.FillCount)
		}
		rows = append(rows, row)
	})
	return rows, err
}

// FormatExtraMem renders the extra-traffic analysis with the prefetch-chain
// latency breakdown (ticks; 16 ticks = 1 ns).
func FormatExtraMem(rows []ExtraMemRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %12s %12s %10s %11s %11s %10s %10s\n",
		"bench", "no-pf reads", "pf reads", "extra", "gen→issue", "gen→fill", "fills", "resident")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %12d %12d %9.0f%% %11.0f %11.0f %10d %10d\n",
			r.Benchmark, r.BaseReads, r.PFReads, r.ExtraPct,
			r.MeanIssueTicks, r.MeanFillTicks, r.Fills, r.ResidentHits)
	}
	return sb.String()
}

// Table1 renders the simulated-machine configuration (the paper's Table 1).
func Table1(opt Options) string {
	cfg := table1
	if opt.Config != nil {
		cfg = *opt.Config
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Core      %d-wide OoO @%d MHz, ROB %d, LQ %d, SQ %d, mispredict %d cycles\n",
		cfg.Width, cfg.CoreMHz, cfg.ROB, cfg.LQ, cfg.SQ, cfg.MispredictPenalty)
	fmt.Fprintf(&sb, "L1D       %d KB %d-way, %d-cycle hit, %d MSHRs\n",
		cfg.L1.SizeBytes>>10, cfg.L1.Ways, cfg.L1.HitCycles, cfg.L1.MSHRs)
	fmt.Fprintf(&sb, "L2        %d KB %d-way, %d-cycle hit, %d MSHRs\n",
		cfg.L2.SizeBytes>>10, cfg.L2.Ways, cfg.L2.HitCycles, cfg.L2.MSHRs)
	fmt.Fprintf(&sb, "TLB       L1 %d-entry, L2 %d-entry %d-way (%d-cycle), %d walkers\n",
		cfg.TLB.L1Entries, cfg.TLB.L2Entries, cfg.TLB.L2Ways, cfg.TLB.L2HitCycles, cfg.TLB.Walks)
	fmt.Fprintf(&sb, "DRAM      DDR3-%d-ish %d-%d-%d, %d banks, %d B rows\n",
		cfg.DRAM.BusMHz*2, cfg.DRAM.TRCD, cfg.DRAM.TCAS, cfg.DRAM.TRP, cfg.DRAM.Banks, cfg.DRAM.RowBytes)
	fmt.Fprintf(&sb, "Prefetch  %d PPUs @%d ticks/cycle, obs queue %d, request queue %d\n",
		cfg.Prefetcher.NumPPUs, cfg.Prefetcher.PPUClock.Period, cfg.Prefetcher.ObsQueue, cfg.Prefetcher.ReqQueue)
	fmt.Fprintf(&sb, "Stride    RPT %d entries, degree %d\n", cfg.Stride.Entries, cfg.Stride.Degree)
	fmt.Fprintf(&sb, "GHB       Markov depth %d width %d, index/GHB %d/%d (regular)\n",
		cfg.GHB.Depth, cfg.GHB.Width, cfg.GHB.IndexSize, cfg.GHB.GHBSize)
	return sb.String()
}

// Table2 renders the benchmark summary (the paper's Table 2).
func Table2() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-10s %-45s %s\n", "bench", "source", "pattern", "paper input")
	for _, b := range workloads.All {
		fmt.Fprintf(&sb, "%-10s %-10s %-45s %s\n", b.Name, b.Source, b.Pattern, b.Input)
	}
	return sb.String()
}

// Fig12Row is one benchmark's row in the adaptive-control study (the
// repository's Figure 12, not a paper figure): speedup over no prefetching
// for the online adaptive controller, for every static Figure 7 scheme, and
// for the oracle-best static — the per-benchmark maximum a scheme picked
// with perfect hindsight would achieve. Statics a benchmark does not
// support are NaN, as in Figure 7.
type Fig12Row struct {
	Benchmark string
	Adaptive  float64
	// Oracle is the best static speedup on this benchmark; OracleScheme
	// names the static that achieved it.
	Oracle       float64
	OracleScheme Scheme
	Static       map[Scheme]float64
	// Switches and IdleDemotes summarise the controller's activity.
	Switches    int64
	IdleDemotes int64
}

// Fig12 runs the adaptive-control comparison: the adaptive controller
// against every static scheme and the oracle-best static, on the Table 2
// benchmarks plus the Extra workloads (the synthetic phase-alternation
// study), which figure sweeps over All deliberately exclude.
func (s *Suite) Fig12() ([]Fig12Row, error) {
	benches := append(append([]*workloads.Benchmark{}, workloads.All...), workloads.Extra...)
	var rows []Fig12Row
	err := s.collect(benches, append([]Scheme{NoPF, Adaptive}, Schemes...), func(b *workloads.Benchmark, r map[Scheme]Result) {
		ad := r[Adaptive]
		row := Fig12Row{
			Benchmark: b.Name,
			Adaptive:  Speedup(r[NoPF], ad),
			Oracle:    math.NaN(),
			Static:    staticSpeedups(r),
		}
		if ad.Adaptive != nil {
			row.Switches = ad.Adaptive.Switches
			row.IdleDemotes = ad.Adaptive.IdleDemotes
		}
		for _, sch := range Schemes {
			v := row.Static[sch]
			if math.IsNaN(v) {
				continue
			}
			if math.IsNaN(row.Oracle) || v > row.Oracle {
				row.Oracle, row.OracleScheme = v, sch
			}
		}
		rows = append(rows, row)
	})
	return rows, err
}

// FormatFig12 renders the adaptive-control study. The closing geomean row
// holds the claim TestExperimentTablesGolden pins: the adaptive geomean is
// above every fixed-function static's (DESIGN §18.6).
func FormatFig12(rows []Fig12Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %9s %9s %-10s", "bench", "adaptive", "oracle", "(scheme)")
	for _, sch := range Schemes {
		fmt.Fprintf(&sb, " %12s", sch)
	}
	sb.WriteByte('\n')
	var adGeo, orGeo []float64
	geo := map[Scheme][]float64{}
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %8.2fx %8.2fx %-10s", r.Benchmark, r.Adaptive, r.Oracle, r.OracleScheme)
		adGeo = append(adGeo, r.Adaptive)
		orGeo = append(orGeo, r.Oracle)
		for _, sch := range Schemes {
			v := r.Static[sch]
			if math.IsNaN(v) {
				fmt.Fprintf(&sb, " %12s", "-")
			} else {
				fmt.Fprintf(&sb, " %11.2fx", v)
				geo[sch] = append(geo[sch], v)
			}
		}
		sb.WriteByte('\n')
	}
	fmt.Fprintf(&sb, "%-10s %8.2fx %8.2fx %-10s", "geomean", geomean(adGeo), geomean(orGeo), "")
	for _, sch := range Schemes {
		fmt.Fprintf(&sb, " %11.2fx", geomean(geo[sch]))
	}
	sb.WriteByte('\n')
	return sb.String()
}
