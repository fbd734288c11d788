package harness

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"time"

	"eventpf/internal/system"
	"eventpf/internal/workloads"
)

// sweepLog counts what a suite's sweeps do with their machines (the
// Suite.onSweep hook), and the most parents (warmed, not yet resumed or
// released) and forks (made, not yet finished) alive at once.
type sweepLog struct {
	mu                     sync.Mutex
	parents, forks         int
	peakParents, peakForks int
	n                      map[sweepEvent]int
}

func watchSweeps(s *Suite) *sweepLog {
	l := &sweepLog{n: map[sweepEvent]int{}}
	s.onSweep = func(ev sweepEvent) {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.n[ev]++
		switch ev {
		case parentWarmed:
			l.parents++
			l.peakParents = max(l.peakParents, l.parents)
		case parentResumed, parentReleased:
			l.parents--
		case forkMade:
			l.forks++
			l.peakForks = max(l.peakForks, l.forks)
		case forkFinished:
			l.forks--
		}
	}
	return l
}

// check fails t unless the sweeps made and finished forks forks, and resumed
// and released their parents resumed and released times, once each.
func (l *sweepLog) check(t *testing.T, forks, resumed, released int) {
	t.Helper()
	if l.n[parentWarmed] != resumed+released {
		t.Errorf("%d parents warmed, %d resumed, %d released", l.n[parentWarmed], l.n[parentResumed], l.n[parentReleased])
	}
	if l.n[forkMade] != forks || l.n[forkFinished] != forks {
		t.Errorf("%d forks made, %d finished; want %d", l.n[forkMade], l.n[forkFinished], forks)
	}
	if l.n[parentResumed] != resumed || l.n[parentReleased] != released {
		t.Errorf("parent resumed %d times, released %d; want %d and %d",
			l.n[parentResumed], l.n[parentReleased], resumed, released)
	}
}

// clockOptions are the options of one sweep point per PPU clock, with ppus
// units (0 = default).
func clockOptions(s *Suite, ppus int, clocks []int) []Options {
	opts := make([]Options, len(clocks))
	for i, mhz := range clocks {
		opts[i] = s.pairOptions(Pair{PPUs: ppus, PPUMHz: mhz})
	}
	return opts
}

// measureWithin reads every entry of opts back through measure, failing t if
// the reads have not all returned within a minute: a claimed entry nobody
// filled would block them forever.
func measureWithin(t *testing.T, s *Suite, b *workloads.Benchmark, opts []Options) ([]Result, []error) {
	t.Helper()
	res := make([]Result, len(opts))
	errs := make([]error, len(opts))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, opt := range opts {
			res[i], errs[i] = s.measure(b, Manual, opt)
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("measure still blocked a minute after the sweep returned")
	}
	return res, errs
}

// TestSweepForksOnDemand pins the sweeps' memory bound. Two sweeps run side
// by side, as Figure 9(b)'s do. A point is forked only when a worker takes
// it, and a warmed parent keeps the warm-up's token until its last fork, so
// a suite never holds more parents, nor more forks, than it has workers; and
// each parent ends exactly once — resumed for its own clock, or released
// after the last fork when no point has that clock. The two-worker row forks
// while another continuation finishes, which the race detector watches under
// -short too, and its results match the serial row's wherever the two share
// a point.
func TestSweepForksOnDemand(t *testing.T) {
	b := workloads.HJ2
	ppus := []int{6, 12}
	swept := map[[2]int][]byte{} // (PPUs, clock) → result bytes
	for _, tc := range []struct {
		parallel          int
		clocks            []int
		resumed, released int // per sweep
	}{
		{1, Fig9bClocks, 1, 0}, // 1000 MHz is the warm-up's own clock
		{2, []int{125, 250, 500, 2000, 4000, 8000}, 0, 1},
	} {
		s := NewSuite(Options{Scale: figScale, Parallel: tc.parallel})
		log := watchSweeps(s)
		opts := make([][]Options, len(ppus))
		err := forEach(len(ppus), func(k int) error {
			opts[k] = clockOptions(s, ppus[k], tc.clocks)
			return s.sweep(b, Manual, s.pairOptions(Pair{PPUs: ppus[k]}), 5_000, opts[k])
		})
		if err != nil {
			t.Fatal(err)
		}
		if log.peakParents > tc.parallel || log.peakForks > tc.parallel {
			t.Errorf("Parallel %d: %d parents and %d forks alive at once", tc.parallel, log.peakParents, log.peakForks)
		}
		n := len(ppus)
		log.check(t, n*(len(tc.clocks)-tc.resumed), n*tc.resumed, n*tc.released)
		for k, p := range ppus {
			res, errs := measureWithin(t, s, b, opts[k])
			for i, mhz := range tc.clocks {
				if errs[i] != nil {
					t.Fatalf("%d PPUs at %d MHz: %v", p, mhz, errs[i])
				}
				got := encode(t, res[i])
				if prev, ok := swept[[2]int{p, mhz}]; ok && !bytes.Equal(prev, got) {
					t.Errorf("%d PPUs at %d MHz: the serial and the two-worker sweep differ", p, mhz)
				}
				swept[[2]int{p, mhz}] = got
			}
		}
	}
}

// TestSweepEdgePaths covers the two ways a sweep point does not come from a
// fork: a program that ends before the fork point, whose parent serves its
// own point while the others run in full, and a point whose configuration a
// fork refuses, which gets the fork's error while the others get results.
func TestSweepEdgePaths(t *testing.T) {
	b := workloads.HJ2
	full := func(t *testing.T, opt Options) []byte {
		r, err := Run(b, Manual, opt)
		if err != nil {
			t.Fatal(err)
		}
		return encode(t, r)
	}

	t.Run("program-ends-first", func(t *testing.T) {
		for _, tc := range []struct {
			clocks            []int
			resumed, released int
		}{
			{[]int{500, 1000, 2000}, 1, 0},
			{[]int{500, 2000}, 0, 1},
		} {
			s := NewSuite(Options{Scale: figScale})
			log := watchSweeps(s)
			opts := clockOptions(s, 0, tc.clocks)
			if err := s.sweep(b, Manual, s.Opt, math.MaxInt64, opts); err != nil {
				t.Fatal(err)
			}
			log.check(t, 0, tc.resumed, tc.released)
			res, errs := measureWithin(t, s, b, opts)
			for i, mhz := range tc.clocks {
				if errs[i] != nil {
					t.Fatalf("%d MHz: %v", mhz, errs[i])
				}
				if !bytes.Equal(encode(t, res[i]), full(t, opts[i])) {
					t.Errorf("%d MHz differs from its full run", mhz)
				}
			}
		}
	})

	t.Run("fork-refused", func(t *testing.T) {
		s := NewSuite(Options{Scale: figScale})
		log := watchSweeps(s)
		obs, mshrs := system.DefaultConfig(), system.DefaultConfig()
		obs.Prefetcher.ObsQueue = 10
		mshrs.L1.MSHRs = 24 // cache geometry: ForkWith refuses it
		table1 := s.withConfig(system.DefaultConfig())
		opts := []Options{s.withConfig(obs), s.withConfig(mshrs), table1}
		sweepErr := s.sweep(b, Manual, table1, 5_000, opts)
		if sweepErr == nil {
			t.Fatal("a sweep with an unforkable point returned no error")
		}
		log.check(t, 1, 1, 0)
		res, errs := measureWithin(t, s, b, opts)
		if errs[1] != sweepErr {
			t.Errorf("the MSHR point's entry holds %v, want the sweep's error %v", errs[1], sweepErr)
		}
		for _, i := range []int{0, 2} {
			if errs[i] != nil {
				t.Errorf("point %d: %v", i, errs[i])
			}
		}
		if !bytes.Equal(encode(t, res[2]), full(t, s.Opt)) {
			t.Error("the warm-up's own point differs from its full run")
		}
	})
}
