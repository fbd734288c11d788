package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// config is one child invocation: a single workload, traced or not.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Traced   bool
	// Scale and Requests override the workload's sizes (the smoke test);
	// zero keeps the defaults.
	Scale    float64
	Requests int
	OutDir   string
}

// workers is the size of every pool the benchmark's load comes from: the
// Suite's Parallel, the server's Workers and the closed-loop client count.
func workers() int { return min(runtime.NumCPU(), 4) }

// workload is the shape all five workloads share. A pass is the workload's
// fixed operation list run once; the measured phase repeats whole passes.
type workload interface {
	// setup builds the inputs the passes need, ending with one small warm-up
	// simulation. It is timed as setup_s and may run several times; each call
	// replaces what the previous one built.
	setup() error
	pass()
	// verify runs the checks that need the whole phase (replay equals capture,
	// served bytes equal a direct run's); failures go through run.fail.
	verify()
	// counts reports the per-layer count metrics of the passes run so far;
	// tally is the sum of their simulated statistics.
	counts(m map[string]float64)
	tally() *tally
	close()
}

// passStat is what one pass cost the host.
type passStat struct {
	wallS     float64
	allocMB   float64
	mallocsM  float64
	cpuS      float64
	peakRSSMB float64
	simOps    int64
	ops       int
}

// run records one child invocation: operations attempted and failed, their
// latencies, the wall time of every sequential step of every pass, and —
// in a traced run — a span around every call into a layer.
type run struct {
	cfg   config
	plan  plan
	spans *spanLog

	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
	// latMS[slot] holds the latency of the pass's slot-th operation, one per
	// pass in which it succeeded.
	latMS  map[int][]float64
	simOps int64 // program micro-ops completed in the current pass

	stepWall map[string][]float64 // step name → wall seconds, one per pass
	stepSeq  []string             // step names in first-seen order
	passes   []passStat
	setupS   []float64
}

func newRun(cfg config) (*run, error) {
	def, ok := lookupWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Scale != 0 {
		def.Scale = cfg.Scale
	}
	if cfg.Requests == 0 {
		cfg.Requests = serveRequests
	}
	r := &run{cfg: cfg, stepWall: map[string][]float64{}, latMS: map[int][]float64{}}
	// The traced run of the two long serial lists takes every third item, to
	// leave time for the probes. The other three run whole: the figures
	// cannot be split, the engines' CPI errors are a maximum over all pairs,
	// and a p99 needs the full 1200 requests.
	third := cfg.Traced && (cfg.Workload == wPPFDetail || cfg.Workload == wHWPF)
	r.plan = makePlan(cfg.Workload, planConfig{Seed: cfg.Seed, Scale: def.Scale, Requests: cfg.Requests, Third: third})
	if cfg.Traced {
		r.spans = newSpanLog(cfg.Workload)
	}
	return r, nil
}

// op counts one attempted operation, the slot-th of its pass. A refused,
// errored or oracle-failing operation is failed and contributes no latency.
func (r *run) op(slot int, latency time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failLocked(err.Error())
		return
	}
	r.latMS[slot] = append(r.latMS[slot], float64(latency.Nanoseconds())/1e6)
}

// latencies returns every recorded operation latency, all passes pooled.
func (r *run) latencies() []float64 {
	var all []float64
	for _, xs := range r.latMS {
		all = append(all, xs...)
	}
	return all
}

// fail records a failed check that is not itself an operation's error.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failLocked(fmt.Sprintf(format, args...))
}

func (r *run) failLocked(msg string) {
	r.failed++
	if len(r.errs) < 20 {
		r.errs = append(r.errs, msg)
	}
}

func (r *run) addSimOps(n int64) {
	r.mu.Lock()
	r.simOps += n
	r.mu.Unlock()
}

// step times one sequential piece of a pass under a span; fn receives the
// span's id so calls inside it can nest theirs.
func (r *run) step(name string, fn func(span int)) {
	sp := r.spans.begin(name, 0)
	t0 := time.Now()
	fn(sp)
	d := time.Since(t0).Seconds()
	r.spans.end(sp)
	if _, seen := r.stepWall[name]; !seen {
		r.stepSeq = append(r.stepSeq, name)
	}
	r.stepWall[name] = append(r.stepWall[name], d)
}

// measure runs whole passes until the run has measured for about
// cfg.Seconds: at least one, and another only while the time already spent
// plus half a pass still fits. A traced run makes a single pass.
func (r *run) measure(w workload) {
	start := time.Now()
	for {
		// Every pass starts from a collected heap whose free pages are back
		// with the OS, so its peak RSS is its own.
		debug.FreeOSMemory()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := processCPUSeconds()
		r.simOps = 0
		ops0 := r.attempted
		stopRSS := sampleRSS()
		t0 := time.Now()
		w.pass()
		wall := time.Since(t0).Seconds()
		peak := stopRSS()
		runtime.ReadMemStats(&m1)
		r.passes = append(r.passes, passStat{
			wallS:     wall,
			allocMB:   float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
			mallocsM:  float64(m1.Mallocs-m0.Mallocs) / 1e6,
			cpuS:      processCPUSeconds() - cpu0,
			peakRSSMB: peak,
			simOps:    r.simOps,
			ops:       r.attempted - ops0,
		})
		if r.cfg.Traced || time.Since(start).Seconds()+wall/2 >= r.cfg.Seconds {
			return
		}
	}
}

// endToEnd computes the end-to-end metrics of the measured phase.
//
// Host noise on the sandbox is one-sided and large — the same simulation
// repeated back to back takes 5 to 20 % longer than its best time, now and
// then 60 % — so times are taken as the best of the passes, step by step:
// wall_s is the sum over the pass's steps of each step's shortest wall, and
// lat_p50_ms the median over the pass's operations of each operation's
// shortest latency. A burst that slows some steps of some passes moves
// neither; a change that slows a step slows its every pass, and shows.
func (r *run) endToEnd() map[string]float64 {
	wall := 0.0
	for _, name := range r.stepSeq {
		wall += slices.Min(r.stepWall[name])
	}
	var best []float64
	for _, xs := range r.latMS {
		best = append(best, slices.Min(xs))
	}
	var alloc, mallocs, rss, simOps, ops []float64
	for _, p := range r.passes {
		alloc = append(alloc, p.allocMB)
		mallocs = append(mallocs, p.mallocsM)
		rss = append(rss, p.peakRSSMB)
		simOps = append(simOps, float64(p.simOps))
		ops = append(ops, float64(p.ops))
	}
	return map[string]float64{
		"setup_s":        median(r.setupS),
		"wall_s":         wall,
		"sim_mops_per_s": ratio(median(simOps)/1e6, wall),
		"req_per_s":      ratio(median(ops), wall),
		"lat_p50_ms":     median(best),
		"alloc_mb":       median(alloc),
		"mallocs_m":      median(mallocs),
		"peak_rss_mb":    median(rss),
	}
}

// stepSeconds is the wall time of every timed step of every pass, summed.
func (r *run) stepSeconds() float64 {
	total := 0.0
	for _, walls := range r.stepWall {
		for _, w := range walls {
			total += w
		}
	}
	return total
}

// sampleRSS polls the process's resident set every few milliseconds until
// the returned function is called, which reports the largest value seen in
// MB. (VmHWM would do for a single pass, but it never comes down, so later
// passes could not be told from the first.)
func sampleRSS() (stop func() float64) {
	done, peak := make(chan struct{}), make(chan float64)
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		top := residentMB()
		for {
			select {
			case <-tick.C:
				top = max(top, residentMB())
			case <-done:
				peak <- max(top, residentMB())
				return
			}
		}
	}()
	return func() float64 { close(done); return <-peak }
}

// residentMB reads the resident set size from /proc/self/statm.
func residentMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
