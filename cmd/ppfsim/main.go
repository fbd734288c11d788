// Command ppfsim runs one benchmark under one prefetching scheme and prints
// the run's statistics.
//
// Usage:
//
//	ppfsim -bench HJ-8 -scheme manual -scale 0.25
//	ppfsim -bench HJ-8 -scheme manual -baseline -parallel 2
//	ppfsim -list
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"eventpf/internal/harness"
	"eventpf/internal/system"
	"eventpf/internal/trace"
	"eventpf/internal/tracein"
	"eventpf/internal/workloads"
)

// usageError marks a mistake on the command line: exit status 2, not 1.
type usageError struct{ error }

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "ppfsim: %v\n", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run is the whole program. It returns its failure rather than exiting, so
// the deferred profile writers run on every path: a profile of a failing run
// is still a readable file.
func run() (err error) {
	var (
		benchName = flag.String("bench", "HJ-2", "benchmark name (see -list or -list-benches)")
		traceIn   = flag.String("trace-in", "", "replay a captured trace file (ppftracegen output or a ChampSim trace) instead of -bench")
		schemeStr = flag.String("scheme", "manual", "one of: "+strings.Join(harness.SchemeNames(), " "))
		scale     = flag.Float64("scale", 0.25, "input scale relative to the default reduced input")
		ppus      = flag.Int("ppus", 0, "override PPU count (0 = default 12)")
		ppuMHz    = flag.Int("ppu-mhz", 0, "override PPU clock in MHz (0 = default 1000)")
		baseline  = flag.Bool("baseline", false, "also run without prefetching and report the speedup")
		parallel  = flag.Int("parallel", 0, "with -baseline, run both simulations concurrently (0 = GOMAXPROCS, 1 = serial)")
		slices    = flag.Int("slices", 0, "time-parallel slices per run: >1 splits the run across cores via functional warming (approximate but deterministic), 0 keeps the exact serial engine")
		traceN    = flag.Int("trace", 0, "dump the last N prefetcher trace events after the run")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace-event JSON (Perfetto-loadable) of the run to this file")
		metrics   = flag.Bool("metrics", false, "print the metrics registry (counters + queue-occupancy histograms) after the run (to stderr with -json)")
		jsonOut   = flag.Bool("json", false, "emit the full result record as JSON")
		sample    = flag.Bool("sample", false, "run under SMARTS-style interval sampling (detailed intervals + functionally-warmed fast-forward)")
		sWarm     = flag.Int64("sample-warm", 0, "with -sample, detailed warmup ops before each measurement interval (0 = default)")
		sMeasure  = flag.Int64("sample-measure", 0, "with -sample, measured ops per detailed interval (0 = default)")
		sFF       = flag.Int64("sample-ff", 0, "with -sample, fast-forwarded ops between detailed intervals (0 = default)")
		list      = flag.Bool("list", false, "list benchmarks and exit")
		listBench = flag.Bool("list-benches", false, "print every resolvable benchmark name (Table 2 rows and extras), one per line, and exit")
		listSch   = flag.Bool("list-schemes", false, "print the registered scheme names, one per line, and exit")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write an allocation profile taken after the run to this file")
	)
	flag.Parse()

	if *list {
		fmt.Print(harness.Table2())
		return nil
	}
	if *listBench {
		// Column 1 is the parseable name; scripts should select on it ($1),
		// not the whole line. Mirrors -list-schemes.
		for _, b := range workloads.Menu() {
			origin := "table2"
			if workloads.IsExtra(b) {
				origin = "extra"
			}
			fmt.Printf("%-10s %-7s %-40s %s\n", b.Name, origin, b.Pattern, b.Input)
		}
		return nil
	}
	if *listSch {
		// Column 1 is the parseable name; scripts should select on it
		// ($1), not the whole line.
		for _, s := range harness.AllSchemes {
			info, _ := s.Info()
			prog, fig7 := "-", "-"
			if info.Machine.IsProgrammable() {
				prog = "programmable"
			}
			if info.Fig7 {
				fig7 = "fig7"
			}
			fmt.Printf("%-15s %-12s %-5s %s\n", info.Name, prog, fig7, info.Description)
		}
		return nil
	}

	if *cpuProf != "" {
		stop, perr := startCPUProfile(*cpuProf)
		if perr != nil {
			return perr
		}
		defer func() {
			if serr := stop(); err == nil {
				err = serr
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			if werr := writeHeapProfile(*memProf); err == nil {
				err = werr
			}
		}()
	}

	var b *workloads.Benchmark
	if *traceIn != "" {
		b = tracein.Bench(*traceIn)
	} else if b, err = workloads.ByName(*benchName); err != nil {
		return usageError{err}
	}
	scheme, ok := harness.ParseScheme(*schemeStr)
	if !ok {
		return usageError{fmt.Errorf("unknown scheme %q; valid: %s",
			*schemeStr, strings.Join(harness.SchemeNames(), " "))}
	}
	if *baseline && *jsonOut {
		// The JSON record has no field for the baseline run, so the
		// combination would simulate it and throw it away.
		return usageError{errors.New("-baseline and -json cannot be combined: the JSON record carries no speedup")}
	}

	opt := harness.Options{Scale: *scale, PPUs: *ppus, PPUMHz: *ppuMHz, TraceLast: *traceN, Slices: *slices}
	if _, err := harness.ConfigFor(opt, scheme); err != nil {
		return usageError{err} // a -scale, -ppus or -ppu-mhz no machine can be built with
	}
	if *sample {
		sc := system.DefaultSampleConfig()
		if *sWarm > 0 {
			sc.WarmupOps = *sWarm
		}
		if *sMeasure > 0 {
			sc.MeasureOps = *sMeasure
		}
		if *sFF > 0 {
			sc.FFOps = *sFF
		}
		opt.Sample = &sc
	}

	// -baseline's no-pf run is the same run minus the observers: -trace-out
	// and -metrics describe the measured run only.
	baseOpt := opt
	var collector *trace.Collector
	if *traceOut != "" {
		collector = trace.NewCollector()
		opt.TraceSink = collector
	}
	var reg *trace.Registry
	if *metrics {
		reg = trace.NewRegistry()
		opt.Metrics = reg
	}

	var res, base harness.Result
	measure := func() (err error) { res, err = harness.Run(b, scheme, opt); return err }
	runBaseline := *baseline && scheme != harness.NoPF
	if runBaseline {
		// Two independent, deterministic simulations: running them
		// concurrently or one after the other (-parallel 1) prints the same.
		err = forBoth(*parallel == 1, measure,
			func() (err error) { base, err = harness.Run(b, harness.NoPF, baseOpt); return err })
	} else {
		err = measure()
	}
	if err != nil {
		return err
	}
	if collector != nil {
		lay, err := harness.LayoutFor(opt, scheme)
		if err != nil {
			return err
		}
		if err := writeChromeTrace(*traceOut, collector.Events(), lay); err != nil {
			return err
		}
	}
	// observed reports what the run's observers gathered: where the trace
	// went and the metrics registry.
	observed := func(w io.Writer) {
		if collector != nil {
			fmt.Fprintf(w, "\ntrace: %d simulator events exported to %s\n", len(collector.Events()), *traceOut)
		}
		if reg != nil {
			fmt.Fprintln(w, "\nmetrics:")
			fmt.Fprint(w, reg.Format())
		}
	}
	if *jsonOut {
		// EncodeResult is the canonical encoding ppfserve caches; using it
		// here keeps the CLI and the daemon byte-identical for one config.
		// Stdout carries nothing else, so the observers report to stderr.
		if err := harness.EncodeResult(os.Stdout, res); err != nil {
			return err
		}
		observed(os.Stderr)
		return nil
	}
	printResult(res)
	if res.Trace != nil {
		fmt.Println("\nlast prefetcher events:")
		res.Trace.Dump(os.Stdout)
	}
	observed(os.Stdout)

	if runBaseline {
		fmt.Printf("\nno-pf cycles   %12d\nspeedup        %12.2fx\n",
			base.Cycles, harness.Speedup(base, res))
	}
	return nil
}

// startCPUProfile begins profiling into path; stop ends it and closes the file.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // flush dead objects so the profile shows live + cumulative allocs accurately
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeChromeTrace(path string, events []trace.Event, lay trace.Layout) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, events, lay); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// forBoth runs the two closures — concurrently unless serial — and returns the
// first error, preferring a's (the measured run) so error messages stay
// deterministic.
func forBoth(serial bool, a, b func() error) error {
	if serial {
		if err := a(); err != nil {
			return err
		}
		return b()
	}
	errA := make(chan error, 1)
	go func() { errA <- a() }()
	errB := b()
	if err := <-errA; err != nil {
		return err
	}
	return errB
}

func printResult(r harness.Result) {
	fmt.Printf("benchmark      %12s\nscheme         %12s\n", r.Benchmark, r.Scheme)
	fmt.Printf("cycles         %12d\ninstructions   %12d\nipc            %12.3f\n",
		r.Cycles, r.Core.Ops, float64(r.Core.Ops)/float64(r.Cycles))
	fmt.Printf("L1 hit rate    %12.3f\nL2 hit rate    %12.3f\n",
		r.L1.ReadHitRate(), r.L2.ReadHitRate())
	fmt.Printf("DRAM reads     %12d\nbranch mispred %12d\n", r.DRAM.Reads, r.Core.Mispredicts)
	if r.PF.KernelRuns > 0 {
		fmt.Printf("kernel runs    %12d\nprefetches     %12d issued, %12d generated\n",
			r.PF.KernelRuns, r.PF.Issued, r.PF.PFGenerated)
		fmt.Printf("pf utilisation %12.3f\n", r.L1.PrefetchUtilisation())
		fmt.Printf("obs dropped    %12d\nreq dropped    %12d\n", r.PF.ObsDropped, r.PF.ReqDropped)
	}
	if r.Baseline.Issued > 0 {
		fmt.Printf("hw-pf issued   %12d (of %d generated)\n", r.Baseline.Issued, r.Baseline.Generated)
	}
	if r.Pass != nil {
		fmt.Printf("compiler pass  %12d chains converted, %d failed, %d kernels\n",
			r.Pass.Converted, r.Pass.Failed, len(r.Pass.Kernels))
	}
	if s := r.Sampled; s != nil {
		fmt.Printf("sampled        %12d of %d ops detailed (%d intervals)\nest. cycles    %12d\n",
			s.DetailedOps, s.TotalOps, s.Intervals, s.EstimatedCycles)
	}
	if tp := r.TimeParallel; tp != nil {
		var warm int64
		for _, w := range tp.WarmOps {
			warm += w
		}
		fmt.Printf("time-parallel  %12d slices (%d ops functionally warmed)\n", tp.Slices, warm)
	}
	if r.Fallback != "" {
		fmt.Printf("engine         %s\n", r.Fallback)
	}
}
