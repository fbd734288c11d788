// Command ppftracegen captures a benchmark's micro-op stream to a trace file
// in the native tracein format, for later replay with ppfsim -trace-in (or
// any other front end via JobSpec.Trace). The capture run simulates in full
// timing detail under the chosen scheme — the stream itself is
// scheme-independent (prefetchers never change committed ops), so no-pf, the
// default, is the cheapest choice.
//
// Usage:
//
//	ppftracegen -bench RandAcc -scale 0.1 -o randacc.ppft.gz
//	ppfsim -trace-in randacc.ppft.gz -scheme stride
//
// An output path ending in .gz is gzip-compressed; Open auto-detects either
// form on replay.
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"eventpf/internal/cpu"
	"eventpf/internal/harness"
	"eventpf/internal/tracein"
	"eventpf/internal/workloads"
)

func main() {
	var (
		benchName = flag.String("bench", "RandAcc", "benchmark to capture (see ppfsim -list-benches)")
		schemeStr = flag.String("scheme", "no-pf", "scheme to simulate during capture: "+strings.Join(harness.SchemeNames(), " "))
		scale     = flag.Float64("scale", 0.25, "input scale relative to the default reduced input")
		out       = flag.String("o", "", "output trace path (required; a .gz suffix gzip-compresses)")
	)
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "ppftracegen: -o is required")
		os.Exit(2)
	}
	b, err := workloads.ByName(*benchName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppftracegen: %v\n", err)
		os.Exit(2)
	}
	scheme, ok := harness.ParseScheme(*schemeStr)
	if !ok {
		fmt.Fprintf(os.Stderr, "ppftracegen: unknown scheme %q; valid: %s\n",
			*schemeStr, strings.Join(harness.SchemeNames(), " "))
		os.Exit(2)
	}

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppftracegen: %v\n", err)
		os.Exit(1)
	}
	var w io.Writer = f
	var zw *gzip.Writer
	if strings.HasSuffix(*out, ".gz") {
		zw = gzip.NewWriter(f)
		w = zw
	}
	sink := tracein.NewWriter(w, tracein.Meta{
		Bench:  b.Name,
		Scheme: scheme.String(),
		Scale:  *scale,
		Tool:   "ppftracegen",
	})

	opt := harness.Options{Scale: *scale, OpSink: sink}
	res, runErr := harness.Run(b, scheme, opt)

	err = sink.Close()
	if zw != nil {
		if zerr := zw.Close(); err == nil {
			err = zerr
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if runErr != nil {
		os.Remove(*out)
		fmt.Fprintf(os.Stderr, "ppftracegen: %v\n", runErr)
		os.Exit(1)
	}
	if err != nil {
		os.Remove(*out)
		fmt.Fprintf(os.Stderr, "ppftracegen: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("captured %s under %s: %d ops (%d loads, %d stores, %d branches) in %d cycles -> %s\n",
		b.Name, scheme, sink.Count(),
		sink.KindCount(cpu.OpLoad), sink.KindCount(cpu.OpStore), sink.KindCount(cpu.OpBranch),
		res.Cycles, *out)
}
