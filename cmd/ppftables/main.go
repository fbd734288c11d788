// Command ppftables regenerates the paper's tables and figures (Tables 1–2,
// Figures 7–11, the §7 textual analyses, and the repository's own Figure 12
// adaptive-control study) as aligned text tables. The experiments come from
// the harness.Experiments registry.
//
// Usage:
//
//	ppftables                 # every experiment at the default scale
//	ppftables -exp fig7       # one experiment
//	ppftables -scale 1.0      # full reduced-input size (slower)
//	ppftables -parallel 8     # cap the worker pool (default GOMAXPROCS)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"eventpf/internal/harness"
)

func main() {
	var ids []string
	for _, e := range harness.Experiments {
		ids = append(ids, e.ID)
	}
	var (
		exp      = flag.String("exp", "all", "experiment id ("+strings.Join(ids, " ")+") or 'all'")
		scale    = flag.Float64("scale", 0.15, "input scale relative to the default reduced inputs")
		parallel = flag.Int("parallel", 0, "max concurrent simulations (0 = GOMAXPROCS, 1 = serial)")
	)
	flag.Parse()

	todo := harness.Experiments
	if *exp != "all" {
		todo = nil
		for _, e := range harness.Experiments {
			if e.ID == *exp {
				todo = append(todo, e)
			}
		}
		if todo == nil {
			fmt.Fprintf(os.Stderr, "ppftables: unknown experiment %q; valid: %s all\n", *exp, strings.Join(ids, " "))
			os.Exit(2)
		}
	}
	suite := harness.NewSuite(harness.Options{Scale: *scale, Parallel: *parallel})
	for _, e := range todo {
		start := time.Now()
		out, err := e.Table(suite)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppftables: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Printf("== %s (scale %.2f, %v) ==\n%s\n", e.ID, *scale, time.Since(start).Round(time.Millisecond), out)
	}
}
