package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sort"
)

func readResultFile(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return f, fmt.Errorf("%s holds no runs", path)
	}
	return f, nil
}

// series collects one metric's values over a file's runs.
func series(f resultFile, workload, metric string) []float64 {
	var xs []float64
	for _, run := range f.Runs {
		if v, ok := run[workload].Metrics[metric]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

func sortedMetrics(f resultFile, workload string) []string {
	set := map[string]bool{}
	for _, run := range f.Runs {
		for n := range run[workload].Metrics {
			set[n] = true
		}
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printSpread reports, after -repeat, each end-to-end metric's median,
// quartiles and spread (quartile distance over median) beside its bound.
func printSpread(f resultFile) {
	fmt.Printf("\n%-15s %-16s %12s %12s %12s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range workloadDefs {
		for _, d := range endToEnd {
			q1, med, q3 := quartiles(series(f, w.Name, d.Name))
			fmt.Printf("%-15s %-16s %12.6g %12.6g %12.6g %7.2f%% %7.0f%%\n", w.Name, d.Name, q1, med, q3, 100*ratio(q3-q1, med), 100*d.Bound)
		}
	}
}

// verdict judges one end-to-end metric of B against A. worse is how much
// B's median is worse than A's, as a share of A's; the metric regressed when
// that exceeds the bound, and is unresolved when the runs' own spread is
// wider than the bound and the two sets of runs overlap.
func verdict(d metricDef, a, b []float64) (string, float64) {
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	worse := ratio(bm-am, am)
	if d.Better == "higher" {
		worse = -worse
	}
	spread := max(ratio(aq3-aq1, am), ratio(bq3-bq1, bm))
	overlap := slices.Min(a) <= slices.Max(b) && slices.Min(b) <= slices.Max(a)
	switch {
	case spread > d.Bound && overlap:
		return "unresolved", worse
	case worse > d.Bound:
		return "regressed", worse
	}
	return "unchanged", worse
}

// compareFiles prints a verdict per workload × metric and returns the exit
// code: 1 on any regression, any failed operation in B, or any exact metric
// that differs; 2 when the files must not be compared.
func compareFiles(pathA, pathB string) int {
	a, err := readResultFile(pathA)
	if err != nil {
		fatalf("%v", err)
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fatalf("%v", err)
	}
	if a.Meta.Host.NumCPU != b.Meta.Host.NumCPU || a.Meta.Seed != b.Meta.Seed || a.Meta.Seconds != b.Meta.Seconds ||
		a.Meta.Ladder != b.Meta.Ladder || !reflect.DeepEqual(a.Meta.Scales, b.Meta.Scales) {
		fmt.Fprintf(os.Stderr, "benchmark: refusing to compare: the files differ in NumCPU, seed, seconds or scales\n  %s: %+v\n  %s: %+v\n",
			pathA, a.Meta, pathB, b.Meta)
		return 2
	}
	exit := 0
	fmt.Printf("%-15s %-36s %14s %14s %9s  %s\n", "workload", "metric", "median A", "median B", "B worse", "verdict")
	for _, w := range workloadDefs {
		for _, name := range sortedMetrics(a, w.Name) {
			xa, xb := series(a, w.Name, name), series(b, w.Name, name)
			if len(xb) == 0 {
				fmt.Printf("%-15s %-36s missing from B\n", w.Name, name)
				exit = 1
				continue
			}
			d, _ := findMetric(name)
			var what string
			var worse float64
			switch {
			case name == "failed_share":
				what = "unchanged"
				if slices.Max(xb) > 0 {
					what, exit = "regressed (operations failed)", 1
				}
			case d.Bound > 0:
				if what, worse = verdict(d, xa, xb); what == "regressed" {
					exit = 1
				}
			case exact(d):
				what = "identical"
				if !reflect.DeepEqual(xa[:1], xb[:1]) || slices.Min(xa) != slices.Max(xa) || slices.Min(xb) != slices.Max(xb) {
					what, exit = "DIFFERS (exact metric)", 1
				}
			default:
				continue // probes and traced timings carry no bound
			}
			fmt.Printf("%-15s %-36s %14.6g %14.6g %8.2f%%  %s\n", w.Name, name, median(xa), median(xb), 100*worse, what)
		}
	}
	return exit
}
