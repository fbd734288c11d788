// Command benchmark is the repository's one-command layered benchmark: five
// named workloads, end-to-end metrics measured with tracing off, per-layer
// counts and probes from a separate traced run, and a correctness check of
// every output. See README.md in this directory.
//
//	bash benchmark/run.sh                          # all five workloads, both runs, a table
//	bash benchmark/run.sh -out r.json -repeat 5    # five such runs into one file
//	bash benchmark/run.sh -compare a.json b.json   # verdict per workload × metric
//	bash benchmark/run.sh --workload serve-mix --seed 7 --seconds 15 --trace 0
//
// The last form runs one workload once and prints one JSON object as its
// final line; it is what the driver of BENCHMARK.json calls, and what the
// all-workloads form re-executes itself as, once per workload and run, so
// heap state and peak RSS never leak from one workload into the next.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print the result as the last line (default: all five)")
		seed     = flag.Int64("seed", 1, "seed for scale ladder steps, run order and the serve request mix")
		seconds  = flag.Float64("seconds", 15, "how long one run measures; whole passes are repeated until then")
		traced   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: untraced, the end-to-end metrics")
		out      = flag.String("out", "", "all-workloads form: also write every metric as JSON to this file")
		repeat   = flag.Int("repeat", 1, "all-workloads form: make this many runs and report medians and quartiles")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments; exit 1 on a regression")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()

	switch {
	case *manifest:
		fmt.Println(manifestJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare takes two result files")
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *workload != "":
		cfg := config{Workload: *workload, Seed: *seed, Seconds: *seconds, Traced: *traced != 0, OutDir: outDir}
		watchdog(cfg)
		os.Exit(childMain(cfg))
	default:
		os.Exit(runAll(*seed, *seconds, *repeat, *out))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// outDir receives span traces, goroutine dumps and scratch trace files. The
// command runs from the repository root (run.sh goes there).
const outDir = "benchmark/out"

// childDeadline is how long one workload run may last before it is stopped
// and counted failed. The builder's contract gives a run 180 seconds; a
// 15-second run takes about 25 here, so anything near the limit is a hang.
const childDeadline = 170 * time.Second

// childMain is the single-workload form. Everything but the last line is
// for people; the last line is the result.
func childMain(cfg config) int {
	res, r, err := runChild(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("# %s seed=%d trace=%v passes=%d operations=%d failed=%d\n",
		cfg.Workload, cfg.Seed, cfg.Traced, len(r.passes), r.attempted, r.failed)
	for i, p := range r.passes {
		fmt.Printf("# pass %d: wall %.3fs cpu %.3fs alloc %.1fMB peak rss %.1fMB\n", i+1, p.wallS, p.cpuS, p.allocMB, p.peakRSSMB)
	}
	for _, e := range r.errs {
		fmt.Println("# failed:", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Meta fileMeta     `json:"meta"`
	Runs []fullResult `json:"runs"`
}

type fileMeta struct {
	Host    hostMeta           `json:"host"`
	Seed    int64              `json:"seed"`
	Seconds float64            `json:"seconds"`
	Scales  map[string]float64 `json:"scales"`
	Ladder  [3]float64         `json:"ladder"`
}

// fullResult is one run of all five workloads: workload → metric → value,
// end-to-end and per-layer together, plus the operations counted.
type fullResult map[string]workloadResult

type workloadResult struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// runAll is the all-workloads form: for each workload an untraced child and
// a traced child, every metric printed as "workload metric value unit".
func runAll(seed int64, seconds float64, repeat int, outPath string) int {
	file := resultFile{Meta: fileMeta{Host: readHostMeta(), Seed: seed, Seconds: seconds, Scales: map[string]float64{}, Ladder: ladder}}
	for _, w := range workloadDefs {
		file.Meta.Scales[w.Name] = w.Scale
	}
	exit := 0
	for i := 0; i < repeat; i++ {
		full := fullResult{}
		for _, w := range workloadDefs {
			wr := workloadResult{Metrics: map[string]float64{}}
			for _, trace := range []int{0, 1} {
				res, err := execChild(w.Name, seed, seconds, trace)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s (trace=%d): %v\n", w.Name, trace, err)
					wr.Attempted++
					wr.Failed++
					exit = 1
					continue
				}
				wr.Attempted += res.Attempted
				wr.Failed += res.Failed
				for name, v := range res.Metrics {
					wr.Metrics[name] = v.Value
				}
			}
			wr.Metrics["failed_share"] = ratio(float64(wr.Failed), float64(wr.Attempted))
			if wr.Failed > 0 {
				exit = 1
			}
			full[w.Name] = wr
			printWorkload(w.Name, wr)
		}
		printProbes(full)
		file.Runs = append(file.Runs, full)
	}
	if repeat > 1 {
		printSpread(file)
	}
	if outPath != "" {
		b, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return exit
}

// execChild re-executes this program for one workload and parses the last
// line of its output. The child stops itself at the deadline (and leaves a
// goroutine dump); the context is the backstop if it cannot.
func execChild(workload string, seed int64, seconds float64, trace int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childDeadline+10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe,
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return result{}, runErr
		}
		return result{}, fmt.Errorf("no result line: %w", err)
	}
	for _, l := range lines[:len(lines)-1] {
		if strings.HasPrefix(l, "# failed:") {
			fmt.Fprintln(os.Stderr, workload, l)
		}
	}
	return res, nil
}

func printWorkload(name string, wr workloadResult) {
	names := make([]string, 0, len(wr.Metrics))
	for n := range wr.Metrics {
		names = append(names, n)
	}
	// End-to-end metrics first, in their declared order; then the layers.
	rank := map[string]int{}
	for i, d := range endToEnd {
		rank[d.Name] = i - len(endToEnd)
	}
	sort.Slice(names, func(i, j int) bool {
		if rank[names[i]] != rank[names[j]] {
			return rank[names[i]] < rank[names[j]]
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		d, ok := findMetric(n)
		if !ok {
			d.Unit = "ratio" // failed_share
		}
		if d.Kind != "probe" {
			fmt.Printf("%-15s %-36s %14.6g %s\n", name, n, wr.Metrics[n], d.Unit)
		}
	}
}

// printProbes reports the layer probes once. They do not depend on the
// workload, but every traced child has to run them (each is a whole contract
// invocation and needs them for its est_share rows), so the value printed is
// the median over the children; -out keeps each child's own.
func printProbes(full fullResult) {
	for _, d := range perLayer {
		if d.Kind != "probe" {
			continue
		}
		var xs []float64
		for _, wr := range full {
			if v, ok := wr.Metrics[d.Name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			fmt.Printf("%-15s %-36s %14.6g %s\n", "probes", d.Name, median(xs), d.Unit)
		}
	}
}

// benchmarkManifest mirrors BENCHMARK.json, whose keys are fixed by the
// builder's contract; everything else the issue wanted recorded there (metric
// layers and kinds, what each should move, reference-host values) is in
// README.md and reference.json in this directory.
type benchmarkManifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWork   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func manifestJSON() string {
	m := benchmarkManifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 15,
	}
	for _, w := range workloadDefs {
		m.Workloads = append(m.Workloads, manifestWork{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(b)
}
