// Command ppfload drives a running ppfserve with a configurable mix of
// fresh and duplicate simulation requests and reports what the service
// did with them: submit→done latency percentiles, cache/dedup hit rate,
// and whether any duplicate was ever re-simulated — counted twice over:
// from the replies (those neither cached nor deduplicated may not outnumber
// the distinct configs sent) and from /metrics (nor may the server's own
// count of simulations it started, ppfserve_memo_misses, grow by more).
//
// Usage:
//
//	ppfload -addr http://localhost:8091 -n 200 -c 8 -dup 0.5 -assert 0.5
//
// With -assert set, the exit code is nonzero when the observed hit rate
// falls below the threshold or when the server simulated a duplicate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

type spec struct {
	Bench  string  `json:"bench"`
	Scheme string  `json:"scheme"`
	Scale  float64 `json:"scale"`
}

type submitResponse struct {
	ID     string `json:"id"`
	Key    string `json:"key"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Dedup  bool   `json:"dedup"`
	Error  string `json:"error"`
}

type outcome struct {
	latency time.Duration
	cached  bool
	dedup   bool
	key     string
	retries int
	err     error
}

func main() {
	var (
		addr    = flag.String("addr", "http://localhost:8091", "ppfserve base URL")
		n       = flag.Int("n", 100, "total requests to send")
		conc    = flag.Int("c", 8, "concurrent in-flight requests")
		rps     = flag.Float64("rps", 0, "target request rate (0 = as fast as -c allows)")
		dup     = flag.Float64("dup", 0.5, "fraction of requests that repeat an earlier config")
		benches = flag.String("bench", "", "comma-separated benchmarks (default: ask the server)")
		schemes = flag.String("scheme", "stride,ghb-regular", "comma-separated schemes to mix")
		scale   = flag.Float64("scale", 0.02, "input scale for every request")
		seed    = flag.Int64("seed", 1, "RNG seed for the request mix")
		assert  = flag.Float64("assert", -1, "fail unless hit rate >= this and no duplicate re-simulated (-1 = report only)")
	)
	flag.Parse()

	if *conc < 1 {
		fmt.Fprintf(os.Stderr, "ppfload: -c %d: need at least one concurrent request\n", *conc)
		os.Exit(2)
	}
	benchList, err := resolveBenches(*addr, *benches)
	if err != nil {
		fatalf("resolving benchmark list: %v", err)
	}
	schemeList := splitList(*schemes)
	if len(benchList) == 0 || len(schemeList) == 0 {
		fatalf("need at least one benchmark and one scheme")
	}

	before, err := scrapeMetrics(*addr)
	if err != nil {
		fatalf("scraping /metrics before run: %v", err)
	}

	specs, distinctPlanned := buildMix(benchList, schemeList, *scale, *n, *dup, *seed)
	fmt.Printf("ppfload: %d requests (%d distinct configs, dup ratio %.0f%%) against %s\n",
		len(specs), distinctPlanned, *dup*100, *addr)

	outcomes := fire(*addr, specs, *conc, *rps)

	after, err := scrapeMetrics(*addr)
	if err != nil {
		fatalf("scraping /metrics after run: %v", err)
	}
	ok := report(outcomes, before, after, *assert)
	if !ok {
		os.Exit(1)
	}
}

// resolveBenches returns the explicit -bench list, or asks the server's
// /benchmarks endpoint when none was given.
func resolveBenches(addr, explicit string) ([]string, error) {
	if explicit != "" {
		return splitList(explicit), nil
	}
	resp, err := http.Get(addr + "/benchmarks")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var body struct {
		Benchmarks []string `json:"benchmarks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	return body.Benchmarks, nil
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// buildMix deterministically expands the bench×scheme cross product into a
// request sequence: each request is either the next unused config or — with
// probability dup — a repeat of one already sent. Returns the sequence and
// how many distinct configs it contains.
func buildMix(benches, schemes []string, scale float64, n int, dup float64, seed int64) ([]spec, int) {
	var pool []spec
	for _, b := range benches {
		for _, sc := range schemes {
			pool = append(pool, spec{Bench: b, Scheme: sc, Scale: scale})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })

	seq := make([]spec, 0, n)
	used := 0
	for len(seq) < n {
		repeat := used > 0 && (rng.Float64() < dup || used == len(pool))
		if repeat {
			seq = append(seq, pool[rng.Intn(used)])
		} else {
			seq = append(seq, pool[used])
			used++
		}
	}
	return seq, used
}

// fire sends every spec through a bounded worker pool, pacing admissions to
// the target rate when one is set. Each request uses ?wait=1 so the measured
// latency spans submit → terminal state; 429s are retried after the server's
// Retry-After hint (capped so a wedged server cannot hang the run).
func fire(addr string, specs []spec, conc int, rps float64) []outcome {
	jobs := make(chan int)
	outcomes := make([]outcome, len(specs))
	var wg sync.WaitGroup
	client := &http.Client{} // no timeout: ?wait=1 legitimately blocks for a full simulation
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				outcomes[i] = post(client, addr, specs[i])
			}
		}()
	}
	var tick *time.Ticker
	if rps > 0 {
		tick = time.NewTicker(time.Duration(float64(time.Second) / rps))
		defer tick.Stop()
	}
	for i := range specs {
		if tick != nil {
			<-tick.C
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return outcomes
}

func post(client *http.Client, addr string, sp spec) outcome {
	body, _ := json.Marshal(sp)
	start := time.Now()
	var out outcome
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(addr+"/jobs?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			out.err = err
			break
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 50 {
			out.retries++
			wait := time.Second
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > 0 {
				wait = time.Duration(ra) * time.Second
			}
			time.Sleep(wait)
			continue
		}
		var sr submitResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			out.err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
			break
		}
		out.key = sr.Key
		out.cached = sr.Cached
		out.dedup = sr.Dedup
		if resp.StatusCode != http.StatusOK {
			out.err = fmt.Errorf("status %d: %s", resp.StatusCode, sr.Error)
		}
		break
	}
	out.latency = time.Since(start)
	return out
}

func report(outcomes []outcome, before, after map[string]int64, assert float64) bool {
	var (
		lats          []time.Duration
		cached, dedup int
		errs, retries int
		total         = len(outcomes)
		distinct      = map[string]struct{}{}
		simulated     int // replies that were neither cached nor dedup
	)
	for _, o := range outcomes {
		lats = append(lats, o.latency)
		retries += o.retries
		if o.err != nil {
			errs++
			continue
		}
		if o.key != "" {
			distinct[o.key] = struct{}{}
		}
		switch {
		case o.cached:
			cached++
		case o.dedup:
			dedup++
		default:
			simulated++
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(q float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		return lats[int(q*float64(len(lats)-1))]
	}
	hits := cached + dedup
	hitRate := 0.0
	if total > 0 {
		hitRate = float64(hits) / float64(total)
	}
	missDelta := after["ppfserve_memo_misses"] - before["ppfserve_memo_misses"]

	fmt.Printf("  latency  p50=%v p90=%v p99=%v max=%v\n", pct(0.50), pct(0.90), pct(0.99), pct(1.0))
	fmt.Printf("  hit rate %.1f%%  (cached=%d dedup=%d simulated=%d errors=%d retries=%d)\n",
		hitRate*100, cached, dedup, simulated, errs, retries)
	fmt.Printf("  distinct configs sent=%d  server memo-miss delta=%d\n", len(distinct), missDelta)

	ok := true
	if errs > 0 {
		fmt.Printf("  FAIL: %d requests errored\n", errs)
		ok = false
	}
	switch {
	case simulated > len(distinct):
		fmt.Printf("  FAIL: %d replies were fresh simulations but only %d distinct configs were sent — a duplicate was re-simulated\n",
			simulated, len(distinct))
		ok = false
	case missDelta > int64(len(distinct)):
		fmt.Printf("  FAIL: server simulated %d configs but only %d distinct were sent — a duplicate was re-simulated\n",
			missDelta, len(distinct))
		ok = false
	default:
		fmt.Printf("  no duplicate request was re-simulated\n")
	}
	if assert >= 0 && hitRate < assert {
		fmt.Printf("  FAIL: hit rate %.1f%% below asserted minimum %.1f%%\n", hitRate*100, assert*100)
		ok = false
	}
	if assert < 0 {
		return true // report-only mode
	}
	return ok
}

func scrapeMetrics(addr string) (map[string]int64, error) {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	m := map[string]int64{}
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 {
			continue
		}
		if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
			m[f[0]] = v
		}
	}
	return m, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ppfload: "+format+"\n", args...)
	os.Exit(1)
}
