package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eventpf/internal/harness"
	"eventpf/internal/serve"
)

// serveWork is serve-mix. Every pass starts a fresh in-process server (cold
// cache) behind a real loopback socket and drives it closed-loop: each of
// workers() clients sends its next POST /jobs?wait=1 only when the previous
// reply has arrived, because the service's callers are scripts waiting on a
// result.
type serveWork struct {
	r      *run
	t      tally
	bodies [][]byte // request body per plan item
	keys   []string // content key per plan item

	mu      sync.Mutex // guards the counters below while clients run
	results [][]byte   // this pass: the first result seen per config

	requests, hits, dedups, retries int64
	resimulated                     int64
	memoHits, memoMisses            int64
	// Engine events and ops of the direct runs verify makes (traced run only).
	events, eventOps    int64
	hitLatUS, missLatMS []float64
	cached              map[int][]byte // last pass: server cache bytes of the sampled configs
}

func newServeWork(r *run) *serveWork { return &serveWork{r: r} }

func (w *serveWork) setup() error {
	w.bodies, w.keys = nil, nil
	for _, it := range w.r.plan.Items {
		spec := harness.JobSpec{Bench: it.Bench, Scheme: it.Scheme, Scale: it.Scale}
		job, err := spec.Resolve()
		if err != nil {
			return fmt.Errorf("serve-mix config %s: %w", it, err)
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		w.bodies = append(w.bodies, body)
		w.keys = append(w.keys, job.Key())
	}
	// Start and stop a server once, so a cost moved into server start shows.
	srv, ts := w.startServer()
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err == nil {
		resp.Body.Close()
	}
	stopServer(srv, ts)
	if err != nil {
		return fmt.Errorf("serve-mix: server did not answer /healthz: %w", err)
	}
	return warmUp()
}

func (w *serveWork) startServer() (*serve.Server, *httptest.Server) {
	srv := serve.NewServer(serve.Config{Workers: workers()})
	return srv, httptest.NewServer(srv.Handler())
}

func stopServer(srv *serve.Server, ts *httptest.Server) {
	ts.Close()
	drain(srv)
}

// drain stops the server's worker goroutines and waits for them.
func drain(srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Drain(ctx) // workers are idle: every request was answered
}

// reply is the part of a POST /jobs response the client reads.
type reply struct {
	Key    string          `json:"key"`
	Cached bool            `json:"cached"`
	Dedup  bool            `json:"dedup"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

func (w *serveWork) pass() {
	srv, ts := w.startServer()
	defer stopServer(srv, ts)
	client := ts.Client()
	w.results = make([][]byte, len(w.bodies))

	n := len(w.r.plan.Requests)
	for round := 0; round < serveRounds; round++ {
		var next atomic.Int64
		next.Store(int64(n * round / serveRounds))
		end := int64(n * (round + 1) / serveRounds)
		w.r.step(fmt.Sprintf("closed-loop %d/%d", round+1, serveRounds), func(stepSpan int) {
			var wg sync.WaitGroup
			for c := 0; c < workers(); c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= end {
							return
						}
						w.request(client, ts.URL, int(i), stepSpan)
					}
				}()
			}
			wg.Wait()
		})
	}

	// After the timed step: what the server simulated, and whether anything
	// was simulated twice.
	distinct := 0
	for _, raw := range w.results {
		if raw == nil {
			continue
		}
		distinct++
		var res harness.Result
		if err := json.Unmarshal(raw, &res); err != nil {
			w.r.fail("serve-mix: result does not decode: %v", err)
			continue
		}
		w.r.addSimOps(programOps(res))
		w.t.add(res)
	}
	counters, err := scrape(client, ts.URL)
	misses, ok := counters["ppfserve_memo_misses"]
	if err != nil {
		w.r.fail("serve-mix: %v", err)
	} else if !ok {
		w.r.fail("serve-mix: /metrics has no ppfserve_memo_misses")
	} else if re := misses - int64(distinct); re != 0 {
		w.resimulated += re
		w.r.fail("serve-mix: %d simulations for %d distinct configs", misses, distinct)
	}
	w.memoHits += counters["ppfserve_memo_hits"]
	w.memoMisses += misses
	w.sampleCache(srv)
}

// request sends the i-th request of the pass and records its outcome.
func (w *serveWork) request(client *http.Client, url string, i, parent int) {
	cfg := w.r.plan.Requests[i]
	sp := w.r.spans.begin("POST /jobs", parent)
	start := time.Now()
	rep, retries, err := post(client, url, w.bodies[cfg])
	d := time.Since(start)
	w.r.spans.end(sp)
	if err == nil && rep.Key != w.keys[cfg] {
		err = fmt.Errorf("serve-mix: reply key %s, want %s", rep.Key, w.keys[cfg])
	}
	w.r.op(i, d, err)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.requests++
	w.retries += int64(retries)
	if err != nil {
		return
	}
	switch {
	case rep.Cached:
		w.hits++
		w.hitLatUS = append(w.hitLatUS, float64(d.Nanoseconds())/1e3)
	case rep.Dedup:
		w.dedups++
	default:
		w.missLatMS = append(w.missLatMS, float64(d.Nanoseconds())/1e6)
	}
	if w.results[cfg] == nil {
		w.results[cfg] = rep.Result
	}
}

// post sends one job and waits for its terminal state, retrying a 429 after
// the server's Retry-After.
func post(client *http.Client, url string, body []byte) (reply, int, error) {
	for retries := 0; ; retries++ {
		resp, err := client.Post(url+"/jobs?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			return reply{}, retries, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return reply{}, retries, err
		}
		if resp.StatusCode == http.StatusTooManyRequests && retries < 50 {
			wait, _ := strconv.Atoi(resp.Header.Get("Retry-After"))
			time.Sleep(time.Duration(max(wait, 1)) * time.Second)
			continue
		}
		var rep reply
		if err := json.Unmarshal(raw, &rep); err != nil {
			return reply{}, retries, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
		}
		if resp.StatusCode != http.StatusOK {
			return rep, retries, fmt.Errorf("status %d: %s", resp.StatusCode, rep.Error)
		}
		return rep, retries, nil
	}
}

// scrape reads the integer counters of GET /metrics.
func scrape(client *http.Client, url string) (map[string]int64, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	counters := map[string]int64{}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			if n, err := strconv.ParseInt(strings.TrimSpace(value), 10, 64); err == nil {
				counters[name] = n
			}
		}
	}
	return counters, nil
}

// sampleCache keeps the server's cached bytes for five of the configs this
// pass requested; verify compares them with direct runs once the measured
// phase is over.
func (w *serveWork) sampleCache(srv *serve.Server) {
	sent := map[int]bool{}
	for _, cfg := range w.r.plan.Requests {
		sent[cfg] = true
	}
	w.cached = map[int][]byte{}
	for cfg := 0; cfg < len(w.r.plan.Items) && len(w.cached) < 5; cfg += 7 {
		if !sent[cfg] {
			continue
		}
		got, ok := srv.CacheGet(w.keys[cfg])
		if !ok {
			w.r.fail("serve-mix: %s is not in the server's cache", w.r.plan.Items[cfg])
			continue
		}
		w.cached[cfg] = got
	}
}

// verify: the daemon's answer must be byte-identical to the canonical
// encoding of a direct run, which is what ppfsim -json prints.
func (w *serveWork) verify() {
	for cfg, got := range w.cached {
		it := w.r.plan.Items[cfg]
		b, s, err := resolve(it.Bench, it.Scheme)
		if err != nil {
			w.r.fail("serve-mix: %v", err)
			continue
		}
		// The traced run makes the same simulation through Warm + Resume, to
		// read the engine's event count: serve hides its machines.
		var res harness.Result
		if w.r.cfg.Traced {
			var events int64
			if res, events, err = exactRun(b, s, harness.Options{Scale: it.Scale}); err == nil {
				w.events += events
				w.eventOps += res.Core.Ops
			}
		} else {
			res, err = harness.Run(b, s, harness.Options{Scale: it.Scale})
		}
		var want bytes.Buffer
		if err == nil {
			err = harness.EncodeResult(&want, res)
		}
		if err != nil {
			w.r.fail("serve-mix: direct run of %s: %v", it, err)
		} else if !bytes.Equal(got, want.Bytes()) {
			w.r.fail("serve-mix: served bytes for %s differ from a direct run's", it)
		}
	}
}

func (w *serveWork) counts(m map[string]float64) {
	w.t.metrics(m)
	m["sim.events_per_op"] = ratio(float64(w.events), float64(w.eventOps))
	m["harness.memo_hits"] = float64(w.memoHits)
	m["harness.memo_misses"] = float64(w.memoMisses)
	m["serve.requests"] = float64(w.requests)
	m["serve.hit_ratio"] = ratio(float64(w.hits), float64(w.requests))
	m["serve.dedup"] = float64(w.dedups)
	m["serve.retries_429"] = float64(w.retries)
	m["serve.resimulated"] = float64(w.resimulated)
	m["serve.req_per_s"] = ratio(float64(w.requests), w.r.stepSeconds())
	m["serve.hit_lat_p50_us"] = median(w.hitLatUS)
	m["serve.hit_lat_p99_us"] = percentile(w.hitLatUS, 99)
	m["serve.miss_lat_p50_ms"] = median(w.missLatMS)
	m["serve.miss_lat_p90_ms"] = percentile(w.missLatMS, 90)
	lat := w.r.latencies()
	pct, tail, _ := tailPercentile(lat)
	m["serve.lat_tail_ms"] = tail
	m["serve.lat_tail_pct"] = float64(pct)
	m["serve.lat_samples"] = float64(len(lat))
}

func (w *serveWork) tally() *tally { return &w.t }

func (w *serveWork) close() {}
