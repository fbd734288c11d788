package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"eventpf/internal/harness"
	"eventpf/internal/tracein"
	"eventpf/internal/workloads"
)

const testScale = 0.02

func postJob(t *testing.T, url string, spec harness.JobSpec, query string) (*http.Response, submitResponse) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(url+"/jobs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return resp, sr
}

func scrapeMetrics(t *testing.T, url string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var name string
		var v int64
		if _, err := fmt.Sscanf(sc.Text(), "%s %d", &name, &v); err == nil {
			m[name] = v
		}
	}
	return m
}

// waitState polls until the job reaches want (or any terminal state).
func waitState(t *testing.T, jb *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := jb.currentState()
		if st == want {
			return
		}
		if st.Terminal() {
			t.Fatalf("job reached terminal state %s while waiting for %s", st, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for state %s (at %s)", want, jb.currentState())
}

// TestSubmitCacheHitAndDeterminism is the end-to-end acceptance path: a
// real (small) simulation through the full HTTP stack, a second submission
// served from the content-addressed cache without re-simulating, and the
// served bytes byte-identical to what ppfsim -json prints for the config.
func TestSubmitCacheHitAndDeterminism(t *testing.T) {
	srv := NewServer(Config{Workers: 2, QueueDepth: 8, ProgressEvery: 1000})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	spec := harness.JobSpec{Bench: "HJ-2", Scheme: "stride", Scale: testScale}
	resp, sr := postJob(t, hs.URL, spec, "?wait=1")
	if resp.StatusCode != http.StatusOK || sr.State != StateDone || sr.Cached {
		t.Fatalf("first submit: status=%d state=%s cached=%v err=%q", resp.StatusCode, sr.State, sr.Cached, sr.Error)
	}
	if len(sr.Result) == 0 {
		t.Fatal("first submit returned no result")
	}

	// Same config, different spelling: must be a cache hit on the same key.
	resp2, sr2 := postJob(t, hs.URL, harness.JobSpec{Bench: "hj2", Scheme: "stride", Scale: testScale}, "")
	if resp2.StatusCode != http.StatusOK || !sr2.Cached || sr2.Key != sr.Key {
		t.Fatalf("second submit: status=%d cached=%v key=%s (want hit on %s)", resp2.StatusCode, sr2.Cached, sr2.Key, sr.Key)
	}

	m := scrapeMetrics(t, hs.URL)
	if m["ppfserve_cache_hits"] != 1 || m["ppfserve_cache_misses"] != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", m["ppfserve_cache_hits"], m["ppfserve_cache_misses"])
	}
	if m["ppfserve_memo_misses"] != 1 {
		t.Errorf("memo misses = %d, want 1 (exactly one simulation)", m["ppfserve_memo_misses"])
	}
	// The merged sim registry is exposed with a sim_ prefix; every machine
	// registers the TLB's walk-queue histogram.
	if _, ok := m["sim_tlb_walk_queue_depth_count"]; !ok {
		t.Error("the metrics scrape carried no sim_tlb_walk_queue_depth_count line")
	}

	// Byte-identical serving: /result must equal EncodeResult of a direct
	// harness run of the same resolved config.
	res, err := http.Get(hs.URL + "/jobs/" + sr.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var served bytes.Buffer
	if _, err := served.ReadFrom(res.Body); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()

	j, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := harness.Run(j.Bench, j.Scheme, harness.Options{Scale: j.Scale})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := harness.EncodeResult(&want, direct); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served.Bytes(), want.Bytes()) {
		t.Errorf("served result differs from direct harness encoding:\nserved: %.120s\ndirect: %.120s",
			served.String(), want.String())
	}
}

// TestSlicedJobStaysSliced: a job that asks for time-parallel slices gets
// them. The server attaches its progress sink and registry to unsliced jobs
// only, because an observed run falls back to serial.
func TestSlicedJobStaysSliced(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 4, ProgressEvery: 1000})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	resp, sr := postJob(t, hs.URL, harness.JobSpec{Bench: "HJ-2", Scheme: "manual", Scale: 0.05, Slices: 4}, "?wait=1")
	if resp.StatusCode != http.StatusOK || sr.State != StateDone {
		t.Fatalf("submit: status=%d state=%s err=%q", resp.StatusCode, sr.State, sr.Error)
	}
	var res harness.Result
	if err := json.Unmarshal(sr.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.TimeParallel == nil || res.TimeParallel.Slices != 4 || res.Fallback != "" {
		t.Errorf("TimeParallel = %+v, Fallback = %q; want 4 slices and no fallback", res.TimeParallel, res.Fallback)
	}
}

// TestTraceJobRetriesAfterFileAppears: a failed job is not a result. A trace
// job posted before its file exists fails; once the file is written, the same
// spec simulates.
func TestTraceJobRetriesAfterFileAppears(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 2})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	path := filepath.Join(t.TempDir(), "randacc.ppft")
	spec := harness.JobSpec{Trace: path, Scheme: "stride"}
	resp, sr := postJob(t, hs.URL, spec, "?wait=1")
	if resp.StatusCode != http.StatusUnprocessableEntity || sr.State != StateFailed {
		t.Fatalf("job over a missing trace: status=%d state=%s, want 422 failed", resp.StatusCode, sr.State)
	}

	b, err := workloads.ByName("RandAcc")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := tracein.NewWriter(&buf, tracein.Meta{Bench: b.Name, Scale: testScale, Tool: "test"})
	if _, err := harness.Run(b, harness.NoPF, harness.Options{Scale: testScale, OpSink: sink}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	resp, sr = postJob(t, hs.URL, spec, "?wait=1")
	if resp.StatusCode != http.StatusOK || sr.State != StateDone || sr.Cached {
		t.Errorf("same spec with the trace written: status=%d state=%s cached=%v err=%q, want 200 done from a fresh run",
			resp.StatusCode, sr.State, sr.Cached, sr.Error)
	}
}

// TestEvictedResultIsResimulated: the LRU is the one result store, so its
// bounds are the server's bounds. With room for one entry, A, B, A is three
// simulations and one held result.
func TestEvictedResultIsResimulated(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 2, CacheEntries: 1})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	a := harness.JobSpec{Bench: "RandAcc", Scheme: "no-pf", Scale: testScale}
	b := harness.JobSpec{Bench: "RandAcc", Scheme: "stride", Scale: testScale}
	var results [][]byte
	for i, spec := range []harness.JobSpec{a, b, a} {
		resp, sr := postJob(t, hs.URL, spec, "?wait=1")
		if resp.StatusCode != http.StatusOK || sr.State != StateDone || sr.Cached {
			t.Fatalf("submit %d: status=%d state=%s cached=%v err=%q", i, resp.StatusCode, sr.State, sr.Cached, sr.Error)
		}
		results = append(results, sr.Result)
	}
	if !bytes.Equal(results[0], results[2]) {
		t.Error("re-simulating an evicted config changed its result bytes")
	}
	m := scrapeMetrics(t, hs.URL)
	if m["ppfserve_memo_misses"] != 3 || m["ppfserve_cache_entries"] != 1 || m["ppfserve_cache_evictions"] != 2 {
		t.Errorf("simulations=%d cache_entries=%d evictions=%d, want 3/1/2: the server holds no result its LRU evicted",
			m["ppfserve_memo_misses"], m["ppfserve_cache_entries"], m["ppfserve_cache_evictions"])
	}
}

func TestValidationErrorsListMenus(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 1})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	for _, tc := range []struct {
		spec harness.JobSpec
		want string
	}{
		{harness.JobSpec{Bench: "nope", Scheme: "manual"}, "hj2"},
		// Extra benches must appear in the menu too: the duplicated All/Extra
		// lookup loops once dropped them from the 400 response's list.
		{harness.JobSpec{Bench: "nope", Scheme: "manual"}, "phasemix"},
		{harness.JobSpec{Bench: "nope", Scheme: "manual"}, "spmv"},
		{harness.JobSpec{Bench: "HJ-2", Scheme: "nope"}, "manual-blocked"},
		// Above this server's -max-scale (1.0), and above the largest scale
		// any run is built with (harness.MaxScale).
		{harness.JobSpec{Bench: "HJ-2", Scheme: "manual", Scale: 2}, "exceeds"},
		{harness.JobSpec{Bench: "HJ-2", Scheme: "manual", Scale: 1e300}, "at most 64"},
		// A sizing no machine can be built with is refused at the door: queued,
		// the first panicked a worker in sim.ClockFromMHz and took the daemon
		// down, the second sized the prefetcher's unit table.
		{harness.JobSpec{Bench: "HJ-2", Scheme: "manual", Scale: testScale, PPUMHz: 333}, "333 MHz"},
		{harness.JobSpec{Bench: "HJ-2", Scheme: "manual", Scale: testScale, PPUs: 2_000_000_000}, "PPU count"},
	} {
		body, _ := json.Marshal(tc.spec)
		resp, err := http.Post(hs.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", tc.spec, resp.StatusCode)
		}
		if !strings.Contains(buf.String(), tc.want) {
			t.Errorf("%+v: body %q does not mention %q", tc.spec, buf.String(), tc.want)
		}
	}
	m := scrapeMetrics(t, hs.URL)
	if m["ppfserve_jobs_rejected_validation"] != 8 {
		t.Errorf("rejected_validation = %d, want 8", m["ppfserve_jobs_rejected_validation"])
	}
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after the rejected jobs: status %d", resp.StatusCode)
	}
}

// blockingServer builds a server whose runner blocks until released,
// returning the release function.
func blockingServer(t *testing.T, cfg Config) (*Server, *httptest.Server, func()) {
	t.Helper()
	srv := NewServer(cfg)
	block := make(chan struct{})
	srv.runJob = func(jb *Job) ([]byte, error) {
		<-block
		return []byte("{\"stub\":true}\n"), nil
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	var once sync.Once
	return srv, hs, func() { once.Do(func() { close(block) }) }
}

// TestBackpressure429 saturates the admission queue and checks the
// explicit-backpressure contract: 429 + Retry-After, no queue growth, no
// goroutine growth.
func TestBackpressure429(t *testing.T) {
	srv, hs, release := blockingServer(t, Config{Workers: 1, QueueDepth: 1})
	defer release()

	// First job: admitted, popped by the worker, blocks in runJob.
	_, srA := postJob(t, hs.URL, harness.JobSpec{Bench: "HJ-2", Scheme: "no-pf", Scale: 0.01}, "")
	jbA, ok := srv.lookup(srA.ID)
	if !ok {
		t.Fatal("job A not found")
	}
	waitState(t, jbA, StateRunning)

	// Second job fills the queue.
	respB, _ := postJob(t, hs.URL, harness.JobSpec{Bench: "HJ-2", Scheme: "stride", Scale: 0.01}, "")
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("job B: status %d, want 202", respB.StatusCode)
	}

	// Everything beyond is rejected with 429 + Retry-After; goroutines stay
	// bounded (rejections allocate nothing that lives on).
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		resp, _ := postJob(t, hs.URL, harness.JobSpec{Bench: "RandAcc", Scheme: "manual", Scale: 0.01, PPUs: 2 + i%7}, "")
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("saturated submit %d: status %d, want 429", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After header")
		}
	}
	runtime.GC()
	if after := runtime.NumGoroutine(); after > before+10 {
		t.Errorf("goroutines grew from %d to %d under saturation", before, after)
	}
	m := scrapeMetrics(t, hs.URL)
	if m["ppfserve_jobs_rejected_backpressure"] != 100 {
		t.Errorf("rejected_backpressure = %d, want 100", m["ppfserve_jobs_rejected_backpressure"])
	}
	if m["ppfserve_queue_depth"] != 1 || m["ppfserve_jobs_inflight"] != 1 {
		t.Errorf("queue_depth=%d inflight=%d, want 1/1", m["ppfserve_queue_depth"], m["ppfserve_jobs_inflight"])
	}
	release()
}

// TestInflightDedup: a duplicate of a queued/running job coalesces onto it
// instead of consuming a queue slot.
func TestInflightDedup(t *testing.T) {
	srv, hs, release := blockingServer(t, Config{Workers: 1, QueueDepth: 4})
	defer release()
	spec := harness.JobSpec{Bench: "HJ-2", Scheme: "no-pf", Scale: 0.01}
	_, sr1 := postJob(t, hs.URL, spec, "")
	jb, _ := srv.lookup(sr1.ID)
	waitState(t, jb, StateRunning)
	resp2, sr2 := postJob(t, hs.URL, spec, "")
	if resp2.StatusCode != http.StatusAccepted || !sr2.Dedup || sr2.ID != sr1.ID {
		t.Fatalf("duplicate submit: status=%d dedup=%v id=%s (want %s)", resp2.StatusCode, sr2.Dedup, sr2.ID, sr1.ID)
	}
	m := scrapeMetrics(t, hs.URL)
	if m["ppfserve_jobs_deduped"] != 1 {
		t.Errorf("deduped = %d, want 1", m["ppfserve_jobs_deduped"])
	}
}

// TestGracefulShutdown pins the drain contract: the in-flight job
// completes, the queued job is rejected, new submissions get 503, and
// Drain returns.
func TestGracefulShutdown(t *testing.T) {
	srv, hs, release := blockingServer(t, Config{Workers: 1, QueueDepth: 2})

	_, srA := postJob(t, hs.URL, harness.JobSpec{Bench: "HJ-2", Scheme: "no-pf", Scale: 0.01}, "")
	jbA, _ := srv.lookup(srA.ID)
	waitState(t, jbA, StateRunning)
	_, srB := postJob(t, hs.URL, harness.JobSpec{Bench: "HJ-2", Scheme: "stride", Scale: 0.01}, "")
	jbB, _ := srv.lookup(srB.ID)

	drainErr := make(chan error, 1)
	go func() { drainErr <- srv.Drain(context.Background()) }()

	// New work is refused while draining.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := postJob(t, hs.URL, harness.JobSpec{Bench: "RandAcc", Scheme: "no-pf", Scale: 0.01}, "")
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submissions during drain never saw 503 (last status %d)", resp.StatusCode)
		}
		time.Sleep(2 * time.Millisecond)
	}

	release() // let the in-flight job finish
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if st := jbA.currentState(); st != StateDone {
		t.Errorf("in-flight job ended %s, want done", st)
	}
	if jbA.resultBytes() == nil {
		t.Error("in-flight job lost its result")
	}
	if st := jbB.currentState(); st != StateRejected {
		t.Errorf("queued job ended %s, want rejected", st)
	}
	// Drain is idempotent once drained.
	if err := srv.Drain(context.Background()); err != nil {
		t.Errorf("second Drain: %v", err)
	}
}

// TestSignalPolicy: first signal drains gracefully; a second signal while
// the drain hangs forces exit(1).
func TestSignalPolicy(t *testing.T) {
	t.Run("graceful", func(t *testing.T) {
		srv, _, release := blockingServer(t, Config{Workers: 1, QueueDepth: 1})
		release()
		sigc := make(chan os.Signal, 2)
		exitCode := -1
		shutdownCalled := false
		done := make(chan struct{})
		go func() {
			HandleSignals(srv, sigc, func() { shutdownCalled = true }, func(c int) { exitCode = c })
			close(done)
		}()
		sigc <- syscall.SIGTERM
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("graceful shutdown did not complete")
		}
		if !shutdownCalled || exitCode != -1 {
			t.Errorf("graceful path: shutdown=%v exit=%d, want true/-1", shutdownCalled, exitCode)
		}
	})
	t.Run("forced", func(t *testing.T) {
		srv, hs, release := blockingServer(t, Config{Workers: 1, QueueDepth: 1})
		defer release()
		// An in-flight blocked job makes the drain hang until released.
		_, sr := postJob(t, hs.URL, harness.JobSpec{Bench: "HJ-2", Scheme: "no-pf", Scale: 0.01}, "")
		jb, _ := srv.lookup(sr.ID)
		waitState(t, jb, StateRunning)
		sigc := make(chan os.Signal, 2)
		exited := make(chan int, 1)
		done := make(chan struct{})
		go func() {
			HandleSignals(srv, sigc, nil, func(c int) { exited <- c })
			close(done)
		}()
		sigc <- syscall.SIGTERM
		sigc <- syscall.SIGTERM
		select {
		case code := <-exited:
			if code != 1 {
				t.Errorf("forced exit code %d, want 1", code)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("second signal did not force exit")
		}
		release()
		<-done
	})
}

// TestSSEStatusStream pins the stream's contract. A live subscriber gets the
// current status on attach, then changes with strictly increasing (possibly
// skipping) seqs and states that never go backwards, ending in one terminal
// event that carries the final totals; a late subscriber of a finished job
// gets that terminal event alone. (It replaces TestSSEChainOrder; the
// compaction test went with the event log.)
func TestSSEStatusStream(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 2})
	gate := make(chan struct{})
	srv.runJob = func(jb *Job) ([]byte, error) {
		<-gate // hold until the subscriber attached
		for i := 1; i <= 5; i++ {
			jb.publish(ProgressEvent{State: StateRunning, Phase: "simulating", Events: int64(i * 100), SimTicks: int64(i)})
		}
		return []byte("{\"stub\":true}\n"), nil
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	_, sr := postJob(t, hs.URL, harness.JobSpec{Bench: "HJ-2", Scheme: "no-pf", Scale: 0.01}, "")

	// Live subscriber: attach before the job makes progress, then open the gate.
	resp, err := http.Get(hs.URL + "/jobs/" + sr.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	close(gate)
	live := readSSE(t, resp)
	if len(live) < 2 {
		t.Fatalf("live subscriber saw %d events, want the status on attach and the terminal one: %+v", len(live), live)
	}
	order := map[State]int{StateQueued: 0, StateRunning: 1, StateDone: 2, StateFailed: 2, StateRejected: 2}
	for i := 1; i < len(live); i++ {
		if live[i].Seq <= live[i-1].Seq {
			t.Fatalf("seq not strictly increasing at %d: %+v", i, live)
		}
		if order[live[i].State] < order[live[i-1].State] {
			t.Fatalf("state went backwards: %s after %s", live[i].State, live[i-1].State)
		}
		if live[i-1].State.Terminal() {
			t.Fatalf("event after the terminal one: %+v", live)
		}
	}
	last := live[len(live)-1]
	if last.State != StateDone || last.Events != 500 || last.SimTicks != 5 {
		t.Errorf("stream ends with %+v, want done carrying the final totals (500 events, tick 5)", last)
	}

	// Late subscriber: the job is long done; its status is the terminal event.
	if resp, err = http.Get(hs.URL + "/jobs/" + sr.ID + "/events"); err != nil {
		t.Fatal(err)
	}
	if late := readSSE(t, resp); len(late) != 1 || late[0] != last {
		t.Errorf("late subscriber got %+v, want exactly the terminal event %+v", late, last)
	}
	// queued, starting, five progress publishes, done: skipped or not, every
	// publish is counted.
	st, err := http.Get(hs.URL + "/jobs/" + sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(st.Body)
	st.Body.Close()
	if !strings.Contains(string(body), "\"progress_events\": 8") || last.Seq != 8 {
		t.Errorf("job status does not count 8 publishes (terminal seq %d): %s", last.Seq, body)
	}
}

// readSSE consumes one SSE stream until it closes, returning the data
// payloads in arrival order.
func readSSE(t *testing.T, resp *http.Response) []ProgressEvent {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type %q, want text/event-stream", ct)
	}
	var events []ProgressEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev ProgressEvent
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			events = append(events, ev)
		}
	}
	return events
}

// TestCancelQueuedJob: DELETE on a queued job rejects it; the worker skips
// it when popped.
func TestCancelQueuedJob(t *testing.T) {
	srv, hs, release := blockingServer(t, Config{Workers: 1, QueueDepth: 2})
	defer release()
	_, srA := postJob(t, hs.URL, harness.JobSpec{Bench: "HJ-2", Scheme: "no-pf", Scale: 0.01}, "")
	jbA, _ := srv.lookup(srA.ID)
	waitState(t, jbA, StateRunning)
	_, srB := postJob(t, hs.URL, harness.JobSpec{Bench: "HJ-2", Scheme: "stride", Scale: 0.01}, "")

	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/jobs/"+srB.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: status %d", resp.StatusCode)
	}
	jbB, _ := srv.lookup(srB.ID)
	if st := jbB.currentState(); st != StateRejected {
		t.Errorf("cancelled job state %s, want rejected", st)
	}
	// Running jobs cannot be cancelled.
	req, _ = http.NewRequest(http.MethodDelete, hs.URL+"/jobs/"+srA.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancelling a running job: status %d, want 409", resp.StatusCode)
	}
	release()
	// The worker must skip the cancelled job and stay healthy: submit one
	// more and see it complete.
	_, srC := postJob(t, hs.URL, harness.JobSpec{Bench: "RandAcc", Scheme: "no-pf", Scale: 0.01}, "")
	jbC, _ := srv.lookup(srC.ID)
	deadline := time.Now().Add(5 * time.Second)
	for jbC.currentState() != StateDone && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if st := jbC.currentState(); st != StateDone {
		t.Errorf("post-cancel job state %s, want done", st)
	}
}

// TestUnsupportedPairFails: the paper's missing bars surface as a failed
// job with a helpful message, not a hung request.
func TestUnsupportedPairFails(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 2})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	resp, sr := postJob(t, hs.URL, harness.JobSpec{Bench: "PageRank", Scheme: "software", Scale: 0.01}, "?wait=1")
	if resp.StatusCode != http.StatusUnprocessableEntity || sr.State != StateFailed {
		t.Fatalf("unsupported pair: status=%d state=%s", resp.StatusCode, sr.State)
	}
	if !strings.Contains(sr.Error, "not applicable") {
		t.Errorf("error %q does not explain unsupportedness", sr.Error)
	}
}

// TestCancelDispatchRace: a cancel and the worker's dispatch race for a
// queued job; Job.publish lets exactly one win. Never a non-terminal status
// after a terminal one, never a stored result for a job reported rejected.
func TestCancelDispatchRace(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	srv.runJob = func(*Job) ([]byte, error) { return []byte("{\"stub\":true}\n"), nil }
	cancelled := 0
	for round := 0; round < 200; round++ {
		spec := harness.JobSpec{Bench: "HJ-2", Scheme: "no-pf", Scale: 0.01 + float64(round)*1e-4}
		resolved, err := spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		jb := newJob(fmt.Sprintf("r%d", round), spec, resolved)
		srv.jobs[jb.ID], srv.byKey[jb.Key] = jb, jb // nothing else is running yet

		// Record every status this goroutine keeps up with, past the terminal
		// one too (watch would stop there).
		var seen []State
		stop, watched := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(watched)
			for {
				jb.mu.Lock()
				st, changed := jb.status.State, jb.changed
				jb.mu.Unlock()
				seen = append(seen, st)
				select {
				case <-changed:
				case <-stop:
					return
				}
			}
		}()
		var wg sync.WaitGroup
		rec := httptest.NewRecorder()
		wg.Add(2)
		go func() { defer wg.Done(); srv.dispatch(jb) }()
		go func() {
			defer wg.Done()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/jobs/"+jb.ID, nil))
		}()
		wg.Wait()
		close(stop)
		<-watched

		for i := 1; i < len(seen); i++ {
			if seen[i-1].Terminal() && seen[i] != seen[i-1] {
				t.Fatalf("round %d: status %s after terminal %s", round, seen[i], seen[i-1])
			}
		}
		_, stored := srv.CacheGet(jb.Key)
		switch final := jb.currentState(); {
		case rec.Code == http.StatusOK && (final != StateRejected || stored || jb.resultBytes() != nil):
			t.Fatalf("round %d: cancel answered 200 but the job ended %s (result stored: %v)", round, final, stored)
		case rec.Code == http.StatusConflict && (final != StateDone || !stored):
			t.Fatalf("round %d: cancel answered 409 but the job ended %s (result stored: %v)", round, final, stored)
		case rec.Code == http.StatusOK:
			cancelled++
		case rec.Code != http.StatusConflict:
			t.Fatalf("round %d: cancel answered %d", round, rec.Code)
		}
	}
	t.Logf("cancel won %d of 200 rounds", cancelled)
}

// TestRejectsBadOutsideInput: request bodies are bounded and must be JSON.
func TestRejectsBadOutsideInput(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"job body over 1 MiB", `{"bench":"` + strings.Repeat("x", maxBody) + `"}`, http.StatusRequestEntityTooLarge},
		{"job body not JSON", "bench=HJ-2", http.StatusBadRequest},
	} {
		resp, err := http.Post(hs.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}
