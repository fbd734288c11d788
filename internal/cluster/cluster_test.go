package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eventpf/internal/harness"
	"eventpf/internal/serve"
)

// testWorker is one stubbed ppfserve instance: a real serve.Server (so the
// cache, dedup, SSE, and /metrics paths are the production ones) whose
// simulation is replaced by a counting stub — runs is exactly the number of
// re-simulations the cluster allowed.
type testWorker struct {
	id   string
	srv  *serve.Server
	hs   *httptest.Server
	runs atomic.Int64
}

func stubResult() []byte { return []byte("{\"stub\":true}\n") }

func newTestWorker(t *testing.T, coordURL, id string, run func(*serve.Job) ([]byte, error)) *testWorker {
	t.Helper()
	w := &testWorker{id: id}
	w.srv = serve.NewServer(serve.Config{Workers: 1, QueueDepth: 16, IDPrefix: id + "-"})
	w.srv.SetRunner(func(jb *serve.Job) ([]byte, error) {
		w.runs.Add(1)
		if run != nil {
			return run(jb)
		}
		return stubResult(), nil
	})
	w.hs = httptest.NewServer(w.srv.Handler())
	t.Cleanup(w.hs.Close)
	registerWorker(t, coordURL, WorkerInfo{ID: id, URL: w.hs.URL})
	return w
}

func registerWorker(t *testing.T, coordURL string, info WorkerInfo) {
	t.Helper()
	body, _ := json.Marshal(info)
	resp, err := http.Post(coordURL+"/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("registering %s: %v", info.ID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("registering %s: status %d", info.ID, resp.StatusCode)
	}
}

// newTestCluster starts a coordinator plus n stub workers named w0..w{n-1},
// returned by ID as well.
func newTestCluster(t *testing.T, n int) (*httptest.Server, []*testWorker, map[string]*testWorker) {
	t.Helper()
	// Workers in tests register once and never heartbeat; keep the liveness
	// window far beyond test runtime so only explicit ejection (transport
	// failure, DELETE /register) removes them.
	c := NewCoordinator(Config{HeartbeatEvery: time.Minute})
	t.Cleanup(c.Close)
	hs := httptest.NewServer(c.Handler())
	t.Cleanup(hs.Close)
	workers := make([]*testWorker, n)
	byID := map[string]*testWorker{}
	for i := range workers {
		workers[i] = newTestWorker(t, hs.URL, fmt.Sprintf("w%d", i), nil)
		byID[workers[i].id] = workers[i]
	}
	return hs, workers, byID
}

// kill closes a worker the hard way: no drain, no deregistration.
func (w *testWorker) kill() {
	w.hs.CloseClientConnections()
	w.hs.Close()
}

func totalRuns(workers []*testWorker) (n int64) {
	for _, w := range workers {
		n += w.runs.Load()
	}
	return n
}

// cached reports whether a worker's cache holds a content key.
func (w *testWorker) cached(key string) bool {
	_, ok := w.srv.CacheGet(key)
	return ok
}

// sseFrame reads one SSE event (through its blank line) verbatim; ok is
// false when the stream ended first.
func sseFrame(r *bufio.Reader) (frame string, ok bool) {
	for !strings.HasSuffix(frame, "\n\n") {
		line, err := r.ReadString('\n')
		if err != nil {
			return frame, false
		}
		frame += line
	}
	return frame, true
}

func submitSpec(t *testing.T, baseURL string, sp harness.JobSpec, query string) (*http.Response, workerSubmitResponse) {
	t.Helper()
	body, _ := json.Marshal(sp)
	resp, err := http.Post(baseURL+"/jobs"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr workerSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return resp, sr
}

func scrapeCluster(t *testing.T, coordURL string) map[string]int64 {
	t.Helper()
	resp, err := http.Get(coordURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]int64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var name string
		var v int64
		if _, err := fmt.Sscanf(sc.Text(), "%s %d", &name, &v); err == nil {
			out[name] = v
		}
	}
	return out
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func keyOf(t *testing.T, sp harness.JobSpec) string {
	t.Helper()
	resolved, err := sp.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return resolved.Key()
}

// TestRankWorkersProperties pins the three properties routing depends on:
// determinism, balance (every worker owns some keys), and the rendezvous
// invariant that removing one worker only promotes survivors — it never
// reorders them — so the runner-up order doubles as the failover order.
func TestRankWorkersProperties(t *testing.T) {
	ids := []string{"w0", "w1", "w2", "w3"}
	owners := map[string]int{}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		order := rankWorkers(key, ids)
		if len(order) != len(ids) {
			t.Fatalf("rank dropped workers: %v", order)
		}
		again := rankWorkers(key, ids)
		for j := range order {
			if order[j] != again[j] {
				t.Fatalf("rank not deterministic for %s: %v vs %v", key, order, again)
			}
		}
		owners[order[0]]++

		// Remove the top worker: the rest must keep their relative order.
		var without []string
		for _, id := range ids {
			if id != order[0] {
				without = append(without, id)
			}
		}
		reduced := rankWorkers(key, without)
		for j := range reduced {
			if reduced[j] != order[j+1] {
				t.Fatalf("removing owner reordered survivors for %s: %v vs %v", key, reduced, order)
			}
		}
	}
	for _, id := range ids {
		if owners[id] == 0 {
			t.Errorf("worker %s owns no keys out of 200 — hash badly skewed: %v", id, owners)
		}
	}
}

// TestRouteDuplicatesToSameWorker: every submission of a key lands on its
// rendezvous owner, duplicates are served from that worker's cache with
// byte-identical results, and the cluster-wide simulation count equals the
// number of distinct configs.
func TestRouteDuplicatesToSameWorker(t *testing.T) {
	hs, workers, _ := newTestCluster(t, 3)
	ids := []string{"w0", "w1", "w2"}

	specs := []harness.JobSpec{
		{Bench: "HJ-2", Scheme: "stride", Scale: 0.02},
		{Bench: "HJ-2", Scheme: "no-pf", Scale: 0.02},
		{Bench: "RandAcc", Scheme: "stride", Scale: 0.02},
		{Bench: "G500-CSR", Scheme: "no-pf", Scale: 0.02},
	}
	for _, sp := range specs {
		key := keyOf(t, sp)
		owner := rankWorkers(key, ids)[0]

		resp1, sr1 := submitSpec(t, hs.URL, sp, "?wait=1")
		if resp1.StatusCode != http.StatusOK {
			t.Fatalf("first submit of %v: status %d (%s)", sp, resp1.StatusCode, sr1.Error)
		}
		if !strings.HasPrefix(sr1.ID, owner+"-") {
			t.Errorf("job %s for key %.12s ran on the wrong worker (want owner %s)", sr1.ID, key, owner)
		}

		resp2, sr2 := submitSpec(t, hs.URL, sp, "")
		if resp2.StatusCode != http.StatusOK || !sr2.Cached {
			t.Errorf("duplicate of %v not served from cache: status %d cached=%v", sp, resp2.StatusCode, sr2.Cached)
		}
		if !bytes.Equal(sr1.Result, sr2.Result) {
			t.Errorf("duplicate result differs from original for %v", sp)
		}
	}

	if runs := totalRuns(workers); runs != int64(len(specs)) {
		t.Errorf("cluster simulated %d times for %d distinct configs", runs, len(specs))
	}
}

// TestWorkerKillNoResim: a hard worker death re-simulates nothing, because
// the worker its keys fall to was given the bytes. First through a blocking
// submit — the owner dies after its result was replicated and the resubmit
// is a cache hit on the runner-up after one retry. Then through an SSE stream
// on a job that never finishes — the coordinator passes the owner's events
// through verbatim, the stream ends without a terminal event when the owner
// dies, and the resubmitted spec is answered by the replica. (It replaces
// TestFailoverMidStreamNoResim: the stream is no longer re-numbered onto a
// replica, the client resubmits.)
func TestWorkerKillNoResim(t *testing.T) {
	hs, workers, byID := newTestCluster(t, 3)
	ids := []string{"w0", "w1", "w2"}
	sp := harness.JobSpec{Bench: "HJ-2", Scheme: "stride", Scale: 0.02}
	key := keyOf(t, sp)
	order := rankWorkers(key, ids)

	resp, sr := submitSpec(t, hs.URL, sp, "?wait=1")
	if resp.StatusCode != http.StatusOK || !strings.HasPrefix(sr.ID, order[0]+"-") {
		t.Fatalf("first submit: status %d, job %q, want 200 on owner %s", resp.StatusCode, sr.ID, order[0])
	}
	waitFor(t, "replication to the runner-up", func() bool { return byID[order[1]].cached(key) })
	byID[order[0]].kill()

	resp, sr2 := submitSpec(t, hs.URL, sp, "?wait=1")
	if resp.StatusCode != http.StatusOK || !sr2.Cached || !bytes.Equal(sr2.Result, sr.Result) {
		t.Fatalf("resubmit after the owner's death: status %d cached=%v, want the replica's cache hit with the same bytes", resp.StatusCode, sr2.Cached)
	}
	if m := scrapeCluster(t, hs.URL); totalRuns(workers) != 1 || m["cluster_proxy_retries"] != 1 || m["cluster_workers_live"] != 2 {
		t.Errorf("runs=%d retries=%d live=%d, want 1 run, 1 retry, 2 workers left",
			totalRuns(workers), m["cluster_proxy_retries"], m["cluster_workers_live"])
	}

	// Mid-stream: a second key on the two survivors. Its owner's simulation
	// publishes progress and wedges; the runner-up already holds the bytes
	// (the replication a completed earlier run would have performed).
	sp = harness.JobSpec{Bench: "RandAcc", Scheme: "stride", Scale: 0.02}
	key = keyOf(t, sp)
	order = rankWorkers(key, []string{order[1], order[2]})
	owner := byID[order[0]]
	started, gate := make(chan struct{}), make(chan struct{})
	defer close(gate)
	owner.srv.SetRunner(func(jb *serve.Job) ([]byte, error) {
		owner.runs.Add(1)
		jb.Publish(serve.ProgressEvent{State: serve.StateRunning, Phase: "simulating", Events: 200})
		close(started)
		<-gate
		return stubResult(), nil
	})
	byID[order[1]].srv.CachePut(key, stubResult())
	_, sr = submitSpec(t, hs.URL, sp, "")
	if !strings.HasPrefix(sr.ID, owner.id+"-") {
		t.Fatalf("job %s did not route to owner %s", sr.ID, owner.id)
	}
	<-started

	var frames [2]string
	var proxied *bufio.Reader
	for i, base := range []string{owner.hs.URL, hs.URL} {
		stream, err := http.Get(base + "/jobs/" + sr.ID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer stream.Body.Close()
		proxied = bufio.NewReader(stream.Body)
		frames[i], _ = sseFrame(proxied)
	}
	if frames[1] != frames[0] || !strings.Contains(frames[0], `"events":200`) {
		t.Errorf("event through the coordinator:\n%q\nfrom the owner itself:\n%q", frames[1], frames[0])
	}
	owner.kill()
	if frame, ok := sseFrame(proxied); ok {
		t.Errorf("stream went on after the owner's death: %q", frame)
	}

	resp, sr2 = submitSpec(t, hs.URL, sp, "?wait=1")
	if resp.StatusCode != http.StatusOK || !sr2.Cached {
		t.Fatalf("resubmit after the stream ended: status %d cached=%v (%s)", resp.StatusCode, sr2.Cached, sr2.Error)
	}
	if runs := totalRuns(workers); runs != 2 {
		t.Errorf("%d runs in total, want 2: one per key, both on the owners that died", runs)
	}
	// The dead owner's job ID now names no worker.
	if gone, err := http.Get(hs.URL + "/jobs/" + sr.ID); err != nil || gone.StatusCode != http.StatusBadGateway {
		t.Errorf("GET of a dead worker's job: %v, %v; want 502", gone, err)
	}
}

// TestJoinResimulatesAtMostOnce: a worker that joins and outranks the
// incumbents for a key simulates it once — it is not filled from a peer —
// and from then on answers from its own cache with the same bytes. (It
// replaces TestPeerFillOnMembershipChange.)
func TestJoinResimulatesAtMostOnce(t *testing.T) {
	hs, _, byID := newTestCluster(t, 2)
	ids := []string{"w0", "w1"}
	sp := harness.JobSpec{Bench: "HJ-2", Scheme: "stride", Scale: 0.02}
	key := keyOf(t, sp)

	resp, original := submitSpec(t, hs.URL, sp, "?wait=1")
	if resp.StatusCode != http.StatusOK || original.State != serve.StateDone {
		t.Fatalf("seed run failed: status %d state %s", resp.StatusCode, original.State)
	}
	// Let the seed's replication finish first: it would hand the bytes to
	// whoever ranks second when it runs, the joiner included.
	waitFor(t, "replication to the runner-up", func() bool { return byID[rankWorkers(key, ids)[1]].cached(key) })
	// Pick a joining worker ID that outranks both incumbents for this key,
	// so the new worker becomes the owner the moment it registers.
	newID := ""
	for i := 0; newID == "" && i < 10000; i++ {
		if id := fmt.Sprintf("nw%d", i); rankWorkers(key, append([]string{id}, ids...))[0] == id {
			newID = id
		}
	}
	if newID == "" {
		t.Fatal("could not find an ID that outranks the incumbents")
	}
	nw := newTestWorker(t, hs.URL, newID, nil)

	for i, wantCached := range []bool{false, true} {
		resp, sr := submitSpec(t, hs.URL, sp, "?wait=1")
		if resp.StatusCode != http.StatusOK || sr.Cached != wantCached || !bytes.Equal(sr.Result, original.Result) {
			t.Errorf("submit %d after the join: status %d cached=%v, want cached=%v and the original bytes",
				i+1, resp.StatusCode, sr.Cached, wantCached)
		}
	}
	if nw.runs.Load() != 1 {
		t.Errorf("the new owner simulated %d times, want exactly once", nw.runs.Load())
	}
}

// TestMetricsMergeLiveWorkers: the coordinator's /metrics is the merge of
// the live workers that answer — counters summed, quantile lines maxed —
// and a dead worker neither stalls the scrape nor stays in the sum. (It
// replaces TestMetricsMergeSurvivesWorkerDeath: no tombstones.)
func TestMetricsMergeLiveWorkers(t *testing.T) {
	c := NewCoordinator(Config{HeartbeatEvery: time.Minute})
	defer c.Close()
	hs := httptest.NewServer(c.Handler())
	defer hs.Close()
	fake := map[string]*httptest.Server{}
	for id, lines := range map[string]string{
		"a": "ppfserve_memo_misses 3\nsim_load_lat_p50 4\nsim_load_lat_p99 10\nsim_load_lat_max 12\n",
		"b": "ppfserve_memo_misses 4\nsim_load_lat_p50 5\nsim_load_lat_p99 7\nsim_load_lat_max 30\n",
	} {
		fake[id] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { fmt.Fprint(w, lines) }))
		defer fake[id].Close()
		registerWorker(t, hs.URL, WorkerInfo{ID: id, URL: fake[id].URL})
	}
	m := scrapeCluster(t, hs.URL)
	if m["ppfserve_memo_misses"] != 7 || m["sim_load_lat_p50"] != 5 || m["sim_load_lat_p99"] != 10 || m["sim_load_lat_max"] != 30 || m["cluster_workers_live"] != 2 {
		t.Errorf("merged %v, want memo_misses summed to 7, p50/p99/max the worst (5, 10, 30), 2 live workers", m)
	}

	fake["b"].Close()
	start := time.Now()
	m = scrapeCluster(t, hs.URL)
	if m["ppfserve_memo_misses"] != 3 || m["sim_load_lat_max"] != 12 || time.Since(start) >= scrapeTimeout {
		t.Errorf("with b dead: memo_misses=%d max=%d after %v, want a's 3 and 12 at once",
			m["ppfserve_memo_misses"], m["sim_load_lat_max"], time.Since(start))
	}
	c.reg.remove("b") // what the heartbeat TTL or the next routed request does
	if live := scrapeCluster(t, hs.URL)["cluster_workers_live"]; live != 1 {
		t.Errorf("cluster_workers_live = %d after the death, want 1", live)
	}
}

// TestHeartbeatRegistersAndDeregisters: the worker-side heartbeat loop
// appears in /workers shortly after starting and disappears promptly when
// its context is cancelled (deregistration, not TTL expiry).
func TestHeartbeatRegistersAndDeregisters(t *testing.T) {
	c := NewCoordinator(Config{HeartbeatEvery: 20 * time.Millisecond})
	defer c.Close()
	hs := httptest.NewServer(c.Handler())
	defer hs.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go Heartbeat(ctx, hs.URL, WorkerInfo{ID: "hb1", URL: "http://127.0.0.1:1"}, 10*time.Millisecond)

	listed := func() bool {
		resp, err := http.Get(hs.URL + "/workers")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var body struct {
			Workers []WorkerInfo `json:"workers"`
		}
		if json.NewDecoder(resp.Body).Decode(&body) != nil {
			return false
		}
		for _, w := range body.Workers {
			if w.ID == "hb1" {
				return true
			}
		}
		return false
	}
	waitFor(t, "heartbeat registration", listed)
	cancel()
	waitFor(t, "heartbeat deregistration", func() bool { return !listed() })
}
