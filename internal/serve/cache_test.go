package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"eventpf/internal/harness"
)

// TestCacheLRUEvictionOrder pins the eviction policy: least-recently-USED
// leaves first (a get refreshes recency), and every eviction increments the
// /metrics counter.
func TestCacheLRUEvictionOrder(t *testing.T) {
	srv := NewServer(Config{CacheEntries: 2})
	k1 := strings.Repeat("1", 64)
	k2 := strings.Repeat("2", 64)
	k3 := strings.Repeat("3", 64)

	mustPut(t, srv, k1, `"r1"`)
	mustPut(t, srv, k2, `"r2"`)
	if _, ok := srv.CacheGet(k1); !ok { // refresh k1: k2 becomes LRU
		t.Fatal("k1 missing before eviction")
	}
	mustPut(t, srv, k3, `"r3"`) // over the entry cap: k2 must go

	if _, ok := srv.CacheGet(k2); ok {
		t.Error("k2 survived eviction but was least recently used")
	}
	if _, ok := srv.CacheGet(k1); !ok {
		t.Error("k1 evicted despite being refreshed")
	}
	if _, ok := srv.CacheGet(k3); !ok {
		t.Error("k3 missing right after insertion")
	}

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	m := scrapeMetrics(t, hs.URL)
	if m["ppfserve_cache_evictions"] != 1 {
		t.Errorf("cache_evictions = %d, want 1", m["ppfserve_cache_evictions"])
	}
	if m["ppfserve_cache_entries"] != 2 {
		t.Errorf("cache_entries = %d, want 2", m["ppfserve_cache_entries"])
	}
}

// mustPut puts a JSON value into the cache and fails the test if it is
// refused.
func mustPut(t *testing.T, srv *Server, key, value string) {
	t.Helper()
	if err := srv.CachePut(key, []byte(value)); err != nil {
		t.Fatal(err)
	}
}

// storedSize is what one entry counts against the byte cap: the result bytes
// plus the rendered hit reply.
func storedSize(srv *Server, key string) int64 {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	e := srv.cache[key].Value.(*cacheEntry)
	return int64(len(e.bytes) + len(e.reply))
}

// TestCacheByteBound: the byte cap, which counts result plus reply, evicts
// LRU-last, but a single entry larger than the cap stays resident instead of
// thrashing.
func TestCacheByteBound(t *testing.T) {
	srv := NewServer(Config{CacheBytes: 400})
	big := strings.Repeat("b", 64)
	small := strings.Repeat("s", 64)

	mustPut(t, srv, big, `"`+strings.Repeat("x", 300)+`"`) // alone over the cap: retained
	if _, ok := srv.CacheGet(big); !ok {
		t.Fatal("oversized sole entry was evicted instead of retained")
	}
	if n := storedSize(srv, big); n <= 400 {
		t.Fatalf("big entry stores %d bytes, want it over the 400-byte cap", n)
	}
	mustPut(t, srv, small, `"tiny"`) // now the total is over: big (LRU) goes
	if _, ok := srv.CacheGet(big); ok {
		t.Error("big entry survived the byte bound with a newer entry present")
	}
	if _, ok := srv.CacheGet(small); !ok {
		t.Error("small entry missing after eviction pass")
	}

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	m := scrapeMetrics(t, hs.URL)
	if want := storedSize(srv, small); m["ppfserve_cache_bytes"] != want || want > 400 {
		t.Errorf("cache_bytes = %d, want the small entry's result plus reply, %d, within the cap", m["ppfserve_cache_bytes"], want)
	}
}

// TestCachePutRefusesNonJSON: bytes no hit could answer with are refused and
// stored nowhere, so a submit of that spec simulates. (Stored, they answered
// the submit with 200 and an empty body.)
func TestCachePutRefusesNonJSON(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 2})
	runs := 0
	srv.runJob = func(*Job) ([]byte, error) {
		runs++
		return []byte("{\"stub\":true}\n"), nil
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	spec, key := hj2Key(t)
	if err := srv.CachePut(key, []byte("r1")); err == nil {
		t.Error("CachePut of non-JSON bytes succeeded")
	}
	if _, ok := srv.CacheGet(key); ok {
		t.Error("refused bytes are in the cache")
	}
	resp, sr := postJob(t, hs.URL, spec, "?wait=1")
	if resp.StatusCode != http.StatusOK || sr.Cached || runs != 1 || !bytes.Contains(sr.Result, []byte("stub")) {
		t.Errorf("submit after the refused put: status %d cached=%v runs=%d result %q, want a fresh simulation",
			resp.StatusCode, sr.Cached, runs, sr.Result)
	}
}

// TestNonJSONResultIsNotCached: a runner's bytes enter the cache through the
// same insert as CachePut. A result that is not JSON fails its job instead of
// answering 200 with an empty body, and the next submit simulates again.
func TestNonJSONResultIsNotCached(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 2})
	runs := 0
	srv.runJob = func(*Job) ([]byte, error) {
		runs++
		return []byte("not json"), nil
	}
	h := srv.Handler()
	spec, _ := hj2Key(t)
	body, _ := json.Marshal(spec)
	for i := 1; i <= 2; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs?wait=1", bytes.NewReader(body)))
		if rec.Code/100 == 2 || !json.Valid(rec.Body.Bytes()) {
			t.Errorf("submit %d: status %d body %q, want a JSON error", i, rec.Code, rec.Body.String())
		}
		if runs != i {
			t.Errorf("submit %d: %d simulations, want %d: a non-JSON result must not be a hit", i, runs, i)
		}
	}
}

// TestWriteJSONRendersBeforeStatus: a value that does not render answers
// 500 with a JSON error, not the requested status with an empty body.
func TestWriteJSONRendersBeforeStatus(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, submitResponse{Key: "k", State: StateDone, Result: json.RawMessage("not json")})
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); rec.Code != http.StatusInternalServerError || err != nil || er.Error == "" {
		t.Errorf("status %d body %q, want 500 with a JSON error", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q", ct)
	}
}

// wantHitReply is the hit body rendered independently of the server: what
// writeJSON's encoder settings make of {id, key, state, cached, result}.
func wantHitReply(t *testing.T, id, key string, result []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(struct {
		ID     string          `json:"id,omitempty"`
		Key    string          `json:"key"`
		State  string          `json:"state"`
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}{id, key, "done", true, result})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHitReplyBytes pins what a hit writes: a run-filled entry answers with
// its job's id, a CachePut entry without one, and both bodies equal the
// independent rendering byte for byte under Content-Type application/json.
func TestHitReplyBytes(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 2})
	defer srv.Drain(context.Background())
	h := srv.Handler()
	submit := func(spec harness.JobSpec) *httptest.ResponseRecorder {
		body, _ := json.Marshal(spec)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs?wait=1", bytes.NewReader(body)))
		return rec
	}

	ran := harness.JobSpec{Bench: "HJ-2", Scheme: "stride", Scale: 0.01}
	first := submit(ran)
	var sr submitResponse
	if err := json.Unmarshal(first.Body.Bytes(), &sr); err != nil || first.Code != http.StatusOK || sr.Cached || sr.ID == "" {
		t.Fatalf("first submit: status %d err %v body %.120s, want a fresh run", first.Code, err, first.Body.String())
	}
	stored, ok := srv.CacheGet(sr.Key)
	if !ok {
		t.Fatal("the run's result is not cached")
	}

	put, putKey := hj2Key(t)
	putBytes := []byte("{\"Cycles\": 7,\n  \"nested\": {\"a\": [1, 2]}}\n")
	mustPut(t, srv, putKey, string(putBytes))

	for _, tc := range []struct {
		name    string
		spec    harness.JobSpec
		id, key string
		result  []byte
	}{
		{"run-filled", ran, sr.ID, sr.Key, stored},
		{"CachePut", put, "", putKey, putBytes},
	} {
		rec := submit(tc.spec)
		if rec.Code != http.StatusOK {
			t.Errorf("%s: status %d", tc.name, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", tc.name, ct)
		}
		if want := wantHitReply(t, tc.id, tc.key, tc.result); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%s: hit body differs from the independent rendering:\n got: %.200s\nwant: %.200s", tc.name, rec.Body.String(), want)
		}
	}
}

// TestConcurrentHitsDuringEviction: four clients hit three keys while a
// two-entry cache inserts and evicts under them. Every 200 parses, and its
// result is the bytes put under the key it asked for.
func TestConcurrentHitsDuringEviction(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 4, CacheEntries: 2})
	defer srv.Drain(context.Background())
	keys := make([]string, 3)
	bodies := make([][]byte, 3)
	values := map[string][]byte{}
	for i := range keys {
		spec := harness.JobSpec{Bench: "HJ-2", Scheme: "no-pf", Scale: 0.01 * float64(i+1)}
		j, err := spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = j.Key()
		bodies[i], _ = json.Marshal(spec)
		values[keys[i]] = []byte(fmt.Sprintf("%q", strings.Repeat(string(rune('a'+i)), 64)))
	}
	// A miss (the key was evicted) runs and stores the same bytes a put does.
	srv.runJob = func(jb *Job) ([]byte, error) { return values[jb.Key], nil }
	h := srv.Handler()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := srv.CachePut(keys[n%3], values[keys[n%3]]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var clients sync.WaitGroup
	hits := make([]int, 4)
	for c := 0; c < 4; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			for n := 0; n < 300; n++ {
				i := (c + n) % 3
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(bodies[i])))
				if rec.Code != http.StatusOK {
					continue // a miss (202) or a full queue (429)
				}
				var sr submitResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
					t.Errorf("a 200 that does not parse: %v: %.120s", err, rec.Body.String())
					return
				}
				if sr.Key != keys[i] || !bytes.Equal(sr.Result, values[keys[i]]) {
					t.Errorf("asked for key %d, got key %.8s result %.20s", i, sr.Key, sr.Result)
					return
				}
				hits[c]++
			}
		}(c)
	}
	clients.Wait()
	close(stop)
	wg.Wait()
	total, evictions := hits[0]+hits[1]+hits[2]+hits[3], srv.m.cacheEvictions.Load()
	t.Logf("%d of 1200 requests hit, %d evictions", total, evictions)
	if total == 0 || evictions == 0 {
		t.Error("the run did not overlap hits with evictions")
	}
}

// hj2Key is the content key of HJ-2 × no-pf at scale 0.01, the spec most
// tests in this file put into the cache.
func hj2Key(t *testing.T) (harness.JobSpec, string) {
	t.Helper()
	spec := harness.JobSpec{Bench: "HJ-2", Scheme: "no-pf", Scale: 0.01}
	resolved, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return spec, resolved.Key()
}

// TestOutsideBytesCannotEnterCache: the result cache holds only what this
// server simulated (or what its own process put there). A PUT of forged bytes
// under a real content key is refused, and the next submit of that spec
// simulates and returns the runner's bytes, not the forged ones.
func TestOutsideBytesCannotEnterCache(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 2})
	runs := 0
	srv.runJob = func(*Job) ([]byte, error) {
		runs++
		return []byte("{\"stub\":true}\n"), nil
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	spec, key := hj2Key(t)
	forged := []byte(`{"Cycles":1,"forged":true}`)

	put, _ := http.NewRequest(http.MethodPut, hs.URL+"/cache/"+key, bytes.NewReader(forged))
	resp, err := http.DefaultClient.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		t.Errorf("PUT /cache/{key}: status %d, want it refused", resp.StatusCode)
	}

	resp, sr := postJob(t, hs.URL, spec, "?wait=1")
	if resp.StatusCode != http.StatusOK || sr.State != StateDone || sr.Cached || runs != 1 {
		t.Errorf("submit after the PUT: status %d state %s cached=%v runs=%d, want a fresh simulation",
			resp.StatusCode, sr.State, sr.Cached, runs)
	}
	if bytes.Contains(sr.Result, []byte("forged")) || !bytes.Contains(sr.Result, []byte("stub")) {
		t.Errorf("the submit was answered with %s, want the runner's result", sr.Result)
	}
	if resp, err = http.Get(hs.URL + "/cache/" + key); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		t.Errorf("GET /cache/{key}: status %d, want no such route", resp.StatusCode)
	}
}

// TestCachePutIsAHit: the in-process half, which the benchmark's serve probe
// relies on. Bytes put with CachePut answer the next submit of the matching
// spec as a cache hit, and the runner is not called.
func TestCachePutIsAHit(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 2})
	ran := false
	srv.runJob = func(*Job) ([]byte, error) {
		ran = true
		return []byte("{\"stub\":true}\n"), nil
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	spec, key := hj2Key(t)
	mustPut(t, srv, key, "{\"put\":\"in-process\"}\n")
	resp, sr := postJob(t, hs.URL, spec, "")
	if resp.StatusCode != http.StatusOK || !sr.Cached || !bytes.Contains(sr.Result, []byte("in-process")) {
		t.Errorf("submit after CachePut: status %d cached=%v result %q, want a hit on the put bytes",
			resp.StatusCode, sr.Cached, sr.Result)
	}
	if ran {
		t.Error("simulation ran despite the cached entry")
	}
}
