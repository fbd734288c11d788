package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
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

	srv.CachePut(k1, []byte("r1"))
	srv.CachePut(k2, []byte("r2"))
	if _, ok := srv.CacheGet(k1); !ok { // refresh k1: k2 becomes LRU
		t.Fatal("k1 missing before eviction")
	}
	srv.CachePut(k3, []byte("r3")) // over the entry cap: k2 must go

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

// TestCacheByteBound: the byte cap evicts LRU-last, but a single entry
// larger than the cap stays resident instead of thrashing.
func TestCacheByteBound(t *testing.T) {
	srv := NewServer(Config{CacheBytes: 10})
	big := strings.Repeat("b", 64)
	small := strings.Repeat("s", 64)

	srv.CachePut(big, bytes.Repeat([]byte("x"), 20)) // alone over the cap: retained
	if _, ok := srv.CacheGet(big); !ok {
		t.Fatal("oversized sole entry was evicted instead of retained")
	}
	srv.CachePut(small, []byte("tiny")) // now the total is over: big (LRU) goes
	if _, ok := srv.CacheGet(big); ok {
		t.Error("big entry survived the byte bound with a newer entry present")
	}
	if _, ok := srv.CacheGet(small); !ok {
		t.Error("small entry missing after eviction pass")
	}

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	m := scrapeMetrics(t, hs.URL)
	if m["ppfserve_cache_bytes"] != 4 {
		t.Errorf("cache_bytes = %d, want 4", m["ppfserve_cache_bytes"])
	}
}

// hj2Key is the content key of HJ-2 × no-pf at scale 0.01, the spec the two
// tests below put into the cache.
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
	srv.CachePut(key, []byte("{\"put\":\"in-process\"}\n"))
	resp, sr := postJob(t, hs.URL, spec, "")
	if resp.StatusCode != http.StatusOK || !sr.Cached || !bytes.Contains(sr.Result, []byte("in-process")) {
		t.Errorf("submit after CachePut: status %d cached=%v result %q, want a hit on the put bytes",
			resp.StatusCode, sr.Cached, sr.Result)
	}
	if ran {
		t.Error("simulation ran despite the cached entry")
	}
}
