package serve

import (
	"bytes"
	"io"
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

// TestCacheEndpoints: the GET/PUT /cache/{key} pair the cluster's
// replication rides on. A filled key turns the next submit of the matching
// spec into a cache hit — no simulation runs.
func TestCacheEndpoints(t *testing.T) {
	srv := NewServer(Config{Workers: 1, QueueDepth: 2})
	ran := false
	srv.SetRunner(func(jb *Job) ([]byte, error) {
		ran = true
		return []byte("{\"stub\":true}\n"), nil
	})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	spec := harness.JobSpec{Bench: "HJ-2", Scheme: "no-pf", Scale: 0.01}
	resolved, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	key := resolved.Key()
	canonical := []byte("{\"peer\":\"filled\"}\n")

	// Missing key → 404 (malformed PUTs: TestRejectsBadOutsideInput).
	if resp, _ := http.Get(hs.URL + "/cache/" + key); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET of unfilled key: status %d, want 404", resp.StatusCode)
	}

	put, _ := http.NewRequest(http.MethodPut, hs.URL+"/cache/"+key, bytes.NewReader(canonical))
	resp, err := http.DefaultClient.Do(put)
	if err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT /cache: %v status %d", err, resp.StatusCode)
	}

	got, err := http.Get(hs.URL + "/cache/" + key)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(got.Body)
	got.Body.Close()
	if !bytes.Equal(b, canonical) {
		t.Errorf("GET /cache returned %q, want the PUT bytes", b)
	}

	resp2, sr := postJob(t, hs.URL, spec, "")
	if resp2.StatusCode != http.StatusOK || !sr.Cached {
		t.Errorf("submit after the fill: status %d cached=%v, want a cache hit", resp2.StatusCode, sr.Cached)
	}
	if ran {
		t.Error("simulation ran despite the filled cache entry")
	}

	m := scrapeMetrics(t, hs.URL)
	if m["ppfserve_cache_fills"] != 1 {
		t.Errorf("cache_fills = %d, want 1", m["ppfserve_cache_fills"])
	}
}
