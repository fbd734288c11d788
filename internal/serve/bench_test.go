package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"eventpf/internal/harness"
)

// The cache-hit budget per request, whole handler: decoding the JobSpec,
// Resolve, Key, the LRU lookup and writing the stored reply, plus the
// httptest request and recorder the loop builds. Measured at 40 allocs and
// 10 586 B on HJ-2 × manual (Go 1.24, amd64); each budget is that plus 20 %.
// Re-encoding the result on every hit costs 52 allocs and 19 128 B and
// fails both.
const (
	hitAllocsBudget = 48
	hitBytesBudget  = 12_700
)

var hitSink *httptest.ResponseRecorder

// BenchmarkSubmitHit times POST /jobs for a config the cache holds, through
// the handler with no socket, on a real HJ-2 × manual result. It fails itself
// above the allocation budget.
func BenchmarkSubmitHit(b *testing.B) {
	spec := harness.JobSpec{Bench: "HJ-2", Scheme: "manual", Scale: 0.01}
	job, err := spec.Resolve()
	if err != nil {
		b.Fatal(err)
	}
	res, err := harness.Run(job.Bench, job.Scheme, job.Options())
	if err != nil {
		b.Fatal(err)
	}
	var enc bytes.Buffer
	if err := harness.EncodeResult(&enc, res); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(Config{Workers: 1})
	defer srv.Drain(context.Background())
	if err := srv.CachePut(job.Key(), enc.Bytes()); err != nil {
		b.Fatal(err)
	}
	body, _ := json.Marshal(spec)
	hit := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs?wait=1", bytes.NewReader(body)))
		return rec
	}
	if rec := hit(); rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cached": true`)) {
		b.Fatalf("warm-up submit: status %d %.80s, want a cache hit", rec.Code, rec.Body.String())
	}

	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hitSink = hit()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := uint64(b.N)
	if mallocs := after.Mallocs - before.Mallocs; mallocs > hitAllocsBudget*n+16 {
		b.Errorf("%d allocations over %d hits, budget %d a hit", mallocs, b.N, hitAllocsBudget)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > hitBytesBudget*n+4096 {
		b.Errorf("%d bytes allocated over %d hits, budget %d a hit", alloc, b.N, hitBytesBudget)
	}
}
