package serve

import (
	"bytes"
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"

	"eventpf/internal/harness"
	"eventpf/internal/stats"
	"eventpf/internal/workloads"
)

// Config sizes the daemon. The zero value is usable: every field has a
// production-minded default.
type Config struct {
	// Workers bounds concurrent simulations (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue; a full queue answers 429 with
	// a Retry-After hint instead of growing without bound (default 64).
	QueueDepth int
	// DefaultScale is substituted when a job omits scale (default 0.05 — a
	// serving-sized input, not the full paper input).
	DefaultScale float64
	// MaxScale rejects jobs above this input scale so one request cannot
	// monopolise the service (default 1.0).
	MaxScale float64
	// CacheEntries caps the content-addressed result cache entry count
	// (default 4096; eviction is LRU).
	CacheEntries int
	// CacheBytes caps the cache's total stored bytes, each entry's result
	// plus its rendered hit reply (default 256 MiB; eviction is LRU, but a
	// single entry larger than the cap is retained rather than thrashed).
	CacheBytes int64
	// ProgressEvery publishes one SSE progress event per this many machine
	// trace events (default 65536).
	ProgressEvery int64
}

// jobHistory caps how many terminal jobs stay queryable by ID.
const jobHistory = 1024

// maxBody bounds a JSON request body (a JobSpec).
const maxBody = 1 << 20

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultScale <= 0 {
		c.DefaultScale = 0.05
	}
	if c.MaxScale <= 0 {
		c.MaxScale = 1.0
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.ProgressEvery <= 0 {
		c.ProgressEvery = 1 << 16
	}
	return c
}

// cacheEntry is one content-addressed result: the canonical bytes and the
// 200 reply a hit answers with, rendered once at insert. An entry never
// changes after insert, so a hit may write reply after releasing s.mu.
type cacheEntry struct {
	key   string
	bytes []byte
	reply []byte
}

// newCacheEntry renders the hit reply for b, naming the job that produced it
// (empty for entries inserted with CachePut). It fails when b is not JSON, so
// bytes no hit could answer with never enter the cache.
func newCacheEntry(key string, b []byte, jobID string) (*cacheEntry, error) {
	reply, err := renderJSON(submitResponse{ID: jobID, Key: key, State: StateDone, Cached: true, Result: b})
	if err != nil {
		return nil, err
	}
	return &cacheEntry{key: key, bytes: b, reply: reply}, nil
}

// size is what an entry counts against Config.CacheBytes: result plus reply.
func (e *cacheEntry) size() int64 { return int64(len(e.bytes) + len(e.reply)) }

// Server is the simulation-as-a-service daemon. A job is one harness.Run on
// one of the Workers goroutines; byKey is the one in-flight table and the LRU
// cache the one result store, so the cache bounds are the server's bounds: an
// evicted (or failed) config simulates again when it is next asked for.
type Server struct {
	cfg Config
	mux *http.ServeMux
	m   metrics
	sim *simAggregate

	// runJob performs one admitted simulation; tests substitute it so
	// queue/drain/status behaviour is checkable without real simulations.
	runJob func(*Job) ([]byte, error)

	mu         sync.Mutex
	seq        uint64
	jobs       map[string]*Job
	jobOrder   []string
	byKey      map[string]*Job // queued or running job per content key
	cache      map[string]*list.Element
	cacheLRU   *list.List // front = most recently used *cacheEntry
	cacheBytes int64
	queue      chan *Job
	draining   bool
	drained    chan struct{} // closed when Drain finishes
	ewmaRun    stats.EWMA    // smoothed job duration, feeds Retry-After

	workerWG sync.WaitGroup
}

// NewServer builds a daemon and starts its workers.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		jobs:     map[string]*Job{},
		byKey:    map[string]*Job{},
		cache:    map[string]*list.Element{},
		cacheLRU: list.New(),
		queue:    make(chan *Job, cfg.QueueDepth),
		ewmaRun:  stats.NewEWMA(4),
		drained:  make(chan struct{}),
		sim:      newSimAggregate(),
	}
	s.runJob = s.simulate
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /benchmarks", handleBenchmarks)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.startWorkers()
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// submitResponse is the POST /jobs response body.
type submitResponse struct {
	ID     string          `json:"id,omitempty"`
	Key    string          `json:"key"`
	State  State           `json:"state"`
	Cached bool            `json:"cached"`
	Dedup  bool            `json:"dedup,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// errorResponse is every non-2xx JSON body. The valid-value lists turn a
// typo'd request into a menu (workloads.MenuNames, harness.SchemeNames).
type errorResponse struct {
	Error           string   `json:"error"`
	ValidBenchmarks []string `json:"valid_benchmarks,omitempty"`
	ValidSchemes    []string `json:"valid_schemes,omitempty"`
	RetryAfter      int      `json:"retry_after_seconds,omitempty"`
}

// decodeBody decodes a JSON request body of at most maxBody bytes into v. On
// failure it returns the status to answer with: 413 for an oversized body,
// 400 for anything else.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return http.StatusOK, nil
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, err
	default:
		return http.StatusBadRequest, err
	}
}

// renderJSON is the one encoding of a JSON reply body: indented, newline
// terminated. writeJSON uses it per reply; a cache entry's hit reply is
// rendered with it once, at insert, so a hit answers with the same bytes.
func renderJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeJSON answers with v rendered under the given status. The body is
// rendered before the status is sent, so a value that does not render
// answers 500 with a JSON error, never the status with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := renderJSON(v)
	if err != nil {
		code = http.StatusInternalServerError
		b, _ = renderJSON(errorResponse{Error: "rendering the reply: " + err.Error()}) // strings always render
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(b)
}

// handleSubmit admits one job: cache hit → immediate result; duplicate of
// an in-flight job → coalesce; queue full → 429 + Retry-After; draining →
// 503; otherwise enqueue.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec harness.JobSpec
	if code, err := decodeBody(w, r, &spec); err != nil {
		s.m.rejectedValidation.Add(1)
		writeJSON(w, code, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	s.m.submitted.Add(1)
	if spec.Scale == 0 {
		spec.Scale = s.cfg.DefaultScale
	}
	resolved, err := spec.Resolve()
	if err != nil {
		s.m.rejectedValidation.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error:           err.Error(),
			ValidBenchmarks: workloads.MenuNames(),
			ValidSchemes:    harness.SchemeNames(),
		})
		return
	}
	if resolved.Scale > s.cfg.MaxScale {
		s.m.rejectedValidation.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{
			Error: fmt.Sprintf("scale %g exceeds this server's maximum %g", resolved.Scale, s.cfg.MaxScale),
		})
		return
	}
	key := resolved.Key()

	s.mu.Lock()
	if e, ok := s.cacheGetLocked(key); ok {
		s.m.cacheHits.Add(1)
		s.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(e.reply)
		return
	}
	if jb, ok := s.byKey[key]; ok {
		s.m.deduped.Add(1)
		s.mu.Unlock()
		s.respondMaybeWait(w, r, jb, submitResponse{ID: jb.ID, Key: key, State: jb.currentState(), Dedup: true})
		return
	}
	if s.draining {
		s.m.rejectedDraining.Add(1)
		s.mu.Unlock()
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server is draining; not accepting jobs"})
		return
	}
	s.seq++
	jb := newJob(jobID(s.seq), spec, resolved)
	select {
	case s.queue <- jb:
		s.m.cacheMisses.Add(1)
		s.jobs[jb.ID] = jb
		s.jobOrder = append(s.jobOrder, jb.ID)
		s.byKey[key] = jb
		s.evictJobsLocked()
		s.mu.Unlock()
		s.respondMaybeWait(w, r, jb, submitResponse{ID: jb.ID, Key: key, State: StateQueued})
	default:
		s.m.rejectedBackpressure.Add(1)
		retry := s.retryAfterLocked()
		s.mu.Unlock()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retry))
		writeJSON(w, http.StatusTooManyRequests, errorResponse{
			Error:      "admission queue full",
			RetryAfter: retry,
		})
	}
}

// respondMaybeWait answers immediately, or — with ?wait=1 — blocks until
// the job is terminal and answers like a cache hit would have.
func (s *Server) respondMaybeWait(w http.ResponseWriter, r *http.Request, jb *Job, resp submitResponse) {
	if r.URL.Query().Get("wait") == "" {
		writeJSON(w, http.StatusAccepted, resp)
		return
	}
	if !jb.watch(r.Context(), func(ProgressEvent) {}) {
		writeJSON(w, http.StatusAccepted, resp)
		return
	}
	snap := jb.snapshot()
	resp.State = snap.State
	resp.Error = snap.Error
	resp.Result = jb.resultBytes()
	code := http.StatusOK
	if snap.State != StateDone {
		code = http.StatusUnprocessableEntity
	}
	writeJSON(w, code, resp)
}

func (s *Server) lookup(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	jb, ok := s.jobs[id]
	return jb, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no such job"})
		return
	}
	type statusWithResult struct {
		JobStatus
		Result json.RawMessage `json:"result,omitempty"`
	}
	writeJSON(w, http.StatusOK, statusWithResult{JobStatus: jb.snapshot(), Result: jb.resultBytes()})
}

// handleResult serves the stored canonical result bytes verbatim — the
// byte-identical-to-ppfsim guarantee lives here.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no such job"})
		return
	}
	b := jb.resultBytes()
	if b == nil {
		writeJSON(w, http.StatusConflict, errorResponse{Error: fmt.Sprintf("job is %s, not done", jb.currentState())})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no such job"})
		return
	}
	if !s.finishJob(jb, StateRejected, "cancelled by client") {
		writeJSON(w, http.StatusConflict, errorResponse{Error: "only queued jobs can be cancelled"})
		return
	}
	writeJSON(w, http.StatusOK, jb.snapshot())
}

// CacheGet returns the cached canonical bytes for a content key, if
// present, refreshing its LRU recency.
func (s *Server) CacheGet(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.cacheGetLocked(key)
	if !ok {
		return nil, false
	}
	return e.bytes, true
}

// CachePut inserts canonical bytes under a content key (first write wins).
// Bytes that are not JSON are refused with an error and nothing is stored.
func (s *Server) CachePut(key string, b []byte) error {
	e, err := newCacheEntry(key, b, "")
	if err != nil {
		return fmt.Errorf("cache put: %w", err)
	}
	s.mu.Lock()
	s.cachePutLocked(e)
	s.mu.Unlock()
	return nil
}

// handleBenchmarks serves GET /benchmarks: the benchmark and scheme menus.
func handleBenchmarks(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{
		"benchmarks": workloads.MenuNames(),
		"schemes":    harness.SchemeNames(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.m.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics renders every server counter and the merged per-run
// simulator registries as "name value" lines.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.mu.Lock()
	queueDepth := len(s.queue)
	cacheEntries := s.cacheLRU.Len()
	cacheBytes := s.cacheBytes
	s.mu.Unlock()
	drain := int64(0)
	if s.m.draining.Load() {
		drain = 1
	}
	for _, kv := range []struct {
		name string
		v    int64
	}{
		{"ppfserve_jobs_submitted", s.m.submitted.Load()},
		{"ppfserve_jobs_completed", s.m.completed.Load()},
		{"ppfserve_jobs_failed", s.m.failed.Load()},
		{"ppfserve_jobs_rejected_validation", s.m.rejectedValidation.Load()},
		{"ppfserve_jobs_rejected_backpressure", s.m.rejectedBackpressure.Load()},
		{"ppfserve_jobs_rejected_draining", s.m.rejectedDraining.Load()},
		{"ppfserve_jobs_deduped", s.m.deduped.Load()},
		{"ppfserve_jobs_inflight", s.m.inflight.Load()},
		{"ppfserve_cache_hits", s.m.cacheHits.Load()},
		{"ppfserve_cache_misses", s.m.cacheMisses.Load()},
		{"ppfserve_cache_evictions", s.m.cacheEvictions.Load()},
		{"ppfserve_cache_entries", int64(cacheEntries)},
		{"ppfserve_cache_bytes", cacheBytes},
		{"ppfserve_queue_depth", int64(queueDepth)},
		{"ppfserve_queue_capacity", int64(s.cfg.QueueDepth)},
		{"ppfserve_workers", int64(s.cfg.Workers)},
		{"ppfserve_draining", drain},
		// Simulations this server started. The name dates from a memo that
		// sat under the server; benchmark/servemix.go and ppfload's
		// no-re-simulation assertion key on it, so it stays until ROADMAP
		// 6(a) may edit benchmark/.
		{"ppfserve_memo_misses", s.m.simulations.Load()},
	} {
		fmt.Fprintf(w, "%s %d\n", kv.name, kv.v)
	}
	s.sim.writeTo(w)
}

// evictJobsLocked trims terminal jobs beyond the history cap, oldest first.
// Callers hold s.mu.
func (s *Server) evictJobsLocked() {
	for len(s.jobOrder) > jobHistory {
		evicted := false
		for i, id := range s.jobOrder {
			jb := s.jobs[id]
			if jb != nil && !jb.currentState().Terminal() {
				continue
			}
			delete(s.jobs, id)
			s.jobOrder = append(s.jobOrder[:i], s.jobOrder[i+1:]...)
			evicted = true
			break
		}
		if !evicted {
			return // everything live; cap is soft in that case
		}
	}
}

// cacheGetLocked looks a key up and refreshes its recency. Callers hold s.mu.
func (s *Server) cacheGetLocked(key string) (*cacheEntry, bool) {
	el, ok := s.cache[key]
	if !ok {
		return nil, false
	}
	s.cacheLRU.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// cachePutLocked inserts an entry (first write wins) and evicts LRU-last
// past the entry and byte caps. A single entry above the byte cap stays
// resident rather than thrashing. Callers hold s.mu; they render the entry
// (newCacheEntry) before taking it.
func (s *Server) cachePutLocked(e *cacheEntry) {
	if el, ok := s.cache[e.key]; ok {
		s.cacheLRU.MoveToFront(el)
		return
	}
	s.cache[e.key] = s.cacheLRU.PushFront(e)
	s.cacheBytes += e.size()
	for s.cacheLRU.Len() > 1 &&
		(s.cacheLRU.Len() > s.cfg.CacheEntries || s.cacheBytes > s.cfg.CacheBytes) {
		back := s.cacheLRU.Back()
		old := back.Value.(*cacheEntry)
		s.cacheLRU.Remove(back)
		delete(s.cache, old.key)
		s.cacheBytes -= old.size()
		s.m.cacheEvictions.Add(1)
	}
}

// storeResult publishes a completed job's canonical bytes into the
// content-addressed cache and retires its in-flight entry in the same
// critical section. Bytes that are not JSON are refused with an error, and
// the job stays in byKey for the caller to fail.
func (s *Server) storeResult(jb *Job, b []byte) error {
	e, err := newCacheEntry(jb.Key, b, jb.ID)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.cachePutLocked(e)
	delete(s.byKey, jb.Key)
	s.mu.Unlock()
	return nil
}
