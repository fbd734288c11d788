package cluster

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eventpf/internal/serve"
)

// Config sizes the coordinator. The zero value is usable.
type Config struct {
	// Replicas is how many workers hold each completed result: the ring
	// owner plus Replicas-1 runner-up replicas (default 2). Failover can
	// only avoid re-simulation when at least one replica survives.
	Replicas int
	// DefaultScale is substituted into routed specs that omit scale before
	// hashing, so the coordinator and every worker derive the same content
	// key (default 0.05 — keep it equal to the workers' -default-scale).
	DefaultScale float64
	// HeartbeatEvery is the registration refresh interval advertised to
	// workers and the coordinator's own health-check cadence (default 1s).
	HeartbeatEvery time.Duration
}

const (
	// heartbeatMiss is how many missed heartbeats eject a worker.
	heartbeatMiss = 3
	// scrapeTimeout bounds each worker /metrics scrape. Every other request
	// to a worker goes out with no timeout, because a ?wait=1 submission
	// legitimately blocks for a full simulation.
	scrapeTimeout = 2 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.DefaultScale <= 0 {
		c.DefaultScale = 0.05
	}
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = time.Second
	}
	return c
}

// clusterMetrics are the coordinator's own counters, written to /metrics
// after the workers' merged lines.
type clusterMetrics struct {
	routed       atomic.Int64 // POST /jobs bodies routed
	proxyRetries atomic.Int64 // failed attempts retried on the next replica
	replications atomic.Int64 // results copied owner → runner-up replicas
	noWorkers    atomic.Int64 // submissions refused: empty ring
}

// Coordinator routes jobs across registered ppfserve workers. It holds the
// ring membership and nothing else: the rendezvous order says which workers
// hold a key's bytes and a job ID names its worker (<worker>-<n>), so a
// restart loses nothing — the ring refills from the next heartbeats.
type Coordinator struct {
	cfg Config
	mux *http.ServeMux
	reg *registry
	m   clusterMetrics

	stopOnce sync.Once
	stopc    chan struct{}
}

// NewCoordinator builds a coordinator and starts its health-check loop.
func NewCoordinator(cfg Config) *Coordinator {
	c := &Coordinator{
		cfg:   cfg.withDefaults(),
		reg:   newRegistry(),
		stopc: make(chan struct{}),
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("POST /register", c.handleRegister)
	c.mux.HandleFunc("DELETE /register/{id}", c.handleDeregister)
	c.mux.HandleFunc("GET /workers", c.handleWorkers)
	c.mux.HandleFunc("POST /jobs", c.handleSubmit)
	jobs := c.jobProxy()
	c.mux.Handle("GET /jobs/{id}", jobs)
	c.mux.Handle("GET /jobs/{id}/result", jobs)
	c.mux.Handle("GET /jobs/{id}/events", jobs)
	c.mux.Handle("DELETE /jobs/{id}", jobs)
	c.mux.HandleFunc("GET /benchmarks", serve.HandleBenchmarks)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
	go c.healthLoop()
	return c
}

// Handler returns the coordinator's HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Close stops the health-check loop.
func (c *Coordinator) Close() { c.stopOnce.Do(func() { close(c.stopc) }) }

// healthLoop ejects workers whose heartbeats went stale.
func (c *Coordinator) healthLoop() {
	t := time.NewTicker(c.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stopc:
			return
		case now := <-t.C:
			for _, id := range c.reg.stale(now, c.cfg.HeartbeatEvery*(heartbeatMiss+1)) {
				c.reg.remove(id)
			}
		}
	}
}

// registerResponse tells a worker how often to re-register.
type registerResponse struct {
	HeartbeatSeconds float64 `json:"heartbeat_seconds"`
	Workers          int     `json:"workers"`
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var info WorkerInfo
	if code, err := serve.DecodeBody(w, r, &info); err != nil {
		serve.WriteJSON(w, code, serve.ErrorResponse{Error: "bad registration body: " + err.Error()})
		return
	}
	if info.ID == "" || info.URL == "" {
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorResponse{Error: "registration needs {id, url}"})
		return
	}
	c.reg.upsert(info, time.Now())
	serve.WriteJSON(w, http.StatusOK, registerResponse{
		HeartbeatSeconds: c.cfg.HeartbeatEvery.Seconds(),
		Workers:          len(c.reg.liveWorkers()),
	})
}

func (c *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	c.reg.remove(r.PathValue("id"))
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleWorkers(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, map[string]any{"workers": c.reg.liveWorkers()})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	serve.WriteJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"workers": len(c.reg.liveWorkers()),
	})
}

// rankLive returns the live workers in rendezvous order for a content key.
func (c *Coordinator) rankLive(key string) []WorkerInfo {
	live := c.reg.liveWorkers()
	ids := make([]string, len(live))
	byID := make(map[string]WorkerInfo, len(live))
	for i, wk := range live {
		ids[i] = wk.ID
		byID[wk.ID] = wk
	}
	out := make([]WorkerInfo, 0, len(live))
	for _, id := range rankWorkers(key, ids) {
		out = append(out, byID[id])
	}
	return out
}

// handleMetrics merges the /metrics of every live worker that answers the
// scrape: counters and gauges summed, the worst of each quantile line,
// per-worker detail lines for the load-balancing gauges, then the
// coordinator's own cluster_* counters. A dead worker's counters leave the
// sum with it, so a total read across a death can only under-count.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	perWorker := c.scrapeLiveWorkers()
	merged := map[string]int64{}
	for _, m := range perWorker {
		for name, v := range m {
			if !isQuantile(name) {
				merged[name] += v
			} else if v > merged[name] {
				merged[name] = v
			}
		}
	}

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	names := make([]string, 0, len(merged))
	for name := range merged {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s %d\n", name, merged[name])
	}

	// Per-worker detail: enough to read each worker's hit rate and load.
	detail := []string{
		"ppfserve_cache_hits", "ppfserve_cache_misses", "ppfserve_memo_misses",
		"ppfserve_jobs_inflight", "ppfserve_queue_depth",
	}
	wids := make([]string, 0, len(perWorker))
	for id := range perWorker {
		wids = append(wids, id)
	}
	sort.Strings(wids)
	for _, id := range wids {
		for _, name := range detail {
			fmt.Fprintf(w, "%s{worker=%q} %d\n", name, id, perWorker[id][name])
		}
	}

	for _, kv := range []struct {
		name string
		v    int64
	}{
		{"cluster_workers_live", int64(len(c.reg.liveWorkers()))},
		{"cluster_jobs_routed", c.m.routed.Load()},
		{"cluster_proxy_retries", c.m.proxyRetries.Load()},
		{"cluster_replications", c.m.replications.Load()},
		{"cluster_no_worker_rejections", c.m.noWorkers.Load()},
	} {
		fmt.Fprintf(w, "%s %d\n", kv.name, kv.v)
	}
}

// isQuantile reports whether a metric line is a histogram summary, which
// merges across workers as a maximum rather than a sum.
func isQuantile(name string) bool {
	return strings.HasSuffix(name, "_p50") || strings.HasSuffix(name, "_p99") || strings.HasSuffix(name, "_max")
}
