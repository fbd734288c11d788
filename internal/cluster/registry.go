package cluster

import (
	"sort"
	"sync"
	"time"
)

// WorkerInfo identifies one ppfserve worker: a stable ID (used on the hash
// ring and as its job-ID prefix) and the base URL peers reach it at.
type WorkerInfo struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// workerState is the registry's view of one live worker.
type workerState struct {
	info     WorkerInfo
	lastBeat time.Time
}

// registry is the ring membership: the live workers and their last beats.
type registry struct {
	mu   sync.Mutex
	live map[string]*workerState
}

func newRegistry() *registry { return &registry{live: map[string]*workerState{}} }

// upsert registers a worker or refreshes its heartbeat.
func (r *registry) upsert(info WorkerInfo, now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.live[info.ID] = &workerState{info: info, lastBeat: now}
}

// remove ejects a worker. Idempotent.
func (r *registry) remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.live, id)
}

// get returns a live worker's info.
func (r *registry) get(id string) (WorkerInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.live[id]
	if !ok {
		return WorkerInfo{}, false
	}
	return w.info, true
}

// liveWorkers lists live workers sorted by ID.
func (r *registry) liveWorkers() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]WorkerInfo, 0, len(r.live))
	for _, w := range r.live {
		out = append(out, w.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// stale returns the IDs of workers whose last heartbeat predates the TTL.
func (r *registry) stale(now time.Time, ttl time.Duration) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for id, w := range r.live {
		if now.Sub(w.lastBeat) > ttl {
			out = append(out, id)
		}
	}
	return out
}
