// Package serve is the simulation-as-a-service layer: a long-running HTTP
// daemon that accepts benchmark×scheme×config jobs, runs each as one
// harness.Run on a bounded worker pool, serves results from a
// content-addressed LRU cache, streams per-job progress over SSE, and exposes
// a /metrics endpoint combining server counters with the simulator's merged
// trace registries. Design-space exploration around programmable
// prefetchers is sweep-shaped; the service turns the one-shot CLI harness
// into an always-warm result store: identical in-flight requests share one
// simulation, and a past request is answered from the cache for as long as
// the cache's bounds keep its result.
package serve

import (
	"context"
	"strconv"
	"sync"
	"time"

	"eventpf/internal/harness"
)

// State is a job's position in its lifecycle. Transitions only move
// forward (Job.publish enforces it): Queued → Running → Done or Failed, or
// Queued directly to Rejected when a drain or a cancel takes the job out of
// the queue.
type State string

// Job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateRejected State = "rejected" // dropped from the queue (drain or cancel)
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateRejected
}

// ProgressEvent is a job's status at one moment. Every field is cumulative —
// Events and SimTicks only grow, State only moves forward — so a reader that
// skips an event loses nothing by it. Seq counts the job's publishes (the
// "queued" event is 1): it is strictly increasing along a stream and may skip.
type ProgressEvent struct {
	Seq   int64 `json:"seq"`
	State State `json:"state"`
	// Phase refines Running ("simulating") and carries the terminal detail
	// ("oracle-checked", "draining", …).
	Phase string `json:"phase,omitempty"`
	// Events is the number of machine trace events observed so far; SimTicks
	// is the simulated clock they reach.
	Events   int64  `json:"events,omitempty"`
	SimTicks int64  `json:"sim_ticks,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Job is one admitted simulation request and its runtime state. The spec is
// immutable after admission; everything else is guarded by mu.
type Job struct {
	ID   string          `json:"id"`
	Key  string          `json:"key"` // content address of the resolved config
	Spec harness.JobSpec `json:"spec"`

	resolved harness.Job

	mu       sync.Mutex
	status   ProgressEvent // the latest publish, nothing older is kept
	changed  chan struct{} // closed and replaced by every applied publish
	result   []byte        // canonical harness.EncodeResult bytes, set when done
	started  time.Time
	finished time.Time
}

func newJob(id string, spec harness.JobSpec, resolved harness.Job) *Job {
	j := &Job{
		ID:       id,
		Key:      resolved.Key(),
		Spec:     spec,
		resolved: resolved,
		changed:  make(chan struct{}),
	}
	j.publish(ProgressEvent{State: StateQueued})
	return j
}

// publish makes ev the job's status and wakes every watcher. It is the one
// gate that keeps states moving forward: nothing applies after a terminal
// state, and only a queued job can be rejected, so of a racing cancel and
// dispatch exactly one wins. It reports whether ev applied. Callers must NOT
// hold j.mu.
func (j *Job) publish(ev ProgressEvent) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	cur := j.status
	if cur.State.Terminal() || (ev.State == StateRejected && cur.State != StateQueued) {
		return false
	}
	ev.Seq = cur.Seq + 1
	if ev.State == "" {
		ev.State = cur.State
	}
	ev.Events = max(ev.Events, cur.Events)
	ev.SimTicks = max(ev.SimTicks, cur.SimTicks)
	now := time.Now()
	if ev.State == StateRunning && j.started.IsZero() {
		j.started = now
	}
	if ev.State.Terminal() {
		j.finished = now
	}
	j.status = ev
	close(j.changed)
	j.changed = make(chan struct{})
	return true
}

// watch hands send the job's current status, then its status after every
// change this goroutine keeps up with, and returns true once it has sent a
// terminal one, false if ctx ended first. A publish never waits for a
// watcher: one that is slow finds a later status when it looks again.
func (j *Job) watch(ctx context.Context, send func(ProgressEvent)) bool {
	for {
		j.mu.Lock()
		st, changed := j.status, j.changed
		j.mu.Unlock()
		send(st)
		if st.State.Terminal() {
			return true
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return false
		}
	}
}

// snapshot returns the job's externally visible status.
func (j *Job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:     j.ID,
		Key:    j.Key,
		Spec:   j.Spec,
		State:  j.status.State,
		Error:  j.status.Error,
		Events: j.status.Seq,
	}
	if !j.started.IsZero() && !j.finished.IsZero() {
		st.RunSeconds = j.finished.Sub(j.started).Seconds()
	}
	return st
}

// JobStatus is the GET /jobs/{id} response body.
type JobStatus struct {
	ID         string          `json:"id"`
	Key        string          `json:"key"`
	Spec       harness.JobSpec `json:"spec"`
	State      State           `json:"state"`
	Error      string          `json:"error,omitempty"`
	Events     int64           `json:"progress_events"` // publishes so far
	RunSeconds float64         `json:"run_seconds,omitempty"`
}

// currentState returns the current state under the lock.
func (j *Job) currentState() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status.State
}

// setResult stores the canonical result bytes (called once, on done).
func (j *Job) setResult(b []byte) {
	j.mu.Lock()
	j.result = b
	j.mu.Unlock()
}

// resultBytes returns the stored canonical bytes, or nil if not done.
func (j *Job) resultBytes() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

func jobID(n uint64) string { return "j" + strconv.FormatUint(n, 10) }
