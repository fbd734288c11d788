package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"eventpf/internal/trace"
)

// progressSink turns the machine-wide trace bus into job progress: it
// counts every event the simulation emits and publishes the running totals
// and the simulated clock each `every` events. It runs inline on the
// simulation goroutine (it is that one run's Options.TraceSink), so the
// per-event cost is one increment; publishing amortises to nothing.
type progressSink struct {
	job   *Job
	every int64
	n     int64
}

func (p *progressSink) Event(e trace.Event) {
	p.n++
	if p.n%p.every == 0 {
		p.job.publish(ProgressEvent{
			State:    StateRunning,
			Phase:    "simulating",
			Events:   p.n,
			SimTicks: e.At,
		})
	}
}

// handleEvents streams a job's status as Server-Sent Events: the current
// status on attach, then every change the client keeps up with, ending after
// the one terminal event. Seq is strictly increasing and skips what a slow
// client missed; each event is cumulative, so a subscriber attaching at any
// point (or again after a disconnect) reconstructs the job's state from the
// first event it sees.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	jb, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no such job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	jb.watch(r.Context(), func(ev ProgressEvent) {
		// SSE wire format: id is the seq, event the job state, data the
		// full JSON record.
		data, _ := json.Marshal(ev)
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.State, data)
		fl.Flush()
	})
}
