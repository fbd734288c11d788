package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httputil"
	"net/url"
	"strings"

	"eventpf/internal/harness"
	"eventpf/internal/serve"
	"eventpf/internal/workloads"
)

// workerSubmitResponse is the slice of a worker's POST /jobs body the
// coordinator (and its tests) read; the client still receives the worker's
// bytes verbatim.
type workerSubmitResponse struct {
	ID     string          `json:"id"`
	Key    string          `json:"key"`
	State  serve.State     `json:"state"`
	Cached bool            `json:"cached"`
	Dedup  bool            `json:"dedup"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

// handleSubmit resolves the spec locally (same fold as the workers, so the
// content key — and therefore the route — is decided before any network
// hop), walks the key's live replica order until a worker answers, forwards
// that answer verbatim, and replicates the result of a fresh admission. A
// worker that fails at the transport level is ejected and the next one is
// tried at once: it holds the replicated bytes, so the retry is a cache hit.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec harness.JobSpec
	if code, err := serve.DecodeBody(w, r, &spec); err != nil {
		serve.WriteJSON(w, code, serve.ErrorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	c.m.routed.Add(1)
	if spec.Scale == 0 {
		// Make the scale explicit so every worker hashes the same key no
		// matter how its own default is configured.
		spec.Scale = c.cfg.DefaultScale
	}
	resolved, err := spec.Resolve()
	if err != nil {
		serve.WriteJSON(w, http.StatusBadRequest, serve.ErrorResponse{
			Error:           err.Error(),
			ValidBenchmarks: workloads.MenuNames(),
			ValidSchemes:    harness.SchemeNames(),
		})
		return
	}
	key := resolved.Key()
	order := c.rankLive(key)
	if len(order) == 0 {
		c.m.noWorkers.Add(1)
		serve.WriteJSON(w, http.StatusServiceUnavailable, serve.ErrorResponse{Error: "no live workers registered"})
		return
	}

	body, _ := json.Marshal(spec)
	path := "/jobs"
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	var lastErr error
	for i, wk := range order {
		if i > 0 {
			c.m.proxyRetries.Add(1)
		}
		resp, err := http.Post(wk.URL+path, "application/json", bytes.NewReader(body))
		var raw []byte
		if err == nil {
			raw, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		if err != nil {
			c.reg.remove(wk.ID)
			lastErr = err
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			// Draining: still alive (finishing in-flight jobs), just not
			// admitting. Route around it without ejecting.
			lastErr = fmt.Errorf("worker %s is draining", wk.ID)
			continue
		}
		var sr workerSubmitResponse
		admitted := resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted
		if admitted && json.Unmarshal(raw, &sr) == nil && !sr.Cached && !sr.Dedup {
			go c.replicate(wk, key, body)
		}
		for _, h := range []string{"Content-Type", "Retry-After"} { // the backpressure hint survives the proxy
			if v := resp.Header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(raw)
		return
	}
	serve.WriteJSON(w, http.StatusBadGateway, serve.ErrorResponse{
		Error: fmt.Sprintf("no worker could take the job: %v", lastErr),
	})
}

// jobProxy serves GET /jobs/{id}[/result|/events] and DELETE /jobs/{id} by
// passing the request through to the worker the ID names. The stdlib proxy
// flushes a text/event-stream response as it arrives, so an SSE stream
// reaches the client byte for byte and simply ends if the worker dies; the
// client then resubmits the spec, which a replica answers from its cache.
func (c *Coordinator) jobProxy() http.Handler {
	workerOf := func(r *http.Request) string {
		id := r.PathValue("id")
		return id[:max(strings.LastIndexByte(id, '-'), 0)]
	}
	return &httputil.ReverseProxy{
		Rewrite: func(pr *httputil.ProxyRequest) {
			// An ID that names no live worker leaves the outbound URL
			// without a host; the transport refuses it and ErrorHandler
			// answers.
			if wk, ok := c.reg.get(workerOf(pr.In)); ok {
				if target, err := url.Parse(wk.URL); err == nil {
					pr.SetURL(target)
				}
			}
		},
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			if r.Context().Err() == nil { // a client hanging up says nothing about the worker
				c.reg.remove(workerOf(r))
			}
			serve.WriteJSON(w, http.StatusBadGateway, serve.ErrorResponse{Error: "worker gone — resubmit the spec"})
		},
	}
}
