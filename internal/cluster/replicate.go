package cluster

import (
	"bytes"
	"io"
	"net/http"
)

// Replication keeps "never simulate the same config twice" true across a
// worker's death: when a job completes, the coordinator copies its canonical
// bytes from the owner to the next Replicas-1 workers on the key's
// rendezvous order. Removing a worker only promotes the survivors of that
// order, so the worker a dead owner's key falls to is one that was given
// the bytes — the coordinator keeps no table of who holds what.

// replicate waits for a freshly admitted job to finish (by coalescing onto
// it with a ?wait=1 duplicate — the worker's in-flight dedup makes this
// free), then copies the canonical bytes to the key's runner-up replicas.
func (c *Coordinator) replicate(owner WorkerInfo, key string, spec []byte) {
	resp, err := http.Post(owner.URL+"/jobs?wait=1", "application/json", bytes.NewReader(spec))
	if err != nil {
		return // owner died mid-run; nothing to replicate
	}
	_, _ = io.Copy(io.Discard, resp.Body) // the answer is the wait, not the bytes
	resp.Body.Close()
	// Fetch the stored canonical bytes (NOT the inline result, whose
	// whitespace the JSON envelope re-indents) so replicas serve
	// byte-identical responses. A failed job stored none.
	b, ok := c.cacheFetch(owner, key)
	if !ok {
		return
	}
	copies := 0
	for _, wk := range c.rankLive(key) {
		if wk.ID == owner.ID {
			continue
		}
		if copies >= c.cfg.Replicas-1 {
			break
		}
		if c.cachePush(wk, key, b) {
			c.m.replications.Add(1)
		}
		copies++
	}
}

// cacheFetch reads a worker's stored bytes for a content key.
func (c *Coordinator) cacheFetch(wk WorkerInfo, key string) ([]byte, bool) {
	resp, err := http.Get(wk.URL + "/cache/" + key)
	if err != nil {
		c.reg.remove(wk.ID)
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil || len(b) == 0 {
		return nil, false
	}
	return b, true
}

// cachePush writes bytes into a worker's cache under a content key.
func (c *Coordinator) cachePush(wk WorkerInfo, key string, b []byte) bool {
	req, err := http.NewRequest(http.MethodPut, wk.URL+"/cache/"+key, bytes.NewReader(b))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.reg.remove(wk.ID)
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusNoContent
}
