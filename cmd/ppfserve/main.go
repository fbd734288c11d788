// Command ppfserve is the simulation-as-a-service daemon: it accepts
// benchmark×scheme×config jobs over HTTP/JSON, runs them on a bounded
// worker pool, serves repeated requests from a content-addressed result
// cache, streams each job's latest status over SSE, and exposes server +
// simulator metrics.
//
// Usage:
//
//	ppfserve -addr :8091 -workers 4 -queue 64
//
//	curl -s localhost:8091/jobs -d '{"bench":"HJ-2","scheme":"manual","scale":0.05}'
//	curl -s localhost:8091/jobs/j1
//	curl -N  localhost:8091/jobs/j1/events      # SSE: status now, then each change
//	curl -s  localhost:8091/jobs/j1/result      # canonical result JSON
//	curl -s  localhost:8091/metrics
//
// The first SIGINT/SIGTERM drains gracefully (in-flight jobs finish, queued
// jobs are rejected, new submissions get 503); a second one force-exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"eventpf/internal/harness"
	"eventpf/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8091", "listen address")
		workers  = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 64, "admission queue depth (full queue answers 429)")
		scale    = flag.Float64("default-scale", 0.05, "input scale when a job omits one")
		maxScale = flag.Float64("max-scale", 1.0, "largest accepted input scale")
		cacheN   = flag.Int("cache", 4096, "content-addressed result cache entries")
		cacheMB  = flag.Int("cache-mb", 256, "result cache byte cap in MiB (LRU eviction)")
	)
	flag.Parse()
	for _, f := range []struct {
		name string
		v    float64
	}{{"default-scale", *scale}, {"max-scale", *maxScale}} {
		if err := harness.CheckScale(f.v); err != nil {
			fmt.Fprintf(os.Stderr, "ppfserve: -%s: %v\n", f.name, err)
			os.Exit(2)
		}
	}

	srv := serve.NewServer(serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		DefaultScale: *scale,
		MaxScale:     *maxScale,
		CacheEntries: *cacheN,
		CacheBytes:   int64(*cacheMB) << 20,
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		serve.HandleSignals(srv, sigc,
			func() { _ = hs.Shutdown(context.Background()) },
			func(code int) { fmt.Fprintln(os.Stderr, "ppfserve: forced exit"); os.Exit(code) })
		close(done)
	}()

	fmt.Printf("ppfserve: listening on %s\n", *addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "ppfserve: %v\n", err)
		os.Exit(1)
	}
	<-done
	fmt.Println("ppfserve: drained, bye")
}
