// Command ppfserve is the simulation-as-a-service daemon: it accepts
// benchmark×scheme×config jobs over HTTP/JSON, runs them on a bounded
// worker pool, serves repeated requests from a content-addressed result
// cache, streams each job's latest status over SSE, and exposes server +
// simulator metrics.
//
// Usage (single server):
//
//	ppfserve -addr :8091 -workers 4 -queue 64
//
//	curl -s localhost:8091/jobs -d '{"bench":"HJ-2","scheme":"manual","scale":0.05}'
//	curl -s localhost:8091/jobs/j1
//	curl -N  localhost:8091/jobs/j1/events      # SSE: status now, then each change
//	curl -s  localhost:8091/jobs/j1/result      # canonical result JSON
//	curl -s  localhost:8091/metrics
//
// Cluster mode shards the service: one coordinator routes each job by
// rendezvous hashing of its content key to the worker that already holds
// the cached bytes and replicates completed results to the key's runner-up
// workers, so a worker's death re-simulates nothing. Requests about a job
// pass through to the worker its ID names; if that worker is gone (502, or
// an event stream that ends early), resubmit the spec.
//
//	ppfserve -cluster -addr :8090                                # coordinator
//	ppfserve -addr :8091 -coordinator http://localhost:8090      # worker 1
//	ppfserve -addr :8092 -coordinator http://localhost:8090      # worker 2
//
//	curl -s localhost:8090/jobs -d '{"bench":"HJ-2","scheme":"stride"}'
//	curl -s localhost:8090/workers
//	curl -s localhost:8090/metrics              # merged across the live workers
//
// The first SIGINT/SIGTERM drains gracefully (in-flight jobs finish, queued
// jobs are rejected, new submissions get 503); a second one force-exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"eventpf/internal/cluster"
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

		coordinatorMode = flag.Bool("cluster", false, "run as a cluster coordinator (route to registered workers; no local simulation)")
		replicas        = flag.Int("replicas", 2, "coordinator: workers holding each completed result")
		coordURL        = flag.String("coordinator", "", "worker: coordinator base URL to register with (enables cluster worker mode)")
		name            = flag.String("name", "", "worker: stable cluster name (default w<port>)")
		advertise       = flag.String("advertise", "", "worker: base URL peers reach this worker at (default http://127.0.0.1:<port>)")
	)
	flag.Parse()

	if *coordinatorMode {
		runCoordinator(*addr, *replicas, *scale)
		return
	}

	srv := serve.NewServer(serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		DefaultScale: *scale,
		MaxScale:     *maxScale,
		CacheEntries: *cacheN,
		CacheBytes:   int64(*cacheMB) << 20,
		IDPrefix:     idPrefix(*coordURL, *name, *addr),
	})
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Cluster worker mode: register with the coordinator and keep
	// heartbeating until shutdown starts, then deregister so the
	// coordinator routes around us while we drain.
	hbCtx, hbCancel := context.WithCancel(context.Background())
	defer hbCancel()
	if *coordURL != "" {
		self := cluster.WorkerInfo{
			ID:  workerName(*name, *addr),
			URL: advertiseURL(*advertise, *addr),
		}
		fmt.Printf("ppfserve: cluster worker %s (%s) registering with %s\n", self.ID, self.URL, *coordURL)
		go cluster.Heartbeat(hbCtx, *coordURL, self, 0)
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		serve.HandleSignals(srv, sigc,
			func() {
				hbCancel() // deregister from the coordinator
				_ = hs.Shutdown(context.Background())
			},
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

// runCoordinator serves the cluster router: no local simulation, only ring
// membership, proxying, replication, and merged metrics. It holds no job
// state at all, so the first signal shuts it down gracefully and
// the second force-exits.
func runCoordinator(addr string, replicas int, scale float64) {
	c := cluster.NewCoordinator(cluster.Config{Replicas: replicas, DefaultScale: scale})
	hs := &http.Server{Addr: addr, Handler: c.Handler()}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		go func() {
			<-sigc
			fmt.Fprintln(os.Stderr, "ppfserve: forced exit")
			os.Exit(1)
		}()
		c.Close()
		_ = hs.Shutdown(context.Background())
	}()

	fmt.Printf("ppfserve: coordinator listening on %s (replicas=%d)\n", addr, replicas)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "ppfserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("ppfserve: coordinator stopped, bye")
}

// workerName derives a stable cluster name from -name or the listen port.
func workerName(name, addr string) string {
	if name != "" {
		return name
	}
	if _, port, err := net.SplitHostPort(addr); err == nil {
		return "w" + port
	}
	return "w" + addr
}

// advertiseURL derives the URL peers reach this worker at. Wildcard and
// empty hosts advertise loopback — right for the localhost quickstart;
// multi-host deployments pass -advertise explicitly.
func advertiseURL(advertise, addr string) string {
	if advertise != "" {
		return advertise
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://" + addr
	}
	if host == "" || host == "0.0.0.0" || host == "::" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// idPrefix keeps job IDs unique across the fleet: cluster workers prefix
// with their name, single servers keep the short "j" form.
func idPrefix(coordURL, name, addr string) string {
	if coordURL == "" {
		return ""
	}
	return workerName(name, addr) + "-"
}
