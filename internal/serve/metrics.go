package serve

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"eventpf/internal/trace"
)

// metrics holds the server-level counters exposed at /metrics. All fields
// are atomics so the scrape path never contends with the serving path.
type metrics struct {
	submitted            atomic.Int64 // POST /jobs bodies that decoded
	completed            atomic.Int64 // jobs that reached done
	failed               atomic.Int64 // jobs that reached failed
	rejectedValidation   atomic.Int64 // 400: bad bench/scheme/scale
	rejectedBackpressure atomic.Int64 // 429: admission queue full
	rejectedDraining     atomic.Int64 // 503: submitted during drain
	deduped              atomic.Int64 // coalesced onto an in-flight job
	cacheHits            atomic.Int64 // served straight from the result cache
	cacheMisses          atomic.Int64 // admitted for simulation
	cacheEvictions       atomic.Int64 // entries pushed out by the LRU bound
	inflight             atomic.Int64 // jobs currently simulating
	simulations          atomic.Int64 // jobs a worker started running (ppfserve_memo_misses)
	draining             atomic.Bool
}

// simAggregate accumulates the per-run trace registries of completed jobs.
// Each run's registry is confined to its simulation goroutine; the finished
// snapshot is merged here under the lock.
type simAggregate struct {
	mu  sync.Mutex
	reg *trace.Registry
}

func newSimAggregate() *simAggregate {
	return &simAggregate{reg: trace.NewRegistry()}
}

func (a *simAggregate) merge(r *trace.Registry) {
	a.mu.Lock()
	a.reg.Merge(r)
	a.mu.Unlock()
}

// writeTo renders the aggregate as exposition lines with a sim_ prefix,
// sorted by name. Histograms expose count/sum plus p50/p99/max summaries.
func (a *simAggregate) writeTo(w io.Writer) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var lines []string
	for _, c := range a.reg.Counters() {
		lines = append(lines, fmt.Sprintf("sim_%s %d", metricName(c.Name), c.N))
	}
	for _, h := range a.reg.Hists() {
		n := metricName(h.Name)
		lines = append(lines,
			fmt.Sprintf("sim_%s_count %d", n, h.N),
			fmt.Sprintf("sim_%s_sum %d", n, h.Sum),
			fmt.Sprintf("sim_%s_p50 %d", n, h.Quantile(0.5)),
			fmt.Sprintf("sim_%s_p99 %d", n, h.Quantile(0.99)),
			fmt.Sprintf("sim_%s_max %d", n, h.Max()),
		)
	}
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}

// metricName folds a registry name ("pf.req.queue") into exposition form
// ("pf_req_queue").
func metricName(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '.', '-', ' ', '/':
			return '_'
		}
		return r
	}, s)
}
