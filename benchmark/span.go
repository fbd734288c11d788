package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark makes into a layer. Spans are recorded
// only in a traced run, kept in memory, and written out when the run ends.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // 0 = root
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
	SelfUS   float64 `json:"self_us"`
}

// spanLog collects spans. A nil *spanLog is the untraced run: begin returns 0
// and end does nothing, so call sites need no branches.
type spanLog struct {
	mu       sync.Mutex
	workload string
	origin   time.Time
	spans    []span
}

func newSpanLog(workload string) *spanLog {
	return &spanLog{workload: workload, origin: time.Now()}
}

func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.origin)
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Workload: l.workload, Name: name,
		StartUS: float64(now.Nanoseconds()) / 1e3, EndUS: -1})
	return id
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.origin)
	l.mu.Lock()
	l.spans[id-1].EndUS = float64(now.Nanoseconds()) / 1e3
	l.mu.Unlock()
}

// selfTimes fills SelfUS: a span's duration minus the part of its interval
// that its direct children cover (overlapping children count once).
func selfTimes(spans []span) {
	kids := map[int][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.StartUS, s.EndUS})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, hi := 0.0, s.StartUS
		for _, k := range iv {
			lo, end := max(k[0], hi), min(k[1], s.EndUS)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		s.SelfUS = (s.EndUS - s.StartUS) - covered
	}
}

func (l *spanLog) write(path string) error {
	selfTimes(l.spans)
	b, err := json.MarshalIndent(l.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
