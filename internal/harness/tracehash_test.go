package harness

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"eventpf/internal/trace"
	"eventpf/internal/tracein"
	"eventpf/internal/workloads"
)

// updateTraceHashes rewrites testdata/trace_hashes.json. The hashes pin the
// event sequence of the commit that generated them; regenerate only when a
// change is supposed to alter what a traced run emits.
var updateTraceHashes = flag.Bool("update-trace-hashes", false, "rewrite testdata/trace_hashes.json")

const traceHashScale = 0.02

// traceHash pins one traced run: how many events the sink saw and an FNV-1a
// hash over every field of every event, in emission order.
type traceHash struct {
	Events int
	Hash   uint64
}

func hashEvents(evs []trace.Event) traceHash {
	h := fnv.New64a()
	var b [48]byte
	for _, e := range evs {
		binary.LittleEndian.PutUint64(b[0:], uint64(e.At))
		binary.LittleEndian.PutUint64(b[8:], uint64(e.Dur))
		binary.LittleEndian.PutUint64(b[16:], e.Addr)
		binary.LittleEndian.PutUint64(b[24:], uint64(e.ID))
		binary.LittleEndian.PutUint32(b[32:], uint32(e.Kind))
		binary.LittleEndian.PutUint32(b[36:], uint32(e.A))
		binary.LittleEndian.PutUint32(b[40:], uint32(e.B))
		binary.LittleEndian.PutUint32(b[44:], uint32(e.C))
		h.Write(b[:])
	}
	return traceHash{Events: len(evs), Hash: h.Sum64()}
}

// TestTraceEventSequencePinned pins what a trace sink sees — every event of
// every component, with its exact time — for four runs that between them
// cover the programmable prefetcher, its blocked variant, a trace-fed
// hardware prefetcher and the adaptive controller. The Chrome export and
// ppftrace are functions of this sequence, so a change to how the core
// schedules its ticks under tracing shows here as a hash, independently of
// the result goldens. Each run is also repeated without the sink: observing
// a run must not change its result.
func TestTraceEventSequencePinned(t *testing.T) {
	path := filepath.Join("testdata", "trace_hashes.json")
	want := map[string]traceHash{}
	if !*updateTraceHashes {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]traceHash{}
	for _, tc := range []struct {
		name   string
		bench  func(t *testing.T) *workloads.Benchmark
		scheme Scheme
	}{
		{"HJ-2/manual", func(*testing.T) *workloads.Benchmark { return workloads.HJ2 }, Manual},
		{"RandAcc-replay/stride", func(t *testing.T) *workloads.Benchmark {
			return tracein.Bench(captureTrace(t, workloads.RandAcc, traceHashScale))
		}, Stride},
		{"PhaseMix/adaptive", func(*testing.T) *workloads.Benchmark { return workloads.PhaseMix }, Adaptive},
		{"G500-CSR/manual-blocked", func(*testing.T) *workloads.Benchmark { return workloads.G500CSR }, ManualBlocked},
	} {
		c := trace.NewCollector()
		traced, err := Run(tc.bench(t), tc.scheme, Options{Scale: traceHashScale, TraceSink: c})
		if err != nil {
			t.Fatalf("%s traced: %v", tc.name, err)
		}
		plain, err := Run(tc.bench(t), tc.scheme, Options{Scale: traceHashScale})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(traced.Result, plain.Result) {
			t.Errorf("%s: result with a trace sink differs from the result without:\ntraced %+v\nplain  %+v",
				tc.name, traced.Result, plain.Result)
		}
		got[tc.name] = hashEvents(c.Events())
		if w, ok := want[tc.name]; !*updateTraceHashes && (!ok || w != got[tc.name]) {
			t.Errorf("%s: traced event sequence = %+v, pinned %+v", tc.name, got[tc.name], w)
		}
	}
	if *updateTraceHashes {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
