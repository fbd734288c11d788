package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
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

// updateTraceHashes rewrites testdata/trace_hashes.json and
// testdata/op_hashes.json. The hashes pin the event and micro-op sequences of
// the commit that generated them; regenerate only when a change is supposed
// to alter what a traced run emits or what a core is fed.
var updateTraceHashes = flag.Bool("update-trace-hashes", false, "rewrite testdata/trace_hashes.json and testdata/op_hashes.json")

// loadPinned reads a testdata JSON file of pinned hashes into want, which
// stays empty when the file is being regenerated.
func loadPinned[T any](t *testing.T, name string, want map[string]T) {
	t.Helper()
	if *updateTraceHashes {
		return
	}
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
}

// storePinned rewrites the file when regenerating.
func storePinned[T any](t *testing.T, name string, got map[string]T) {
	t.Helper()
	if !*updateTraceHashes {
		return
	}
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", name), append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

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
// every component, with its exact time — for one run of every registered
// scheme: four that between them cover the programmable prefetcher, its
// blocked variant, a trace-fed hardware prefetcher and the adaptive
// controller, and HJ-2 under each of the rest. The Chrome export and
// ppftrace are functions of this sequence, so a change to how the core
// schedules its ticks under tracing shows here as a hash, independently of
// the result goldens. Each run is also repeated without the sink: observing
// a run must not change its result.
func TestTraceEventSequencePinned(t *testing.T) {
	want := map[string]traceHash{}
	loadPinned(t, "trace_hashes.json", want)
	got := map[string]traceHash{}
	type pair struct {
		name   string
		bench  func(t *testing.T) *workloads.Benchmark
		scheme Scheme
	}
	pairs := []pair{
		{"HJ-2/manual", func(*testing.T) *workloads.Benchmark { return workloads.HJ2 }, Manual},
		{"RandAcc-replay/stride", func(t *testing.T) *workloads.Benchmark {
			return tracein.Bench(captureTrace(t, workloads.RandAcc, traceHashScale))
		}, Stride},
		{"PhaseMix/adaptive", func(*testing.T) *workloads.Benchmark { return workloads.PhaseMix }, Adaptive},
		{"G500-CSR/manual-blocked", func(*testing.T) *workloads.Benchmark { return workloads.G500CSR }, ManualBlocked},
	}
	// Every other registered scheme, on HJ-2 (which every scheme supports).
	covered := map[Scheme]bool{}
	for _, p := range pairs {
		covered[p.scheme] = true
	}
	for _, s := range AllSchemes {
		if !covered[s] {
			pairs = append(pairs, pair{"HJ-2/" + s.String(), func(*testing.T) *workloads.Benchmark { return workloads.HJ2 }, s})
		}
	}
	for _, tc := range pairs {
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
	storePinned(t, "trace_hashes.json", got)
}

// opHash pins the micro-op sequence a core was fed: how many ops dispatched
// and the SHA-256 of their PPFT capture (kind, PC, address, dependence
// distances and branch direction of every op, in dispatch order — no times).
type opHash struct {
	Ops    uint64
	SHA256 string
}

// TestOpStreamPinned pins what the front end hands the core, below the result
// goldens: a change to how ops travel from the interpreter to the window must
// leave every byte of the captured stream as it was. Every Table-2 benchmark
// and the three synthetic irregular ones under no-pf and manual (the plain
// build, the second with PPU kernels reading the memory the stream writes),
// and HJ-2 under the three schemes that rewrite the program — software
// prefetches, and the configuration ops of pragma and converted — at scale
// 0.02.
func TestOpStreamPinned(t *testing.T) {
	want := map[string]opHash{}
	loadPinned(t, "op_hashes.json", want)
	got := map[string]opHash{}
	benches := append(append([]*workloads.Benchmark{}, workloads.All...), workloads.SpMV, workloads.HotCold, workloads.BTree)
	for _, b := range benches {
		schemes := []Scheme{NoPF, Manual}
		if b == workloads.HJ2 {
			schemes = append(schemes, Software, Pragma, Converted)
		}
		for _, scheme := range schemes {
			name := b.Name + "/" + scheme.String()
			h := sha256.New()
			sink := tracein.NewWriter(h, tracein.Meta{Bench: b.Name, Scale: traceHashScale, Tool: "test"})
			_, err := Run(b, scheme, Options{Scale: traceHashScale, OpSink: sink})
			if errors.Is(err, ErrUnsupported) {
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := sink.Close(); err != nil {
				t.Fatalf("%s: close capture: %v", name, err)
			}
			got[name] = opHash{Ops: sink.Count(), SHA256: hex.EncodeToString(h.Sum(nil))}
			if w, ok := want[name]; !*updateTraceHashes && (!ok || w != got[name]) {
				t.Errorf("%s: op stream = %+v, pinned %+v", name, got[name], w)
			}
		}
	}
	if !*updateTraceHashes && len(got) != len(want) {
		t.Errorf("%d pairs ran, %d are pinned", len(got), len(want))
	}
	storePinned(t, "op_hashes.json", got)
}
