package tracein

import (
	"bytes"
	"runtime"
	"testing"

	"eventpf/internal/cpu"
	"eventpf/internal/mem"
)

// BenchmarkReplayerFill measures one micro-op decoded from a native trace
// held in memory into the core's slot: varint decode, dependence
// reconstruction and the page mapping of each load. The trace is sampleOps
// (every kind, both dependence slots) repeated; it is reopened, untimed,
// whenever it runs out. Opening allocates; decoding an op must not.
func BenchmarkReplayerFill(b *testing.B) {
	const traceOps = 1 << 16
	var raw bytes.Buffer
	w := NewWriter(&raw, Meta{Bench: "bench", Tool: "test"})
	for i := 0; i < traceOps; i++ {
		emit(w, sampleOps[i%len(sampleOps)])
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	var op cpu.MicroOp
	var before, after runtime.MemStats
	var mallocs uint64
	b.ReportAllocs()
	for done := 0; done < b.N; {
		b.StopTimer()
		dec, err := Open(bytes.NewReader(raw.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		r := NewReplayer(dec, mem.NewBacking(), nil)
		for range sampleOps { // the first pass maps the pages every later one loads from
			r.Fill(&op)
		}
		runtime.ReadMemStats(&before)
		b.StartTimer()
		for done < b.N && r.Fill(&op) {
			done++
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		if err := r.Err(); err != nil {
			b.Fatal(err)
		}
	}
	if mallocs > 64+uint64(b.N)/1000 {
		b.Fatalf("%d allocations over %d ops, want none per op", mallocs, b.N)
	}
}
