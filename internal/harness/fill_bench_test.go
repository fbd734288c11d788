package harness

import (
	"runtime"
	"testing"

	"eventpf/internal/cpu"
	"eventpf/internal/workloads"
)

// BenchmarkSeqFill measures one micro-op pulled the way the core pulls it,
// through the run sequence: Graph500's searches, each behind its Before hook,
// so the difference from ir's BenchmarkInterpFill/G500-CSR is what the
// sequence costs. A fresh run is prepared (untimed) whenever the program
// runs out; the pull itself must not allocate.
func BenchmarkSeqFill(b *testing.B) {
	var op cpu.MicroOp
	var before, after runtime.MemStats
	var mallocs uint64
	b.ReportAllocs()
	for done := 0; done < b.N; {
		b.StopTimer()
		rs, err := prepare(workloads.G500CSR, NoPF, Options{Scale: 0.05})
		if err != nil {
			b.Fatal(err)
		}
		runtime.ReadMemStats(&before)
		b.StartTimer()
		for done < b.N && rs.stream.Fill(&op) {
			done++
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	if mallocs > 64+uint64(b.N)/1000 {
		b.Fatalf("%d allocations over %d ops, want none per op", mallocs, b.N)
	}
}
