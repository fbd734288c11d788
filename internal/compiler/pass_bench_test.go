package compiler

import (
	"runtime"
	"testing"

	"eventpf/internal/ir"
	"eventpf/internal/system"
	"eventpf/internal/workloads"
)

// passCost is what one pass over one benchmark's kernel allocates, measured
// (amd64; the race detector adds up to 10 % of the bytes), and a row fails
// itself above passCost plus 25 %. A pass builds event kernels, their PPU
// code and the rewritten IR, so it allocates by design; the budget catches a
// pass whose cost grows with anything but the kernel it compiles.
var passCost = map[string]map[string]struct{ allocs, bytes float64 }{
	"convert": {
		"HJ-2":     {195, 9_584},
		"IntSort":  {165, 15_968},
		"RandAcc":  {189, 9_712},
		"ConjGrad": {297, 30_624},
	},
	"pragma": {
		"HJ-2":     {158, 6_200},
		"IntSort":  {127, 4_360},
		"RandAcc":  {185, 7_128},
		"ConjGrad": {221, 7_576},
	},
}

// passBenches are the four benchmarks the benchmark module's compiler probes
// run both passes over.
var passBenches = []*workloads.Benchmark{workloads.HJ2, workloads.IntSort, workloads.RandAcc, workloads.ConjGrad}

// BenchmarkConvert is Algorithm 1 (ConvertSoftwarePrefetches) over the
// software-prefetch kernel of each benchmark it converts.
func BenchmarkConvert(b *testing.B) {
	benchPass(b, "convert", workloads.SWPf, ConvertSoftwarePrefetches)
}

// BenchmarkPragma is the pragma pass (GeneratePragmaEvents) over the
// annotated kernel of the same benchmarks.
func BenchmarkPragma(b *testing.B) {
	benchPass(b, "pragma", workloads.Pragma, GeneratePragmaEvents)
}

// benchPass times pass over a fresh copy of each bench's kernel in variant
// v — the passes rewrite the IR they are given, so the copy is built outside
// the timer — and fails a row above its passCost plus 25 %.
func benchPass(b *testing.B, name string, v workloads.Variant, pass func(*ir.Fn, *Alloc) (*Result, error)) {
	for _, bench := range passBenches {
		b.Run(bench.Name, func(b *testing.B) {
			m := system.New(system.DefaultConfig(), system.NoPF)
			inst := bench.Build(m, 0.02)
			m.Release()
			var before, after runtime.MemStats
			var allocs, bytes uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fn := inst.BuildFn(v)
				runtime.ReadMemStats(&before)
				b.StartTimer()
				res, err := pass(fn, NewAlloc())
				b.StopTimer()
				runtime.ReadMemStats(&after)
				if err != nil || res.Converted == 0 {
					b.Fatalf("%s converted nothing in %s: %v", name, bench.Name, err)
				}
				allocs += after.Mallocs - before.Mallocs
				bytes += after.TotalAlloc - before.TotalAlloc
			}
			perAllocs, perBytes := float64(allocs)/float64(b.N), float64(bytes)/float64(b.N)
			cost := passCost[name][bench.Name]
			if maxAllocs, maxBytes := cost.allocs*1.25, cost.bytes*1.25; perAllocs > maxAllocs || perBytes > maxBytes {
				b.Errorf("%s over %s allocated %.0f objects, %.0f B; budget %.0f, %.0f",
					name, bench.Name, perAllocs, perBytes, maxAllocs, maxBytes)
			}
		})
	}
}
