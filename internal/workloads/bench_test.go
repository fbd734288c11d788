package workloads

import (
	"runtime"
	"testing"

	"eventpf/internal/system"
)

// buildBenchScale is the scale BenchmarkBuild builds at: the harness goldens'
// and ppf-detail's neighbourhood.
const buildBenchScale = 0.022

// buildBytesBudget bounds what one Build at buildBenchScale allocates once
// the pools are warm: the measured bytes plus 25 %. Most of it is not the
// workload's at all but the machine's page map growing as Build's regions
// are mapped, about 70 bytes a page — RandAcc's 16 MiB table is 4 097
// pages. The eight Table-2 rows measured 355 KB together; when Build kept
// host copies, maps and permutations they allocated 4.77 MB.
var buildBytesBudget = map[string]uint64{
	"G500-CSR":  7_000,
	"G500-List": 7_100,
	"HJ-2":      12_400,
	"HJ-8":      12_500,
	"PageRank":  6_600,
	"RandAcc":   371_000,
	"IntSort":   24_200,
	"ConjGrad":  3_900,
	"PhaseMix":  47_200,
	"SpMV":      2_300,
	"BTree":     93_300,
	"HotCold":   47_300,
}

// BenchmarkBuild is one benchmark's Build at scale 0.022 on a fresh machine —
// generating the input into simulated memory and computing the oracle —
// without the machine's construction or release, with every earlier build's
// pages and scratch back in their pools. Build writes its input straight
// into simulated memory and borrows its scratch, so what it allocates is
// what the Instance keeps; a row fails itself above its buildBytesBudget.
// The pools keep what was put back across collections and hand it to any
// goroutine, so the collector and the scheduler run as they will.
func BenchmarkBuild(b *testing.B) {
	for _, bench := range Menu() {
		b.Run(bench.Name, func(b *testing.B) {
			var before, after runtime.MemStats
			build := func() uint64 {
				m := system.New(system.DefaultConfig(), system.NoPF)
				runtime.ReadMemStats(&before)
				b.StartTimer()
				bench.Build(m, buildBenchScale)
				b.StopTimer()
				runtime.ReadMemStats(&after)
				m.Release()
				return after.TotalAlloc - before.TotalAlloc
			}
			b.StopTimer()
			build() // fill the pools
			b.ReportAllocs()
			b.ResetTimer()
			var total uint64
			for i := 0; i < b.N; i++ {
				total += build()
			}
			perBuild := total / uint64(b.N)
			b.ReportMetric(float64(perBuild), "B/build")
			if budget, ok := buildBytesBudget[bench.Name]; !ok || perBuild > budget {
				b.Errorf("a %s build allocated %d bytes, budget %d", bench.Name, perBuild, budget)
			}
		})
	}
}
