package workloads

import (
	"runtime"
	"testing"

	"eventpf/internal/system"
)

// buildBenchScale is the scale BenchmarkBuild builds at: the harness goldens'
// and ppf-detail's neighbourhood.
const buildBenchScale = 0.022

// buildBytes is what one Build at buildBenchScale allocates once the pools
// are warm, measured (amd64, 10 runs a row): what its Instance keeps — the
// oracle's sum or digest, the run arguments — and the Arena's region list.
// The machine's page map no longer grows as Build maps its regions: Release
// hands the cleared map, buckets and all, to the next machine, which is what
// RandAcc's 371 KB budget (4 097 pages) and the eight Table-2 rows' 355 KB
// together used to pay for. A row fails itself above buildBytesBudget.
var buildBytes = map[string]uint64{
	"G500-CSR":  960,
	"G500-List": 1_072,
	"HJ-2":      376,
	"HJ-8":      504,
	"PageRank":  624,
	"RandAcc":   416,
	"IntSort":   360,
	"ConjGrad":  864,
	"PhaseMix":  288,
	"SpMV":      768,
	"BTree":     240,
	"HotCold":   336,
}

// buildBytesBudget is a row's measurement plus 25 %, and at least 1 KB: the
// process allocates a few hundred bytes a build now and then that are not
// the build's (one HJ-2 run in 130 rows read 638 B against 376 B).
func buildBytesBudget(bench string) (uint64, bool) {
	b, ok := buildBytes[bench]
	return max(1_000, b*5/4), ok
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
			if budget, ok := buildBytesBudget(bench.Name); !ok || perBuild > budget {
				b.Errorf("a %s build allocated %d bytes, budget %d", bench.Name, perBuild, budget)
			}
		})
	}
}
