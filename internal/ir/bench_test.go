package ir_test

import (
	"runtime"
	"testing"

	"eventpf/internal/cpu"
	"eventpf/internal/ir"
	"eventpf/internal/system"
	"eventpf/internal/workloads"
)

// benchInterpFill measures what producing one micro-op costs the interpreter
// alone — functional execution against the backing store, no core behind it —
// on a benchmark's plain kernel. A fresh instance is built whenever the
// program runs out; building it, a run's Before hook and making the
// interpreter are not timed. Pulling an op must not allocate.
func benchInterpFill(b *testing.B, bench *workloads.Benchmark) {
	var op cpu.MicroOp
	var before, after runtime.MemStats
	var mallocs uint64
	b.ReportAllocs()
	b.StopTimer()
	for done := 0; done < b.N; {
		m := system.New(system.DefaultConfig(), system.NoPF)
		inst := bench.Build(m, 0.05)
		fn := inst.BuildFn(workloads.Plain)
		for _, r := range inst.Runs {
			if r.Before != nil {
				r.Before(m)
			}
			it := m.NewInterp(fn, r.Args...)
			runtime.ReadMemStats(&before)
			b.StartTimer()
			for done < b.N && it.Fill(&op) {
				done++
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
		}
	}
	if mallocs > 16+uint64(b.N)/1000 {
		b.Fatalf("%d allocations over %d ops, want none per op", mallocs, b.N)
	}
}

// benchCfgFill measures a loop whose every iteration dispatches a Cfg op,
// applied as the core applies it (Do before the next Fill), into the
// machine's prefetcher filter table. A Cfg op carries no closure, so this
// allocates nothing either.
func benchCfgFill(b *testing.B) {
	m := system.New(system.DefaultConfig(), system.Programmable)
	it := m.NewInterp(ir.CfgLoop(), uint64(b.N))
	var op cpu.MicroOp
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for it.Fill(&op) {
		if op.Do != nil {
			op.Do()
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if mallocs := after.Mallocs - before.Mallocs; mallocs > 16+uint64(b.N)/1000 {
		b.Fatalf("%d allocations over %d iterations, want none per Cfg op", mallocs, b.N)
	}
}

func BenchmarkInterpFill(b *testing.B) {
	b.Run("HJ-2", func(b *testing.B) { benchInterpFill(b, workloads.HJ2) })
	b.Run("G500-CSR", func(b *testing.B) { benchInterpFill(b, workloads.G500CSR) })
	b.Run("Cfg", benchCfgFill)
}
