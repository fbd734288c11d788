package harness

import (
	"runtime"
	"testing"

	"eventpf/internal/workloads"
)

// TestMachineRunAllocBudget extends the engine-only zero-alloc test from the
// sim package to a complete machine: one full (small) HJ-2 run under the
// programmable prefetcher must stay within a fixed allocation budget. The
// run costs 68 allocations, all of them one-time construction — the
// machine's own structs, the copy of the parsed IR, the stream set-up —
// and the bound is that plus 25 %. What it cannot absorb is any per-event,
// per-request or per-loop-iteration allocation creeping back into the
// steady-state loop: this run simulates hundreds of thousands of events and
// enters 65 000 loop blocks, so even one closure per event, one Request per
// access or one slice per block entry (the interpreter's phi scratch, which
// this budget once hid at 200 000) blows it immediately.
//
// The bytes budget holds the run lifecycle to its recycling: a run takes
// every table its machine sizes or grows — pages and page map, line arrays,
// MSHR files, TLB arrays, the timing wheel, the core's window, the
// prefetcher's pending table, every ring and record slab — from the ones
// earlier runs released (system.Machine.Release), and the workload's Build
// borrows its generation scratch, so a run in a sequence allocates ~14 KB
// (runBytesBudget), under the race detector too.
func TestMachineRunAllocBudget(t *testing.T) {
	const budget = 85

	b, err := workloads.ByName("HJ-2")
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := Run(b, Manual, Options{Scale: 0.02}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm any lazy process-wide state, and the pools, before counting
	allocs := testing.AllocsPerRun(3, run)
	t.Logf("full machine run allocated %.0f objects", allocs)
	if allocs > budget {
		t.Errorf("full machine run allocated %.0f objects, budget %d — "+
			"a steady-state path has started allocating (closure scheduling, "+
			"unpooled requests, or queue churn)", allocs, budget)
	}
	perRun := bytesPerRun(5, run)
	t.Logf("full machine run allocated %d bytes", perRun)
	if perRun > runBytesBudget {
		t.Errorf("full machine run allocated %d bytes, budget %d — a run has stopped "+
			"taking the memory earlier runs released (Machine.Release), or allocates more", perRun, runBytesBudget)
	}
}

// runBytesBudget bounds the bytes one HJ-2 × manual run at scale 0.02
// allocates after an earlier run has filled the pools: 13.6 KB measured
// (14.7 KB under -race), plus 25 %. What is left is the program — a copy of
// the parsed IR, the interpreter — and the machine's own structs. While each
// run built its IR and assembled its kernels it allocated 21.3 KB; while the
// core held its completion rings inline (8 KB), 29.0 KB; when a machine
// took back only its pages, line arrays and L2-TLB array, ~125 KB; when
// Build kept its keys, dedupe maps and permutations, 1.41 MB; before runs
// recycled their memory, 2.34 MB.
const runBytesBudget = 17_000

// bytesPerRun returns the mean bytes allocated by n calls of run after one
// more that fills the pools. The collector and the scheduler run as they
// will: the pools (sim.Recycler) keep what was put back across collections
// and hand it to any goroutine, so a warm run's bytes do not depend on
// either.
func bytesPerRun(n int, run func()) uint64 {
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

// BenchmarkRunLifecycle is one whole run through Run — the machine and the
// workload's data built, the program simulated, the oracle checked, the
// machine released — for HJ-2 under the programmable prefetcher at scale
// 0.02: what every point of a sweep of short simulations pays. It fails
// itself above runBytesBudget.
func BenchmarkRunLifecycle(b *testing.B) {
	bench, err := workloads.ByName("HJ-2")
	if err != nil {
		b.Fatal(err)
	}
	run := func() {
		if _, err := Run(bench, Manual, Options{Scale: 0.02}); err != nil {
			b.Fatal(err)
		}
	}
	run() // the first run of a process finds the pools empty
	b.ReportAllocs()
	b.ResetTimer()
	perRun := bytesPerRun(b.N, run)
	if perRun > runBytesBudget {
		b.Errorf("a run allocated %d bytes, budget %d", perRun, runBytesBudget)
	}
}
