package harness

import (
	"testing"

	"eventpf/internal/workloads"
)

// TestMachineRunAllocBudget extends the engine-only zero-alloc test from the
// sim package to a complete machine: one full (small) HJ-2 run under the
// programmable prefetcher must stay within a fixed allocation budget. The
// run costs ~2 500 allocations, all of them one-time construction — machine
// assembly, arena pages, IR stream set-up — and the bound leaves 2× headroom
// for runtime/map noise. What it cannot absorb is any per-event, per-request
// or per-loop-iteration allocation creeping back into the steady-state loop:
// this run simulates hundreds of thousands of events and enters 65 000 loop
// blocks, so even one closure per event, one Request per access or one slice
// per block entry (the interpreter's phi scratch, which this budget once hid
// at 200 000) blows it immediately.
func TestMachineRunAllocBudget(t *testing.T) {
	const budget = 5_000

	b, err := workloads.ByName("HJ-2")
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := Run(b, Manual, Options{Scale: 0.02}); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm any lazy process-wide state before counting
	allocs := testing.AllocsPerRun(3, run)
	t.Logf("full machine run allocated %.0f objects", allocs)
	if allocs > budget {
		t.Errorf("full machine run allocated %.0f objects, budget %d — "+
			"a steady-state path has started allocating (closure scheduling, "+
			"unpooled requests, or queue churn)", allocs, budget)
	}
}
