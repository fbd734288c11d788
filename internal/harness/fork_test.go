package harness

import (
	"bytes"
	"testing"

	"eventpf/internal/system"
	"eventpf/internal/workloads"
)

// TestForkWithParkedOp forks at a point where the core holds an op it could
// not dispatch (the load queue was full): the op exists nowhere but in the
// dispatch slot, so the fork runs it only if the slot was copied, and runs it
// once only if the cloned stream stands just after it. No benchmark fills
// Table 1's 16-entry load queue from a 40-entry window, so the queue is cut
// to two entries.
func TestForkWithParkedOp(t *testing.T) {
	cfg := system.DefaultConfig()
	cfg.LQ = 2
	opt := Options{Scale: goldenScale, Config: &cfg}
	straight, err := Run(workloads.RandAcc, NoPF, opt)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Warm(workloads.RandAcc, NoPF, opt, straight.Core.Ops/3)
	if err != nil {
		t.Fatal(err)
	}
	m := w.Machine()
	parked := func(m *system.Machine) bool { _, p := m.Core.Slot(); return p }
	for !parked(m) {
		if m.Done() || !m.Eng.Step() {
			t.Fatal("the run ended with no op ever parked")
		}
	}
	cont, err := w.Fork(m.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	op, _ := m.Core.Slot()
	if fop, fparked := cont.rs.m.Core.Slot(); !fparked || fop.Kind != op.Kind || fop.Addr != op.Addr || fop.Deps != op.Deps {
		t.Fatalf("fork's slot = %+v parked %v, parent's %+v", fop, fparked, op)
	}
	want := encode(t, straight)
	for name, finish := range map[string]func() (Result, error){"fork": cont.Finish, "resumed parent": w.Resume} {
		res, err := finish()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(encode(t, res), want) {
			t.Errorf("%s: result differs from the straight-through run (%d cycles, want %d)", name, res.Cycles, straight.Cycles)
		}
	}
}

func encode(t *testing.T, r Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeResult(&buf, r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestForkRejectsStructuralChanges pins the compatibility contract: sweeps
// may retarget the PPU clock across a fork, but anything that reshapes
// copied state must be refused.
func TestForkRejectsStructuralChanges(t *testing.T) {
	b, err := workloads.ByName("HJ-2")
	if err != nil {
		t.Fatal(err)
	}
	w, err := Warm(b, Manual, Options{Scale: 0.02}, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	okCfg := w.Machine().Cfg
	okCfg.Prefetcher.PPUClock.Period *= 2 // 1000 → 500 MHz
	if _, err := w.Machine().ForkWith(okCfg); err != nil {
		t.Errorf("clock-only change should fork: %v", err)
	}
	bad := w.Machine().Cfg
	bad.L1.MSHRs *= 2
	if _, err := w.Machine().ForkWith(bad); err == nil {
		t.Error("cache-geometry change must not fork")
	}
	bad = w.Machine().Cfg
	bad.Prefetcher.NumPPUs = 3
	if _, err := w.Machine().ForkWith(bad); err == nil {
		t.Error("PPU-count change must not fork")
	}
}

// TestSuiteSimulatesBaselineOnce asserts the no-prefetch baseline dedup
// across figures: Figure 8, Figure 11 and the instruction-overhead analysis
// all need every benchmark's NoPF (and mostly Manual) runs, and the memo
// must simulate each exactly once per suite.
func TestSuiteSimulatesBaselineOnce(t *testing.T) {
	s := NewSuite(Options{Scale: 0.02})
	if _, err := s.Fig8(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fig11(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstrOverhead(); err != nil {
		t.Fatal(err)
	}
	_, misses := s.MemoStats()
	// Fig8 simulates no-pf + manual for each benchmark; Fig11 adds only
	// manual-blocked; InstrOverhead adds only software. Anything above
	// 4×benchmarks means a baseline re-simulated.
	want := int64(4 * len(workloads.All))
	if misses != want {
		t.Errorf("suite simulated %d unique runs, want %d — a shared baseline was re-simulated", misses, want)
	}
}

// TestForkAllocBudget pins the allocation cost of forking a warmed machine.
// A fork necessarily builds a second machine, so the budget is far above the
// steady-state (zero-alloc) simulation gates, but it must stay bounded: the
// sweep fan-out forks dozens of machines per figure.
func TestForkAllocBudget(t *testing.T) {
	b, err := workloads.ByName("HJ-2")
	if err != nil {
		t.Fatal(err)
	}
	w, err := Warm(b, Manual, Options{Scale: 0.02}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if w.Done() {
		t.Fatal("program finished during warmup; pick a smaller warmup")
	}
	m := w.Machine()
	avg := testing.AllocsPerRun(3, func() {
		if _, err := m.Fork(); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 6_000
	if avg > budget {
		t.Errorf("Machine.Fork allocated %.0f objects, budget %d", avg, budget)
	}
	t.Logf("Machine.Fork: %.0f allocs (budget %d)", avg, budget)
}
