package workloads

import (
	"strings"
	"testing"

	"eventpf/internal/cpu"
	"eventpf/internal/ir"
)

// TestMenuCoversAllAndExtra pins the merged-lookup contract: Menu/MenuNames
// list every Table 2 row followed by every Extra bench, while Names stays
// Table 2 only (figure sweeps must never pick extras up).
func TestMenuCoversAllAndExtra(t *testing.T) {
	names := MenuNames()
	if len(names) != len(All)+len(Extra) {
		t.Fatalf("MenuNames has %d entries, want %d", len(names), len(All)+len(Extra))
	}
	for i, b := range append(append([]*Benchmark{}, All...), Extra...) {
		if names[i] != b.Name {
			t.Errorf("MenuNames[%d] = %q, want %q", i, names[i], b.Name)
		}
	}
	if got := len(Names()); got != len(All) {
		t.Errorf("Names has %d entries, want Table 2's %d", got, len(All))
	}
	for _, b := range Extra {
		if !IsExtra(b) {
			t.Errorf("IsExtra(%s) = false", b.Name)
		}
	}
	if IsExtra(RandAcc) {
		t.Error("IsExtra(RandAcc) = true")
	}
}

// TestByNameResolvesExtras is the regression for the duplicated-loop bug:
// ByName must resolve Extra benches and its unknown-name error must list
// them, so CLI and server menus show the whole menu (PhaseMix was missing
// from the 400 response's list when All and Extra were looked up by two
// hand-copied loops).
func TestByNameResolvesExtras(t *testing.T) {
	for _, b := range Extra {
		got, err := ByName(b.Name)
		if err != nil || got != b {
			t.Errorf("ByName(%s) = %v, %v", b.Name, got, err)
		}
	}
	if b, err := ByName("phase_mix"); err != nil || b != PhaseMix {
		t.Errorf("ByName(phase_mix) = %v, %v", b, err)
	}
	_, err := ByName("nope")
	if err == nil {
		t.Fatal("ByName(nope) succeeded")
	}
	for _, b := range Extra {
		if !strings.Contains(err.Error(), fold(b.Name)) {
			t.Errorf("ByName error %q does not mention extra bench %q", err, fold(b.Name))
		}
	}
}

// TestExtraPlainRunsMatchOracle executes each Extra bench's plain kernel
// functionally and validates it against its oracle, like
// TestPlainRunMatchesOracle does for Table 2.
func TestExtraPlainRunsMatchOracle(t *testing.T) {
	for _, b := range Extra {
		m, inst := buildAll(t, b)
		fn := inst.BuildFn(Plain)
		if fn == nil {
			t.Errorf("%s: no plain variant", b.Name)
			continue
		}
		if err := fn.Verify(); err != nil {
			t.Errorf("%s: invalid IR: %v", b.Name, err)
			continue
		}
		var last *ir.Interp
		for _, run := range inst.Runs {
			if run.Before != nil {
				run.Before(m)
			}
			it := m.NewInterp(fn, run.Args...)
			last = it
			for {
				if _, ok := it.Next(); !ok {
					break
				}
			}
		}
		ret, hasRet := last.Result()
		if err := inst.Check(m, ret, hasRet); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

// workingStorage names regions a kernel writes that are not its output: the
// BFS frontier queues, whose final contents no answer depends on.
var workingStorage = map[string]bool{"q1": true, "q2": true}

// TestOracleRefusesPerturbedRuns shows every menu benchmark's Check is
// strong enough to notice a wrong answer, not merely a missing one: after a
// plain functional run Check passes, and it fails with the return value off
// by one and, for each output region the program wrote, with the last word
// the program stored there flipped. HJ-2, HJ-8, HotCold, BTree and PhaseMix
// store nothing; their answer is the return value alone.
func TestOracleRefusesPerturbedRuns(t *testing.T) {
	for _, b := range Menu() {
		m, inst := buildAll(t, b)
		fn := inst.BuildFn(Plain)
		var last *ir.Interp
		lastStore := map[string]uint64{} // region → address of its last store
		var op cpu.MicroOp
		for _, run := range inst.Runs {
			if run.Before != nil {
				run.Before(m)
			}
			last = m.NewInterp(fn, run.Args...)
			for last.Fill(&op) {
				if op.Kind != cpu.OpStore {
					continue
				}
				for _, r := range m.Arena.Regions() {
					if r.Contains(op.Addr) {
						lastStore[r.Name] = op.Addr
					}
				}
			}
		}
		ret, hasRet := last.Result()
		if err := inst.Check(m, ret, hasRet); err != nil {
			t.Errorf("%s: unperturbed run fails its check: %v", b.Name, err)
			continue
		}
		if inst.Check(m, ret+1, hasRet) == nil {
			t.Errorf("%s: Check accepts return value %d, one off the run's", b.Name, ret+1)
		}
		flipped := 0
		for name, addr := range lastStore {
			if workingStorage[name] {
				continue
			}
			w := m.Backing.Read64(addr)
			m.Backing.Write64(addr, ^w)
			if inst.Check(m, ret, hasRet) == nil {
				t.Errorf("%s: Check accepts region %s with its last stored word (%#x) flipped", b.Name, name, addr)
			}
			m.Backing.Write64(addr, w)
			flipped++
		}
		if len(lastStore) > 0 && flipped == 0 {
			t.Errorf("%s: the program stored only to working storage %v", b.Name, lastStore)
		}
		if err := inst.Check(m, ret, hasRet); err != nil {
			t.Errorf("%s: restored run fails its check: %v", b.Name, err)
		}
	}
}
