package system

import (
	"fmt"
	"testing"

	"eventpf/internal/ir"
	"eventpf/internal/ppu"
)

// buildIndirectSum builds the figure 4(a) loop: acc += C[B[A[x]]].
// Args: 0=A base, 1=B base, 2=C base, 3=N.
func buildIndirectSum(t testing.TB, withSWPf bool) *ir.Fn {
	t.Helper()
	b := ir.NewBuilder("indirect-sum", 4)
	entry := b.NewBlock("entry")
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")

	b.SetBlock(entry)
	aBase, bBase, cBase, n := b.Arg(0), b.Arg(1), b.Arg(2), b.Arg(3)
	zero := b.Const(0)
	b.Br(head)

	b.SetBlock(head)
	x := b.Phi()
	acc := b.Phi()
	cmp := b.Bin(ir.CmpLTU, x, n)
	b.CondBr(cmp, body, exit)

	b.SetBlock(body)
	eight := b.Const(8)
	if withSWPf {
		// swpf(&C[B[A[x+dist]]]) is impossible without stalling; standard
		// practice (figure 5a) prefetches one indirection level.
		dist := b.Const(16)
		xd := b.Add(x, dist)
		aAddrD := b.Add(aBase, b.Mul(xd, eight))
		avD := b.Load(aAddrD, "A")
		bAddrD := b.Add(bBase, b.Mul(avD, eight))
		b.SWPf(bAddrD, "B")
	}
	aAddr := b.Add(aBase, b.Mul(x, eight))
	av := b.Load(aAddr, "A")
	bAddr := b.Add(bBase, b.Mul(av, eight))
	bv := b.Load(bAddr, "B")
	cAddr := b.Add(cBase, b.Mul(bv, eight))
	cv := b.Load(cAddr, "C")
	acc2 := b.Add(acc, cv)
	x2 := b.Add(x, b.Const(1))
	b.Br(head)

	b.SetBlock(exit)
	b.Ret(acc)

	b.SetPhiArgs(x, zero, x2)
	b.SetPhiArgs(acc, zero, acc2)
	return b.MustFinish()
}

const testN = 4096

// setupData fills A with sequential indices (so A is perfectly strided) and
// B with a pseudo-random permutation-ish indirection, C with payloads.
func setupData(m *Machine) (aB, bB, cB uint64, want uint64) {
	a := m.Arena.AllocWords("A", testN+64)
	bb := m.Arena.AllocWords("B", testN+64)
	c := m.Arena.AllocWords("C", testN+64)
	seed := uint64(42)
	for i := uint64(0); i < testN+64; i++ {
		// A holds a scattered index so the B accesses are truly irregular.
		seed = seed*6364136223846793005 + 1442695040888963407
		m.Backing.Write64(a.Base+i*8, (seed>>17)%testN)
		m.Backing.Write64(bb.Base+i*8, (seed>>33)%testN)
		m.Backing.Write64(c.Base+i*8, i*3)
	}
	for i := uint64(0); i < testN; i++ {
		av := m.Backing.Read64(a.Base + i*8)
		bv := m.Backing.Read64(bb.Base + av*8)
		want += m.Backing.Read64(c.Base + bv*8)
	}
	return a.Base, bb.Base, c.Base, want
}

func runScheme(t *testing.T, scheme Scheme, withSWPf, withKernels bool) Result {
	t.Helper()
	cfg := DefaultConfig()
	m := New(cfg, scheme)
	aB, bB, cB, want := setupData(m)

	fn := buildIndirectSum(t, withSWPf)

	if withKernels && scheme == Programmable {
		// Manual kernels mirroring figure 4(b).
		m.RegisterKernel(1, ppu.MustAssemble(`
			vaddr r1
			addi  r1, r1, 256
			pftag r1, 2
			halt
		`))
		m.RegisterKernel(2, ppu.MustAssemble(`
			lddata r1
			shli   r1, r1, 3
			ldg    r2, g1
			add    r1, r1, r2
			pftag  r1, 3
			halt
		`))
		m.RegisterKernel(3, ppu.MustAssemble(`
			lddata r1
			shli   r1, r1, 3
			ldg    r2, g2
			add    r1, r1, r2
			pf     r1
			halt
		`))
		m.Configure(ir.CfgInfo{Kind: ir.CfgGlobal, GReg: 1}, []uint64{bB})
		m.Configure(ir.CfgInfo{Kind: ir.CfgGlobal, GReg: 2}, []uint64{cB})
		m.Configure(ir.CfgInfo{Kind: ir.CfgBounds, Slot: 0, LoadKernel: 1,
			PFKernel: -1, EWMAGroup: -1}, []uint64{aB, aB + testN*8})
	}

	it := m.NewInterp(fn, aB, bB, cB, testN)
	res := m.Run(it)
	got, ok := it.Result()
	if !ok || got != want {
		t.Fatalf("%v: result = %d (ok=%v), want %d — prefetching must not change answers",
			scheme, got, ok, want)
	}
	return res
}

func TestAllSchemesComputeSameAnswer(t *testing.T) {
	runScheme(t, NoPF, false, false)
	runScheme(t, StridePF, false, false)
	runScheme(t, GHBRegular, false, false)
	runScheme(t, GHBLarge, false, false)
	runScheme(t, RPT, false, false)
	runScheme(t, GHBDelta, false, false)
	runScheme(t, TSKID, false, false)
	runScheme(t, NoPF, true, false)         // software prefetch variant
	runScheme(t, Programmable, false, true) // manual events
}

func TestProgrammableBeatsNoPFOnIndirect(t *testing.T) {
	base := runScheme(t, NoPF, false, false)
	prog := runScheme(t, Programmable, false, true)
	speedup := float64(base.Cycles) / float64(prog.Cycles)
	if speedup < 1.5 {
		t.Errorf("programmable speedup = %.2fx, want ≥ 1.5x (base %d vs prog %d cycles)",
			speedup, base.Cycles, prog.Cycles)
	}
	if prog.L1.ReadHitRate() <= base.L1.ReadHitRate() {
		t.Errorf("L1 hit rate did not improve: %.3f vs %.3f",
			base.L1.ReadHitRate(), prog.L1.ReadHitRate())
	}
}

func TestSoftwarePrefetchHelpsButAddsInstructions(t *testing.T) {
	base := runScheme(t, NoPF, false, false)
	sw := runScheme(t, NoPF, true, false)
	if sw.Cycles >= base.Cycles {
		t.Errorf("software prefetch did not help: %d vs %d cycles", sw.Cycles, base.Cycles)
	}
	if sw.Core.Ops <= base.Core.Ops {
		t.Errorf("software prefetch added no instructions: %d vs %d", sw.Core.Ops, base.Core.Ops)
	}
}

func TestStrideHelpsLittleOnIndirect(t *testing.T) {
	base := runScheme(t, NoPF, false, false)
	st := runScheme(t, StridePF, false, false)
	speedup := float64(base.Cycles) / float64(st.Cycles)
	if speedup > 2.0 {
		t.Errorf("stride speedup %.2fx is implausibly high for an indirect pattern", speedup)
	}
}

func TestGHBRegularNoHelpOnSinglePass(t *testing.T) {
	base := runScheme(t, NoPF, false, false)
	gh := runScheme(t, GHBRegular, false, false)
	speedup := float64(base.Cycles) / float64(gh.Cycles)
	if speedup > 1.2 {
		t.Errorf("regular GHB speedup %.2fx on non-repeating accesses", speedup)
	}
}

func TestConfigInstructionsProgramThePrefetcher(t *testing.T) {
	cfg := DefaultConfig()
	m := New(cfg, Programmable)
	m.RegisterKernel(1, ppu.MustAssemble("vaddr r1\naddi r1, r1, 64\npf r1\nhalt"))

	// IR function that configures bounds via Cfg instructions, then loads.
	b := ir.NewBuilder("cfgrun", 2)
	e := b.NewBlock("entry")
	b.SetBlock(e)
	lo := b.Arg(0)
	hi := b.Arg(1)
	b.Cfg(ir.CfgInfo{Kind: ir.CfgBounds, Slot: 0, LoadKernel: 1, PFKernel: -1, EWMAGroup: -1}, lo, hi)
	v := b.Load(lo, "A")
	b.Ret(v)
	fn := b.MustFinish()

	arr := m.Arena.AllocWords("A", 128)
	it := m.NewInterp(fn, arr.Base, arr.End())
	res := m.Run(it)
	if res.PF.KernelRuns == 0 {
		t.Error("config instruction did not arm the filter (no kernel ran)")
	}
	if !m.L1.Contains(arr.Base + 64) {
		t.Error("prefetch from config-armed kernel missing")
	}
}

func TestContextSwitchFlush(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ContextSwitchTicks = 50_000
	m := New(cfg, Programmable)
	aB, bB, cB, _ := setupData(m)
	fn := buildIndirectSum(t, false)
	m.RegisterKernel(1, ppu.MustAssemble("vaddr r1\naddi r1, r1, 256\npf r1\nhalt"))
	m.Configure(ir.CfgInfo{Kind: ir.CfgBounds, Slot: 0, LoadKernel: 1,
		PFKernel: -1, EWMAGroup: -1}, []uint64{aB, aB + testN*8})
	it := m.NewInterp(fn, aB, bB, cB, testN)
	res := m.Run(it)
	if res.PF.Flushes == 0 {
		t.Error("no context-switch flushes occurred")
	}
	if res.PF.KernelRuns == 0 {
		t.Error("prefetcher dead after flushes; configuration must survive")
	}
}

// TestSchemeTableMatchesConstants: schemes is a literal indexed by the Scheme
// constants that nothing checks at start-up, so this does — one named row per
// constant, no name twice, and every unit key an entry of the units table.
func TestSchemeTableMatchesConstants(t *testing.T) {
	if len(schemes) != int(Adaptive)+1 {
		t.Fatalf("schemes has %d rows for the %d constants NoPF..Adaptive", len(schemes), int(Adaptive)+1)
	}
	named := map[string]Scheme{}
	for s := Scheme(0); s.Valid(); s++ {
		row := schemes[s]
		if row.name == "" || s.String() != row.name {
			t.Errorf("scheme %d: name %q, String() %q", int(s), row.name, s)
		}
		if prev, dup := named[row.name]; dup {
			t.Errorf("schemes %d and %d share the name %q", int(prev), int(s), row.name)
		}
		named[row.name] = s
		if row.unit != "" && units[row.unit] == nil {
			t.Errorf("%s: unit %q is not in the units table", s, row.unit)
		}
		if s.IsProgrammable() != row.programmable {
			t.Errorf("%s: IsProgrammable() = %v, row says %v", s, s.IsProgrammable(), row.programmable)
		}
	}
	if bad := Scheme(len(schemes)); bad.Valid() || bad.IsProgrammable() || bad.String() != fmt.Sprintf("unknown(%d)", len(schemes)) {
		t.Errorf("a value past the table is Valid=%v IsProgrammable=%v String=%q", bad.Valid(), bad.IsProgrammable(), bad)
	}
}
