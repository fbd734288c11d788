package system

import (
	"fmt"
	"testing"

	"eventpf/internal/ir"
	"eventpf/internal/ppu"
)

// indirectSumSrc is the figure 4(a) loop: acc += C[B[A[x]]].
// Args: 0=A base, 1=B base, 2=C base, 3=N.
const indirectSumSrc = `
func indirect-sum(4 args) {
b0 <entry>:
  v0 = arg 0
  v1 = arg 1
  v2 = arg 2
  v3 = arg 3
  v4 = const 0
  br b1
b1 <head>:  ; preds: b0 b2
  v6 = phi [v4, v22]
  v7 = phi [v4, v20]
  v8 = cmpltu v6, v3
  condbr v8, b2, b3
b2 <body>:  ; preds: b1
  v10 = const 8
  v11 = mul v6, v10
  v12 = add v0, v11
  v13 = load v12 ; A
  v14 = mul v13, v10
  v15 = add v1, v14
  v16 = load v15 ; B
  v17 = mul v16, v10
  v18 = add v2, v17
  v19 = load v18 ; C
  v20 = add v7, v19
  v21 = const 1
  v22 = add v6, v21
  br b1
b3 <exit>:  ; preds: b1
  ret v7
}
`

// indirectSumSWPfSrc adds swpf(&B[A[x+16]]) to indirectSumSrc:
// swpf(&C[B[A[x+dist]]]) is impossible without stalling, so standard
// practice (figure 5a) prefetches one indirection level.
const indirectSumSWPfSrc = `
func indirect-sum(4 args) {
b0 <entry>:
  v0 = arg 0
  v1 = arg 1
  v2 = arg 2
  v3 = arg 3
  v4 = const 0
  br b1
b1 <head>:  ; preds: b0 b2
  v6 = phi [v4, v30]
  v7 = phi [v4, v28]
  v8 = cmpltu v6, v3
  condbr v8, b2, b3
b2 <body>:  ; preds: b1
  v10 = const 8
  v11 = const 16
  v12 = add v6, v11
  v13 = mul v12, v10
  v14 = add v0, v13
  v15 = load v14 ; A
  v16 = mul v15, v10
  v17 = add v1, v16
  swpf v17 ; B
  v19 = mul v6, v10
  v20 = add v0, v19
  v21 = load v20 ; A
  v22 = mul v21, v10
  v23 = add v1, v22
  v24 = load v23 ; B
  v25 = mul v24, v10
  v26 = add v2, v25
  v27 = load v26 ; C
  v28 = add v7, v27
  v29 = const 1
  v30 = add v6, v29
  br b1
b3 <exit>:  ; preds: b1
  ret v7
}
`

// buildIndirectSum parses the figure 4(a) loop, with or without its
// software prefetch.
func buildIndirectSum(t testing.TB, withSWPf bool) *ir.Fn {
	t.Helper()
	src := indirectSumSrc
	if withSWPf {
		src = indirectSumSWPfSrc
	}
	fn, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return fn
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
	fn, err := ir.Parse(`
func cfgrun(2 args) {
b0 <entry>:
  v0 = arg 0
  v1 = arg 1
  cfg {Kind:0 Slot:0 LoadKernel:1 PFKernel:-1 EWMAGroup:-1 Interval:false TimedStart:false TimedEnd:false GReg:0} args=[0 1]
  v3 = load v0 ; A
  ret v3
}
`)
	if err != nil {
		t.Fatal(err)
	}

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
