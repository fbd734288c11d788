package compiler

import (
	"strings"
	"testing"

	"eventpf/internal/ir"
	"eventpf/internal/ppu"
)

// fig5Plain is the paper's figure 5 loop without prefetching:
//
//	for (x = 0; x < N; x++) acc += C[B[A[x]]];
//
// Args: 0=A, 1=B, 2=C, 3=N.
const fig5Plain = `
func fig5(4 args) {
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

// fig5Pragma is figure 5(b): fig5Plain with its loop marked for the pragma
// pass.
var fig5Pragma = strings.Replace(fig5Plain, "b1 <head>:", "b1 <head> #pragma prefetch:", 1)

// fig5SWPf is figure 5(a): fig5Plain with swpf(&C[B[A[x+16]]]) ahead of the
// loads.
const fig5SWPf = `
func fig5(4 args) {
b0 <entry>:
  v0 = arg 0
  v1 = arg 1
  v2 = arg 2
  v3 = arg 3
  v4 = const 0
  br b1
b1 <head>:  ; preds: b0 b2
  v6 = phi [v4, v33]
  v7 = phi [v4, v31]
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
  v18 = load v17 ; B
  v19 = mul v18, v10
  v20 = add v2, v19
  swpf v20 ; C
  v22 = mul v6, v10
  v23 = add v0, v22
  v24 = load v23 ; A
  v25 = mul v24, v10
  v26 = add v1, v25
  v27 = load v26 ; B
  v28 = mul v27, v10
  v29 = add v2, v28
  v30 = load v29 ; C
  v31 = add v7, v30
  v32 = const 1
  v33 = add v6, v32
  br b1
b3 <exit>:  ; preds: b1
  ret v7
}
`

// mustParse parses src, failing the test on an error.
func mustParse(t testing.TB, src string) *ir.Fn {
	t.Helper()
	fn, err := ir.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, src)
	}
	return fn
}

func countOps(fn *ir.Fn, op ir.Op) int {
	n := 0
	for _, b := range fn.Blocks {
		for _, v := range b.Instrs {
			if fn.Instr(v).Op == op {
				n++
			}
		}
	}
	return n
}

func TestConvertFigure5(t *testing.T) {
	fn := mustParse(t, fig5SWPf)
	loadsBefore := countOps(fn, ir.Load)

	res, err := ConvertSoftwarePrefetches(fn, NewAlloc())
	if err != nil {
		t.Fatalf("convert: %v", err)
	}
	if res.Converted != 1 || res.Failed != 0 {
		t.Fatalf("converted=%d failed=%d, want 1/0", res.Converted, res.Failed)
	}
	// Three events: A (iv-triggered), B (on A fill), C (on B fill).
	if len(res.Kernels) != 3 {
		t.Fatalf("kernels = %d, want 3", len(res.Kernels))
	}
	if countOps(fn, ir.SWPf) != 0 {
		t.Error("software prefetch not removed")
	}
	// The duplicated A[x+n] and B[...] loads must be dead-code-eliminated.
	loadsAfter := countOps(fn, ir.Load)
	if loadsAfter != loadsBefore-2 {
		t.Errorf("loads after conversion = %d, want %d (prefetch loads removed)",
			loadsAfter, loadsBefore-2)
	}
	// Configuration instructions appear: 1 bounds + globals (B and C bases).
	if got := countOps(fn, ir.Cfg); got < 3 {
		t.Errorf("cfg instructions = %d, want ≥ 3", got)
	}
	if err := fn.Verify(); err != nil {
		t.Fatalf("function invalid after pass: %v", err)
	}
}

func TestConvertedKernelsChainCorrectly(t *testing.T) {
	fn := mustParse(t, fig5SWPf)
	res, err := ConvertSoftwarePrefetches(fn, NewAlloc())
	if err != nil {
		t.Fatal(err)
	}
	// Find the first event (kernel 1 from a fresh Alloc). It must use
	// vaddr (address reconstruction) and end in a tagged prefetch.
	k1 := res.Kernels[1]
	if k1 == nil {
		t.Fatalf("kernel 1 missing; have %v", keys(res.Kernels))
	}
	hasVaddr, hasPftag := false, false
	for _, in := range k1 {
		if in.Op == ppu.VADDR {
			hasVaddr = true
		}
		if in.Op == ppu.PFTAG {
			hasPftag = true
		}
	}
	if !hasVaddr || !hasPftag {
		t.Errorf("first event kernel lacks vaddr/pftag:\n%s", ppu.Disassemble(k1))
	}
	// The last event ends in an untagged pf.
	k3 := res.Kernels[3]
	last := k3[len(k3)-2] // before halt
	if last.Op != ppu.PF {
		t.Errorf("final event does not end the chain:\n%s", ppu.Disassemble(k3))
	}
}

func keys(m map[int][]ppu.Instr) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestConvertFailsOnListWalk(t *testing.T) {
	// while (p) { swpf(p->next); p = p->next; } — the address comes from a
	// non-induction phi, which Algorithm 1 rejects (the paper's G500-List
	// case).
	// The loop's induction variable (v4) exists, but the swpf does not use
	// it.
	fn := mustParse(t, `
func list(1 args) {
b0 <entry>:
  v0 = arg 0
  v1 = const 0
  br b1
b1 <head>:  ; preds: b0 b2
  v3 = phi [v0, v8]
  v4 = phi [v1, v10]
  v5 = cmpne v3, v1
  condbr v5, b2, b3
b2 <body>:  ; preds: b1
  swpf v3 ; node
  v8 = load v3 ; node
  v9 = const 1
  v10 = add v4, v9
  br b1
b3 <exit>:  ; preds: b1
  ret _
}
`)

	res, err := ConvertSoftwarePrefetches(fn, NewAlloc())
	if err != nil {
		t.Fatal(err)
	}
	if res.Converted != 0 || res.Failed != 1 {
		t.Errorf("converted=%d failed=%d, want 0/1", res.Converted, res.Failed)
	}
	if countOps(fn, ir.SWPf) != 1 {
		t.Error("unconvertible software prefetch should stay in place")
	}
}

func TestPragmaFigure5(t *testing.T) {
	fn := mustParse(t, fig5Pragma)
	res, err := GeneratePragmaEvents(fn, NewAlloc())
	if err != nil {
		t.Fatalf("pragma: %v", err)
	}
	if res.Converted != 1 {
		t.Fatalf("converted=%d, want 1 (the C[B[A[x]]] chain)", res.Converted)
	}
	if len(res.Kernels) != 3 {
		t.Fatalf("kernels = %d, want 3", len(res.Kernels))
	}
	// First event must consult the EWMA for look-ahead.
	k1 := res.Kernels[1]
	hasEWMA := false
	for _, in := range k1 {
		if in.Op == ppu.LDEWMA {
			hasEWMA = true
		}
	}
	if !hasEWMA {
		t.Errorf("pragma first event lacks EWMA look-ahead:\n%s", ppu.Disassemble(k1))
	}
	// The original loads are untouched.
	if got := countOps(fn, ir.Load); got != 3 {
		t.Errorf("loads = %d, want 3", got)
	}
	if err := fn.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPragmaSkipsControlFlowLoads(t *testing.T) {
	// A loop whose indirect load sits behind a data-dependent branch: the
	// pragma pass must skip it (complicated control flow, §6.4).
	// B[A[x]] (v17) is indirect, but conditional.
	fn := mustParse(t, `
func cf(3 args) {
b0 <entry>:
  v0 = arg 0
  v1 = arg 1
  v2 = arg 2
  v3 = const 0
  br b1
b1 <head> #pragma prefetch:  ; preds: b0 b4
  v5 = phi [v3, v20]
  v6 = cmpltu v5, v2
  condbr v6, b2, b5
b2 <body>:  ; preds: b1
  v8 = const 8
  v9 = mul v5, v8
  v10 = add v0, v9
  v11 = load v10 ; A
  v12 = const 1
  v13 = and v11, v12
  condbr v13, b3, b4
b3 <then>:  ; preds: b2
  v15 = mul v11, v8
  v16 = add v1, v15
  v17 = load v16 ; B
  br b4
b4 <latch>:  ; preds: b2 b3
  v19 = const 1
  v20 = add v5, v19
  br b1
b5 <exit>:  ; preds: b1
  ret _
}
`)

	res, err := GeneratePragmaEvents(fn, NewAlloc())
	if err != nil {
		t.Fatal(err)
	}
	if res.Converted != 0 {
		t.Errorf("converted=%d, want 0: the indirect load is control-dependent", res.Converted)
	}
}

func TestAffineAnalysis(t *testing.T) {
	fn := mustParse(t, fig5Plain)
	loops := fn.Loops()
	if len(loops) != 1 {
		t.Fatal("expected one loop")
	}
	l := loops[0]
	db := fn.DefBlocks()
	// Find the A load: its address should be affine base=A coeff=8.
	for _, b := range fn.Blocks {
		for _, v := range b.Instrs {
			in := fn.Instr(v)
			if in.Op == ir.Load && in.Sym == "A" {
				a, ok := affineOf(fn, l, db, in.A, l.Induction.Phi)
				if !ok || a.coeff != 8 || a.base == ir.NoValue {
					t.Errorf("affine(A addr) = %+v ok=%v, want coeff 8 with base", a, ok)
				}
			}
		}
	}
}

func TestLoopBoundRecognised(t *testing.T) {
	fn := mustParse(t, fig5Plain)
	l := fn.Loops()[0]
	bound, ok := fn.LoopBound(l)
	if !ok {
		t.Fatal("loop bound not recognised")
	}
	if fn.Instr(bound).Op != ir.Arg || fn.Instr(bound).Imm != 3 {
		t.Errorf("bound = v%d (%s), want arg 3", bound, fn.Instr(bound).Op)
	}
}

func TestDeadCodeElimKeepsSideEffects(t *testing.T) {
	// v2 is unused; v4 addresses the store.
	fn := mustParse(t, `
func dce(1 args) {
b0 <entry>:
  v0 = arg 0
  v1 = const 8
  v2 = add v0, v1
  v3 = const 16
  v4 = add v0, v3
  store v4, v0 ; out
  ret _
}
`)
	const live = 4
	removed := fn.DeadCodeElim()
	if removed == 0 {
		t.Error("nothing removed")
	}
	if countOps(fn, ir.Store) != 1 {
		t.Error("store removed")
	}
	if fn.Instr(live).Op == ir.Nop {
		t.Error("live address computation removed")
	}
}
