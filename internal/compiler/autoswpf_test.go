package compiler

import (
	"testing"

	"eventpf/internal/cpu"
	"eventpf/internal/ir"
	"eventpf/internal/mem"
)

func TestAutoSWPfInstrumentsIndirectLoop(t *testing.T) {
	fn := mustParse(t, fig5Plain) // plain acc += C[B[A[x]]]
	n := InsertSoftwarePrefetches(fn, 16)
	if n != 1 {
		t.Fatalf("instrumented %d loads, want 1 (the C access)", n)
	}
	if err := fn.Verify(); err != nil {
		t.Fatalf("pass broke the function: %v\n%s", err, fn)
	}
	if got := countOps(fn, ir.SWPf); got != 2 {
		t.Errorf("software prefetches = %d, want 2 (index + target)", got)
	}
	// Two extra look-ahead loads (the A and B levels of the chain).
	if got := countOps(fn, ir.Load); got != 5 {
		t.Errorf("loads = %d, want 5", got)
	}
}

func TestAutoSWPfPreservesSemantics(t *testing.T) {
	plain := mustParse(t, fig5Plain)
	auto := mustParse(t, fig5Plain)
	if InsertSoftwarePrefetches(auto, 8) != 1 {
		t.Fatal("instrumentation failed")
	}

	bk := mem.NewBacking()
	arena := mem.NewArena(bk)
	const n = 200
	a := arena.AllocWords("A", n+64)
	b := arena.AllocWords("B", n+64)
	c := arena.AllocWords("C", n+64)
	seed := uint64(5)
	for i := uint64(0); i < n+64; i++ {
		seed = seed*6364136223846793005 + 1
		bk.Write64(a.Base+i*8, seed%n)
		bk.Write64(b.Base+i*8, (seed>>7)%n)
		bk.Write64(c.Base+i*8, seed&0xFFF)
	}

	run := func(fn *ir.Fn) uint64 {
		it := ir.NewInterp(fn, bk, nil, new(int64), a.Base, b.Base, c.Base, n)
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		v, _ := it.Result()
		return v
	}
	if got, want := run(auto), run(plain); got != want {
		t.Errorf("instrumented result %d != plain %d", got, want)
	}
}

func TestAutoSWPfThenConversionPipeline(t *testing.T) {
	// The §6.4 pipeline: plain loop → auto software prefetches →
	// Algorithm 1 → event kernels, no hand-written annotations at all.
	fn := mustParse(t, fig5Plain)
	if InsertSoftwarePrefetches(fn, 16) != 1 {
		t.Fatal("instrumentation failed")
	}
	res, err := ConvertSoftwarePrefetches(fn, NewAlloc())
	if err != nil {
		t.Fatal(err)
	}
	if res.Converted != 2 {
		t.Fatalf("converted %d chains (failed %d: %v), want 2", res.Converted, res.Failed, res.Errors)
	}
	// The full A→B→C chain converts to three kernels plus the index stream.
	if len(res.Kernels) < 4 {
		t.Errorf("kernels = %d, want ≥ 4", len(res.Kernels))
	}
	if err := fn.Verify(); err != nil {
		t.Fatal(err)
	}
	if got := countOps(fn, ir.SWPf); got != 0 {
		t.Errorf("%d software prefetches survive the full pipeline", got)
	}
}

func TestAutoSWPfSkipsPlainStrideLoop(t *testing.T) {
	// A loop with only a strided load has no indirection to instrument.
	fn := mustParse(t, `
func stride(2 args) {
b0 <entry>:
  v0 = arg 0
  v1 = arg 1
  v2 = const 0
  br b1
b1 <head>:  ; preds: b0 b2
  v4 = phi [v2, v14]
  v5 = phi [v2, v12]
  v6 = cmpltu v4, v1
  condbr v6, b2, b3
b2 <body>:  ; preds: b1
  v8 = const 3
  v9 = shl v4, v8
  v10 = add v0, v9
  v11 = load v10 ; arr
  v12 = add v5, v11
  v13 = const 1
  v14 = add v4, v13
  br b1
b3 <exit>:  ; preds: b1
  ret v5
}
`)

	if n := InsertSoftwarePrefetches(fn, 16); n != 0 {
		t.Errorf("instrumented %d loads in a stride-only loop", n)
	}
}

func TestAutoSWPfEmitsMicroOps(t *testing.T) {
	// The inserted prefetches must reach the core as OpSWPf micro-ops.
	fn := mustParse(t, fig5Plain)
	InsertSoftwarePrefetches(fn, 4)
	bk := mem.NewBacking()
	arena := mem.NewArena(bk)
	a := arena.AllocWords("A", 64)
	b := arena.AllocWords("B", 64)
	c := arena.AllocWords("C", 64)
	it := ir.NewInterp(fn, bk, nil, new(int64), a.Base, b.Base, c.Base, 8)
	swpf := 0
	for {
		op, ok := it.Next()
		if !ok {
			break
		}
		if op.Kind == cpu.OpSWPf {
			swpf++
		}
	}
	if swpf != 16 { // 2 per iteration × 8 iterations
		t.Errorf("swpf micro-ops = %d, want 16", swpf)
	}
}
