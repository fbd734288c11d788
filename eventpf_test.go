package eventpf_test

import (
	"strings"
	"testing"

	"eventpf"
)

func TestFacadeBenchmarkRoster(t *testing.T) {
	bs := eventpf.Benchmarks()
	if len(bs) != 8 {
		t.Fatalf("benchmarks = %d, want 8", len(bs))
	}
	for _, b := range bs {
		got, ok := eventpf.BenchmarkByName(b.Name)
		if !ok || got != b {
			t.Errorf("BenchmarkByName(%s) failed", b.Name)
		}
	}
}

func TestFacadeRunAndSpeedup(t *testing.T) {
	b, _ := eventpf.BenchmarkByName("HJ-2")
	opt := eventpf.Options{Scale: 0.01}
	base, err := eventpf.Run(b, eventpf.NoPF, opt)
	if err != nil {
		t.Fatal(err)
	}
	man, err := eventpf.Run(b, eventpf.Manual, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s := eventpf.Speedup(base, man); s <= 0 {
		t.Errorf("speedup = %v", s)
	}
}

func TestFacadeIRAndAssembler(t *testing.T) {
	fn, err := eventpf.ParseIR("func f(1 args) {\nb0 <entry>:\n  v0 = arg 0\n  v1 = const 1\n  v2 = add v0, v1\n  ret v2\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	back, err := eventpf.ParseIR(fn.String())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(back.String(), "add") {
		t.Error("parsed IR lost the add")
	}

	prog, err := eventpf.Assemble("vaddr r1\npf r1\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) != 3 {
		t.Errorf("assembled %d instrs, want 3", len(prog))
	}
	if !strings.Contains(eventpf.Disassemble(prog), "vaddr") {
		t.Error("disassembly missing vaddr")
	}
}

func TestFacadeCompilerPipeline(t *testing.T) {
	// plain indirect loop → auto swpf → conversion, via the facade only.
	fn, err := eventpf.ParseIR(`
func pipe(3 args) {
b0 <entry>:
  v0 = arg 0
  v1 = arg 1
  v2 = arg 2
  v3 = const 0
  br b1
b1 <head>:  ; preds: b0 b2
  v5 = phi [v3, v18]
  v6 = phi [v3, v16]
  v7 = cmpltu v5, v2
  condbr v7, b2, b3
b2 <body>:  ; preds: b1
  v9 = const 3
  v10 = shl v5, v9
  v11 = add v0, v10
  v12 = load v11 ; A
  v13 = shl v12, v9
  v14 = add v1, v13
  v15 = load v14 ; B
  v16 = add v6, v15
  v17 = const 1
  v18 = add v5, v17
  br b1
b3 <exit>:  ; preds: b1
  ret v6
}
`)
	if err != nil {
		t.Fatal(err)
	}

	if n := eventpf.InsertSoftwarePrefetches(fn, 16); n != 1 {
		t.Fatalf("instrumented %d, want 1", n)
	}
	res, err := eventpf.ConvertSoftwarePrefetches(fn, eventpf.NewCompilerAlloc())
	if err != nil {
		t.Fatal(err)
	}
	if res.Converted == 0 || len(res.Kernels) == 0 {
		t.Errorf("pipeline produced no kernels: %+v", res)
	}
}

func TestFacadeCustomMachine(t *testing.T) {
	m := eventpf.NewMachine(eventpf.DefaultMachineConfig(), eventpf.MachineProgrammable)
	arr := m.Arena.AllocWords("a", 64)
	m.RegisterKernel(1, eventpf.MustAssemble("vaddr r1\naddi r1, r1, 64\npf r1\nhalt"))
	m.PF.SetRange(0, eventpf.RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: eventpf.NoKernel, EWMAGroup: -1})

	fn, err := eventpf.ParseIR("func t(1 args) {\nb0 <entry>:\n  v0 = arg 0\n  v1 = load v0 ; a\n  ret v1\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	res := m.Run(m.NewInterp(fn, arr.Base))
	if res.PF.KernelRuns != 1 {
		t.Errorf("kernel runs = %d, want 1", res.PF.KernelRuns)
	}
}
