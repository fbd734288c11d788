package ppu

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

type emitted struct {
	addr  uint64
	tag   int
	cycle int64
}

func newVM(prog []Instr, env *Env) *VM {
	vm := new(VM)
	vm.Reset(prog, env)
	return vm
}

func run(t *testing.T, src string, env *Env) (*VM, []emitted) {
	t.Helper()
	prog, err := Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	var out []emitted
	if env == nil {
		env = &Env{}
	}
	if env.Globals == nil {
		env.Globals = new([NumGlobals]uint64)
	}
	if env.EmitPF == nil {
		env.EmitPF = func(addr uint64, tag int, cycle int64) bool {
			out = append(out, emitted{addr, tag, cycle})
			return false
		}
	}
	vm := newVM(prog, env)
	if vm.Run() != Done {
		t.Fatal("kernel did not run to completion")
	}
	return vm, out
}

func TestFigure4OnALoad(t *testing.T) {
	// Figure 4(b) on_A_load: prefetch two cache lines (128 bytes) ahead.
	src := `
		vaddr r1
		addi  r1, r1, 128
		pf    r1
		halt
	`
	_, out := run(t, src, &Env{VAddr: 0x4000})
	if len(out) != 1 || out[0].addr != 0x4080 || out[0].tag != NoTag {
		t.Errorf("emitted %+v, want one untagged prefetch of 0x4080", out)
	}
}

func TestFigure4OnAPrefetch(t *testing.T) {
	// Figure 4(b) on_A_prefetch: fetch = base(B) + data*8, tagged so the
	// fill runs the next kernel in the chain.
	src := `
		lddata r1
		shli   r1, r1, 3
		ldg    r2, g1
		add    r1, r1, r2
		pftag  r1, 2
		halt
	`
	env := &Env{VAddr: 0x4008, Globals: new([NumGlobals]uint64)}
	env.Line[1] = 77 // word at offset 8 within the line
	env.Globals[1] = 0x100000
	_, out := run(t, src, env)
	if len(out) != 1 || out[0].addr != 0x100000+77*8 || out[0].tag != 2 {
		t.Errorf("emitted %+v, want tagged prefetch of B base + 77*8", out)
	}
}

func TestLoopFirstN(t *testing.T) {
	// Prefetch the first 4 words starting at the trigger address — the
	// "first N hash buckets" idiom from §7.1.
	src := `
		vaddr r1
		movi  r2, 0
		movi  r3, 4
	loop:
		bge   r2, r3, done
		pf    r1
		addi  r1, r1, 8
		addi  r2, r2, 1
		jmp   loop
	done:
		halt
	`
	_, out := run(t, src, &Env{VAddr: 0x9000})
	if len(out) != 4 {
		t.Fatalf("emitted %d prefetches, want 4", len(out))
	}
	for i, e := range out {
		if e.addr != 0x9000+uint64(i)*8 {
			t.Errorf("prefetch %d to %#x", i, e.addr)
		}
	}
}

func TestCyclesCountInstructions(t *testing.T) {
	vm, _ := run(t, "movi r1, 5\naddi r1, r1, 1\nhalt", nil)
	if vm.Cycles() != 3 {
		t.Errorf("cycles = %d, want 3", vm.Cycles())
	}
}

func TestDivideByZeroTerminatesEvent(t *testing.T) {
	src := `
		movi r1, 10
		movi r2, 0
		div  r3, r1, r2
		pf   r1
		halt
	`
	vm, out := run(t, src, nil)
	if !vm.Faulted() {
		t.Error("divide by zero did not fault")
	}
	if len(out) != 0 {
		t.Error("instructions after the fault still executed")
	}
}

// A global register that does not exist terminates the event like a divide
// by zero; the assembler refuses one, but Decode and RegisterKernel take any
// immediate.
func TestGlobalIndexOutOfRangeTerminatesEvent(t *testing.T) {
	for _, op := range []Opcode{LDG, STG} {
		for _, tc := range []struct {
			imm   int64
			fault bool
		}{{-1, true}, {0, false}, {NumGlobals - 1, false}, {NumGlobals, true}} {
			emitted := 0
			env := &Env{Globals: new([NumGlobals]uint64),
				EmitPF: func(uint64, int, int64) bool { emitted++; return false }}
			vm := newVM([]Instr{{Op: op, Rd: 1, Ra: 1, Imm: tc.imm}, {Op: PF, Ra: 1}, {Op: HALT}}, env)
			wantEmitted := 1
			if tc.fault {
				wantEmitted = 0 // the event ended at the fault
			}
			if vm.Run() != Done || vm.Faulted() != tc.fault || emitted != wantEmitted {
				t.Errorf("%s g%d: faulted=%v and %d prefetches after it, want %v and %d",
					op, tc.imm, vm.Faulted(), emitted, tc.fault, wantEmitted)
			}
		}
	}
}

func TestRunawayKernelTerminated(t *testing.T) {
	vm, _ := run(t, "loop:\njmp loop", nil)
	if !vm.Faulted() {
		t.Error("runaway kernel not terminated")
	}
	if vm.Cycles() < MaxKernelInstrs {
		t.Errorf("cycles = %d, want ≥ budget", vm.Cycles())
	}
}

func TestEWMAAccess(t *testing.T) {
	src := `
		ldewma r1, e0
		muli   r1, r1, 8
		vaddr  r2
		add    r1, r1, r2
		pf     r1
		halt
	`
	env := &Env{VAddr: 0x1000, Lookahead: func(g int) uint64 {
		if g != 0 {
			t.Errorf("lookahead group %d, want 0", g)
		}
		return 6
	}}
	_, out := run(t, src, env)
	if len(out) != 1 || out[0].addr != 0x1000+48 {
		t.Errorf("emitted %+v, want prefetch at vaddr+6*8", out)
	}
}

func TestBlockedModeSuspendsAndResumes(t *testing.T) {
	prog := MustAssemble(`
		vaddr r1
		pftag r1, 3
		addi  r1, r1, 64
		pf    r1
		halt
	`)
	var out []emitted
	env := &Env{VAddr: 0x2000, Globals: new([NumGlobals]uint64)}
	env.EmitPF = func(addr uint64, tag int, cycle int64) bool {
		out = append(out, emitted{addr, tag, cycle})
		return tag != NoTag // block on tagged prefetches only
	}
	vm := newVM(prog, env)
	if vm.Run() != Blocked {
		t.Fatal("tagged prefetch did not block")
	}
	if len(out) != 1 {
		t.Fatalf("emitted %d before block, want 1", len(out))
	}
	if vm.Run() != Done {
		t.Fatal("resume did not finish")
	}
	if len(out) != 2 || out[1].addr != 0x2040 || out[1].tag != NoTag {
		t.Errorf("after resume emitted %+v", out)
	}
}

func TestStoreGlobalVisible(t *testing.T) {
	g := new([NumGlobals]uint64)
	run(t, "movi r1, 99\nstg g5, r1\nhalt", &Env{Globals: g})
	if g[5] != 99 {
		t.Errorf("global g5 = %d, want 99", g[5])
	}
}

func TestLineAccessVariants(t *testing.T) {
	env := &Env{VAddr: 0x1010, Globals: new([NumGlobals]uint64)}
	for i := range env.Line {
		env.Line[i] = uint64(i) * 11
	}
	src := `
		lddata  r1      ; word at trigger offset 0x10 -> index 2 -> 22
		ldlinei r2, 24  ; index 3 -> 33
		movi    r3, 40
		ldline  r4, r3  ; index 5 -> 55
		add     r5, r1, r2
		add     r5, r5, r4
		shli    r5, r5, 0
		pf      r5
		halt
	`
	_, out := run(t, src, env)
	if len(out) != 1 || out[0].addr != 22+33+55 {
		t.Errorf("line access sum = %v, want 110", out)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus r1",
		"movi r99, 1",
		"pf 42",
		"jmp nowhere",
		"ldg r1, g200",
		"addi r1, r2",
		"dup:\ndup:\nhalt",
		",", // a line holding only commas
	}
	for _, src := range cases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
	if _, err := Assemble("halt\n , ,\nhalt"); err == nil || !strings.HasPrefix(err.Error(), "line 2 ") {
		t.Errorf("Assemble of a comma line = %v, want an error naming line 2", err)
	}
}

// Property: assemble → disassemble → reassemble produces identical programs,
// for the label-free subset of instructions.
func TestAssemblerRoundTrip(t *testing.T) {
	f := func(seed uint32) bool {
		ops := []string{
			"movi r%d, %d", "addi r%d, r%d, %d", "shli r%d, r%d, %d",
		}
		var lines []string
		s := seed
		next := func(mod int) int { s = s*1664525 + 1013904223; return int(s>>16) % mod }
		for i := 0; i < 10; i++ {
			switch tmpl := ops[next(len(ops))]; tmpl {
			case "movi r%d, %d":
				lines = append(lines, fmt.Sprintf(tmpl, next(NumRegs), next(1000)))
			default:
				lines = append(lines, fmt.Sprintf(tmpl, next(NumRegs), next(NumRegs), next(64)))
			}
		}
		lines = append(lines, "halt")
		src := strings.Join(lines, "\n")
		p1, err := Assemble(src)
		if err != nil {
			return false
		}
		var dis []string
		for _, in := range p1 {
			dis = append(dis, in.String())
		}
		p2, err := Assemble(strings.Join(dis, "\n"))
		if err != nil {
			return false
		}
		if len(p1) != len(p2) {
			return false
		}
		for i := range p1 {
			if p1[i] != p2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: any random program terminates within the instruction budget and
// never touches state outside its environment.
func TestVMAlwaysTerminates(t *testing.T) {
	f := func(seed int64) bool {
		rng := seed
		next := func(mod int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := int((uint64(rng) >> 33) % uint64(mod))
			return v
		}
		prog := make([]Instr, next(40)+1)
		for i := range prog {
			prog[i] = Instr{
				Op:  Opcode(next(int(JMP) + 1)),
				Rd:  uint8(next(NumRegs)),
				Ra:  uint8(next(NumRegs)),
				Rb:  uint8(next(NumRegs)),
				Imm: int64(next(len(prog) + 8)), // branch targets may overshoot
			}
			// Keep ewma groups in range; a global index past the end faults.
			if prog[i].Op == LDEWMA {
				prog[i].Imm = int64(next(8))
			}
		}
		env := &Env{Globals: new([NumGlobals]uint64), Lookahead: func(int) uint64 { return 4 }}
		emitted := 0
		env.EmitPF = func(uint64, int, int64) bool { emitted++; return false }
		vm := newVM(prog, env)
		if vm.Run() != Done {
			return false
		}
		return vm.Cycles() <= MaxKernelInstrs+8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: blocked mode preserves the prefetch sequence — running the same
// kernel with block-on-tag and resuming yields exactly the prefetches of a
// non-blocking run.
func TestBlockedModeSameEmissions(t *testing.T) {
	prog := MustAssemble(`
		vaddr r1
		movi  r2, 0
		movi  r3, 5
	loop:
		bge   r2, r3, done
		pftag r1, 7
		addi  r1, r1, 64
		addi  r2, r2, 1
		jmp   loop
	done:
		pf    r1
		halt
	`)
	collect := func(block bool) []uint64 {
		var out []uint64
		env := &Env{VAddr: 0x1000, Globals: new([NumGlobals]uint64)}
		env.EmitPF = func(addr uint64, tag int, cycle int64) bool {
			out = append(out, addr)
			return block && tag != NoTag
		}
		vm := newVM(prog, env)
		for vm.Run() == Blocked {
		}
		return out
	}
	a, b := collect(false), collect(true)
	if len(a) != len(b) {
		t.Fatalf("emission counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("emission %d differs: %#x vs %#x", i, a[i], b[i])
		}
	}
}

// BenchmarkVMRun times one invocation of G500-CSR's hand-written kernel 4
// (internal/workloads/g500.go: an edge line arrived, prefetch the parent word
// of all eight targets): 59 instructions and 8 prefetches a run. It fails if
// a run allocates.
func BenchmarkVMRun(b *testing.B) {
	prog := MustAssemble(`
		movi   r2, 0
		ldg    r3, g1
	loop:
		ldline r4, r2
		shli   r5, r4, 3
		add    r5, r5, r3
		pf     r5
		addi   r2, r2, 8
		movi   r6, 64
		blt    r2, r6, loop
		halt
	`)
	var globals [NumGlobals]uint64
	globals[1] = 1 << 30
	emitted := 0
	env := Env{VAddr: 1 << 20, Globals: &globals,
		Lookahead: func(int) uint64 { return 4 },
		EmitPF:    func(uint64, int, int64) bool { emitted++; return false }}
	for i := range env.Line {
		env.Line[i] = uint64(i) * 4099
	}
	var vm VM
	run := func() {
		vm.Reset(prog, &env)
		vm.Run()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 0 || vm.Faulted() || vm.Cycles() != 59 || emitted != 101*8 {
		b.Fatalf("%.0f allocs a run, faulted=%v, %d cycles, %d prefetches in 101 runs; want 0, false, 59, 808",
			allocs, vm.Faulted(), vm.Cycles(), emitted)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/59, "ns/instr")
}
