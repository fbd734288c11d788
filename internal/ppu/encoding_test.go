package ppu

import (
	"slices"
	"testing"
	"testing/quick"
)

// testKernels are the kernels the encoding tests work on: one touching every
// operand form, then a representative application's set (first-level load
// kernel, indirection, CSR edge-range walk). FuzzDecodeRun starts from their
// encodings.
var testKernels = [][]Instr{
	MustAssemble(`
		vaddr  r1
		addi   r1, r1, 128
		movi   r2, 4096
		ldg    r3, g7
		mul    r2, r2, r3
		ldewma r4, e1
		pftag  r1, 3
	loop:
		bge    r2, r4, loop
		pf     r2
		halt
	`),
	MustAssemble("vaddr r1\naddi r1, r1, 512\npftag r1, 2\nhalt"),
	MustAssemble(`
		lddata r1
		shli   r1, r1, 3
		ldg    r2, g0
		add    r1, r1, r2
		pf     r1
		halt
	`),
	MustAssemble(`
		vaddr  r1
		lddata r2
		andi   r3, r1, 56
		movi   r4, 56
		beq    r3, r4, f
		addi   r5, r3, 8
		ldline r6, r5
		jmp    c
	f:
		addi   r6, r2, 16
	c:
		ldg    r8, g0
		mov    r9, r2
	l:
		bge    r9, r6, d
		shli   r10, r9, 3
		add    r10, r10, r8
		pftag  r10, 4
		addi   r9, r9, 8
		jmp    l
	d:
		halt
	`),
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	prog := testKernels[0]
	b := Encode(prog)
	back, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back, prog) {
		t.Errorf("decoded %v, want %v", back, prog)
	}
}

func TestEncodeImmediateWidths(t *testing.T) {
	cases := []struct {
		imm   int64
		words int
	}{
		{0, 1}, {100, 1}, {-100, 1}, {2045, 1}, {-2048, 1},
		{2046, 2}, {4096, 2}, {-3000, 2}, {1 << 30, 2}, {-(1 << 30), 2},
		{1 << 40, 3}, {-(1 << 40), 3}, {1<<63 - 1, 3},
	}
	for _, tc := range cases {
		prog := []Instr{{Op: MOVI, Rd: 1, Imm: tc.imm}}
		if got := len(Encode(prog)) / 4; got != tc.words {
			t.Errorf("imm %d encoded in %d words, want %d", tc.imm, got, tc.words)
		}
		back, err := Decode(Encode(prog))
		if err != nil {
			t.Fatalf("imm %d: %v", tc.imm, err)
		}
		if back[0].Imm != tc.imm {
			t.Errorf("imm %d decoded as %d", tc.imm, back[0].Imm)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Error("unaligned input accepted")
	}
	if _, err := Decode([]byte{0, 0, 0, 0xFF}); err == nil {
		t.Error("invalid opcode accepted")
	}
	// Extension marker with no following word.
	bad := Encode([]Instr{{Op: MOVI, Rd: 1, Imm: 1 << 40}})[:4]
	if _, err := Decode(bad); err == nil {
		t.Error("truncated immediate accepted")
	}
}

// Property: encode→decode is the identity for arbitrary valid instructions.
func TestEncodingRoundTripProperty(t *testing.T) {
	f := func(op uint8, rd, ra, rb uint8, imm int64) bool {
		in := Instr{
			Op: Opcode(int(op) % (int(JMP) + 1)),
			Rd: rd % NumRegs, Ra: ra % NumRegs, Rb: rb % NumRegs,
			Imm: imm,
		}
		back, err := Decode(Encode([]Instr{in}))
		return err == nil && len(back) == 1 && back[0] == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBenchmarkKernelsFitTheInstructionCache(t *testing.T) {
	// The paper: "a maximum of 1KB is fetched ... for the entirety of each
	// application". Check a representative kernel set stays well under the
	// 4 KiB shared instruction cache.
	kernels := testKernels[1:]
	total := 0
	for _, k := range kernels {
		total += EncodedSize(k)
	}
	if total > 1024 {
		t.Errorf("representative kernels encode to %d bytes, expected ≤ 1 KiB", total)
	}
}

// FuzzDecodeRun feeds arbitrary bytes to Decode — the one way a kernel reaches
// the simulator without passing the assembler's operand checks — and runs what
// decodes: the VM must end the event inside its budget whatever the program
// does (§5.1), stalling and resuming on tagged prefetches on the way, and the
// program must survive Encode and Decode unchanged. The corpus in
// testdata/fuzz/FuzzDecodeRun adds what no assembled kernel holds: global
// indices on both sides of the register file, branch targets outside the
// program, the extended-immediate forms and their truncations.
func FuzzDecodeRun(f *testing.F) {
	for _, k := range testKernels {
		f.Add(Encode(k))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		prog, err := Decode(b)
		if err != nil {
			return
		}
		if back, err := Decode(Encode(prog)); err != nil || !slices.Equal(back, prog) {
			t.Fatalf("Decode(Encode(%v)) = %v, %v", prog, back, err)
		}
		env := &Env{VAddr: 0x1008, Globals: new([NumGlobals]uint64),
			Lookahead: func(int) uint64 { return 4 },
			EmitPF:    func(_ uint64, tag int, _ int64) bool { return tag != NoTag }}
		vm := newVM(prog, env)
		for vm.Run() == Blocked {
		}
		if vm.Cycles() > MaxKernelInstrs+7 { // a DIV may start on the last cycle
			t.Fatalf("%d cycles, budget %d", vm.Cycles(), MaxKernelInstrs)
		}
	})
}
