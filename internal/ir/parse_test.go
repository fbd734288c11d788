package ir

import (
	"reflect"
	"strings"
	"testing"

	"eventpf/internal/mem"
)

func TestParseRoundTripSumLoop(t *testing.T) {
	// Parsing renumbers values into block order, so the fixed point is
	// reached after one normalisation: print∘parse must be idempotent.
	fn := mustParse(t, sumLoopSrc)
	once, err := Parse(fn.String())
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, fn.String())
	}
	twice, err := Parse(once.String())
	if err != nil {
		t.Fatalf("Parse (second): %v", err)
	}
	if once.String() != twice.String() {
		t.Errorf("print∘parse not idempotent:\n--- once\n%s\n--- twice\n%s",
			once.String(), twice.String())
	}
}

func TestParsedFunctionExecutesIdentically(t *testing.T) {
	fn := mustParse(t, sumLoopSrc)
	back, err := Parse(fn.String())
	if err != nil {
		t.Fatal(err)
	}

	bk := mem.NewBacking()
	arena := mem.NewArena(bk)
	arr := arena.AllocWords("arr", 64)
	for i := uint64(0); i < 64; i++ {
		bk.Write64(arr.Base+i*8, i*i)
	}
	run := func(f *Fn) uint64 {
		it := NewInterp(f, bk, nil, new(int64), arr.Base, 64)
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		v, _ := it.Result()
		return v
	}
	if a, b := run(fn), run(back); a != b {
		t.Errorf("original %d != reparsed %d", a, b)
	}
}

func TestParseTextualKernel(t *testing.T) {
	// A hand-written textual kernel: sum the first N words at base.
	src := `
func textsum(2 args) {
b0 <entry>:
  v0 = arg 0
  v1 = arg 1
  v2 = const 0
  br b1
b1 <head>:  ; preds: b0 b2
  v4 = phi [v2, v13]
  v5 = phi [v2, v11]
  v6 = cmpltu v4, v1
  condbr v6, b2, b3
b2 <body>:  ; preds: b1
  v8 = shl v4, v15
  v9 = add v0, v8
  v10 = load v9 ; arr
  v11 = add v5, v10
  v12 = const 1
  v13 = add v4, v12
  br b1
b3 <exit>:  ; preds: b1
  ret v5
}
`
	// v15 is used before definition — the parser maps it optimistically and
	// the verifier must reject it.
	if _, err := Parse(src); err == nil {
		t.Fatal("use of undefined value accepted")
	}
	fixed := strings.Replace(src, "v8 = shl v4, v15", "v7 = const 3\n  v8 = shl v4, v7", 1)
	fn, err := Parse(fixed)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	bk := mem.NewBacking()
	arena := mem.NewArena(bk)
	arr := arena.AllocWords("arr", 8)
	var want uint64
	for i := uint64(0); i < 8; i++ {
		bk.Write64(arr.Base+i*8, i+100)
		want += i + 100
	}
	it := NewInterp(fn, bk, nil, new(int64), arr.Base, 8)
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if got, _ := it.Result(); got != want {
		t.Errorf("textual kernel sum = %d, want %d", got, want)
	}
}

func TestParseRejectsBadInput(t *testing.T) {
	// Rejected by the parser.
	syntax := []string{
		"",
		"func x(1 args) {\n}",                  // no blocks
		"func x(0 args) {\nb0:\n  bogus v1\n}", // unknown instr
		"func x(0 args) {\nb0:\n  v0 = wat v1, v2\n}",                 // unknown op
		"func x(0 args) {\nb0:\n  br b7\n}",                           // bad block ref
		"func x(0 args) {\nb0:\n  cfg {Kind:x} args=[]\n  ret _\n}",   // bad cfg field value
		"func x(0 args) {\nb0:\n  cfg {Bogus:1} args=[]\n  ret _\n}",  // unknown cfg field
		"func x(0 args) {\nb0:\n  cfg {GReg:2} args=[-1]\n  ret _\n}", // negative cfg argument
		"func x(0 args) {\nb0:\n  cfg {GReg:2} args=[5]\n  ret _\n}",  // cfg argument undefined
		"func x(0 args) {\nb0:\n  cfg {GReg:2 args=[]\n  ret _\n}",    // unclosed fields
		"func x(0 args) {\nb0:\n  cfg {GReg:2}\n  ret _\n}",           // no args
		// Truncated or malformed lines: errors, not panics.
		"func x",
		"func x(0 args) {\nb0:\n  v1 = const\n  ret _\n}",
		"func x(0 args) {\nb0:\n  v0 = const 1\n  v1 = add v0\n  ret _\n}",
		"func x(0 args) {\nb0:\n  v1 = phi\n  ret _\n}",
		"func x(0 args) {\nb0:\n  v0 = const 1\n  store v0\n  ret _\n}",
		"func x(0 args) {\nb0 <e:\n  ret _\n}",
		"func x(0 args) {\nb0:\n  br b0\nb5#pragma prefetch:\n  ret _\n}",
		"func x(0 args) {\nb0:\n  br b0\nb-1:\n  ret _\n}",
		// A block number past the line count. A parser without the bound
		// allocates that many blocks, so it goes last.
		"func x(0 args) {\nb1000000000:\n  ret _\n}",
	}
	// Parsed, then rejected by Verify.
	invalid := []string{
		"func x(0 args) {\nb0:\n  v0 = const 1\n}",         // no terminator
		"func x(0 args) {\nb0:\n  v0 = const 1 ; note\n}",  // a trailing comment ends no block
		"func x(0 args) {\nb0:\n  v0 = arg 3\n  ret v0\n}", // argument out of range
		"func x(0 args) {\nb0:\n  br b1\nb1:  ; preds: b9\n  ret _\n}",
		// A phi with three incoming values in a block of two preds.
		"func x(0 args) {\nb0:\n  v0 = const 1\n  br b1\nb1:  ; preds: b0 b1\n  v2 = phi [v0, v0, v0]\n  br b1\n}",
		// A use before its definition in the same block.
		"func x(0 args) {\nb0:\n  br b1\nb1:  ; preds: b0\n  v2 = add v1, v1\n  v1 = const 5\n  ret _\n}",
		// A diamond whose join names b0, which does not branch to it, for b2,
		// which does; then one that leaves b2 out.
		diamond("b1 b0"),
		diamond("b1"),
	}
	for _, src := range syntax {
		if _, err := Parse(src); err == nil || strings.Contains(err.Error(), "parsed function invalid") {
			t.Errorf("Parse(%q) = %v, want a parse error", src, err)
		}
	}
	for _, src := range invalid {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), "parsed function invalid") {
			t.Errorf("Parse(%q) = %v, want Verify's error", src, err)
		}
	}
	if _, err := Parse(diamond("b2 b1")); err != nil {
		t.Errorf("a diamond listing its join's preds in another order: %v", err)
	}
}

// diamond is an if-else whose join block b3 lists preds as given; b1 and b2
// branch to it.
func diamond(preds string) string {
	return "func d(1 args) {\nb0:\n  v0 = arg 0\n  condbr v0, b1, b2\nb1:  ; preds: b0\n  br b3\n" +
		"b2:  ; preds: b0\n  br b3\nb3:  ; preds: " + preds + "\n  ret _\n}\n"
}

func TestParsePreservesPragmaAndNames(t *testing.T) {
	// An unnamed pragma header must reparse too. The loop is degenerate (i
	// never advances) but structurally valid; only textual fidelity counts.
	fn := mustParse(t, `
func p(1 args) {
b0 <entry>:
  v0 = arg 0
  v1 = const 0
  br b1
b1 #pragma prefetch:  ; preds: b0 b1
  v3 = phi [v1, v3]
  v4 = cmpltu v3, v0
  condbr v4, b1, b2
b2 <exit>:  ; preds: b1
  ret _
}
`)
	back, err := Parse(fn.String())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Block(1).Pragma {
		t.Error("pragma mark lost in round trip")
	}
	if back.Block(0).Name != "entry" || back.Block(2).Name != "exit" {
		t.Error("block names lost in round trip")
	}
}

// TestParseReadsCfgAndComments: a Cfg instruction reads back from the
// printer's line, full-line ';' comments are skipped, and values are numbered
// by their position in the text.
func TestParseReadsCfgAndComments(t *testing.T) {
	got := mustParse(t, `; a comment before the header
func cfg(1 args) {
b0 <entry>:
  v0 = arg 0
  cfg {Kind:0 Slot:3 LoadKernel:1 PFKernel:-1 EWMAGroup:-1 Interval:false TimedStart:false TimedEnd:true GReg:0} args=[0 0]
  br b1
  ; an indented comment
b1 <exit>:  ; preds: b0
  cfg {Kind:1 GReg:2} args=[0]
  ret _
}
`)
	want := &Fn{Name: "cfg", NArgs: 1, Instrs: []Instr{
		{Op: Arg, A: NoValue, B: NoValue},
		{Op: Cfg, A: NoValue, B: NoValue, Args: []Value{0, 0},
			Info: &CfgInfo{Kind: CfgBounds, Slot: 3, LoadKernel: 1, PFKernel: NoKernelID, EWMAGroup: -1, TimedEnd: true}},
		{Op: Br, A: NoValue, B: NoValue, Blocks: [2]BlockID{1, -1}},
		{Op: Cfg, A: NoValue, B: NoValue, Args: []Value{0}, Info: &CfgInfo{Kind: CfgGlobal, GReg: 2}},
		{Op: Ret, A: NoValue, B: NoValue, Blocks: [2]BlockID{-1, -1}},
	}, Blocks: []*Block{
		{ID: 0, Name: "entry", Instrs: []Value{0, 1, 2}},
		{ID: 1, Name: "exit", Instrs: []Value{3, 4}, Preds: []BlockID{0}},
	}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed\n%s\nwant\n%s", got, want)
	}
}
