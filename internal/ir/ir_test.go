package ir

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"eventpf/internal/cpu"
	"eventpf/internal/mem"
)

// sumLoopSrc is: for (i = 0; i < n; i++) acc += arr[i]; return acc.
// Args: 0 = arr base, 1 = n.
const sumLoopSrc = `
func sum(2 args) {
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
  v8 = const 8
  v9 = mul v4, v8
  v10 = add v0, v9
  v11 = load v10 ; arr
  v12 = add v5, v11
  v13 = const 1
  v14 = add v4, v13
  br b1
b3 <exit>:  ; preds: b1
  ret v5
}
`

// mustParse parses src, failing the test on an error.
func mustParse(t testing.TB, src string) *Fn {
	t.Helper()
	fn, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, src)
	}
	return fn
}

func drain(t testing.TB, it *Interp) []cpu.MicroOp {
	t.Helper()
	var ops []cpu.MicroOp
	for {
		op, ok := it.Next()
		if !ok {
			break
		}
		ops = append(ops, op)
	}
	return ops
}

func TestSumLoopFunctional(t *testing.T) {
	fn := mustParse(t, sumLoopSrc)
	bk := mem.NewBacking()
	arena := mem.NewArena(bk)
	arr := arena.AllocWords("arr", 100)
	var want uint64
	for i := uint64(0); i < 100; i++ {
		bk.Write64(arr.Base+i*8, i*3)
		want += i * 3
	}
	it := NewInterp(fn, bk, nil, new(int64), arr.Base, 100)
	ops := drain(t, it)
	got, ok := it.Result()
	if !ok || got != want {
		t.Errorf("sum = %d (ok=%v), want %d", got, ok, want)
	}
	loads := 0
	for _, op := range ops {
		if op.Kind == cpu.OpLoad {
			loads++
		}
	}
	if loads != 100 {
		t.Errorf("loads emitted = %d, want 100", loads)
	}
}

func TestLoadDependenceThreadsThroughAddress(t *testing.T) {
	fn := mustParse(t, sumLoopSrc)
	bk := mem.NewBacking()
	arena := mem.NewArena(bk)
	arr := arena.AllocWords("arr", 4)
	it := NewInterp(fn, bk, nil, new(int64), arr.Base, 4)
	ops := drain(t, it)
	for _, op := range ops {
		if op.Kind == cpu.OpLoad {
			if op.Deps[0] == cpu.NoDep {
				t.Fatal("load has no address dependence")
			}
		}
	}
}

func TestDominators(t *testing.T) {
	fn := mustParse(t, sumLoopSrc)
	idom := fn.Dominators()
	// entry=0 head=1 body=2 exit=3
	if idom[1] != 0 || idom[2] != 1 || idom[3] != 1 {
		t.Errorf("idom = %v, want [0/self, 0, 1, 1]", idom)
	}
	if !Dominates(idom, 0, 3) || Dominates(idom, 2, 3) {
		t.Error("Dominates relation wrong")
	}
}

func TestLoopAnalysisFindsInduction(t *testing.T) {
	fn := mustParse(t, sumLoopSrc)
	loops := fn.Loops()
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	l := loops[0]
	if l.Header != 1 || l.Latch != 2 {
		t.Errorf("loop header/latch = b%d/b%d, want b1/b2", l.Header, l.Latch)
	}
	if !l.Contains(2) || l.Contains(0) || l.Contains(3) {
		t.Errorf("loop body wrong: %v", l.Blocks)
	}
	if l.Induction == nil {
		t.Fatal("induction variable not found")
	}
	if l.Induction.Step != 1 {
		t.Errorf("induction step = %d, want 1", l.Induction.Step)
	}
}

func TestLoopInvariant(t *testing.T) {
	fn := mustParse(t, sumLoopSrc)
	l := fn.Loops()[0]
	db := fn.defBlocks()
	base := Value(0) // arg 0 in entry
	if !fn.LoopInvariant(l, base, db) {
		t.Error("arg not loop invariant")
	}
	// The load (inside the body) is not invariant.
	for _, b := range fn.Blocks {
		for _, v := range b.Instrs {
			if fn.Instr(v).Op == Load && fn.LoopInvariant(l, v, db) {
				t.Error("in-loop load reported invariant")
			}
		}
	}
}

func TestBranchMicroOpsCarryDirection(t *testing.T) {
	fn := mustParse(t, sumLoopSrc)
	bk := mem.NewBacking()
	arena := mem.NewArena(bk)
	arr := arena.AllocWords("arr", 3)
	it := NewInterp(fn, bk, nil, new(int64), arr.Base, 3)
	var taken, notTaken int
	for _, op := range drain(t, it) {
		if op.Kind == cpu.OpBranch {
			if op.Taken {
				taken++
			} else {
				notTaken++
			}
		}
	}
	if taken != 3 || notTaken != 1 {
		t.Errorf("branch directions taken=%d notTaken=%d, want 3/1", taken, notTaken)
	}
}

func TestCfgInstructionReachesSink(t *testing.T) {
	fn := mustParse(t, `
func cfg(1 args) {
b0 <entry>:
  v0 = arg 0
  v1 = const 800
  v2 = add v0, v1
  cfg {Kind:0 Slot:2 LoadKernel:5 PFKernel:-1 EWMAGroup:-1 Interval:false TimedStart:false TimedEnd:false GReg:0} args=[0 2]
  ret _
}
`)

	var got *CfgInfo
	var gotArgs []uint64
	sink := sinkFunc(func(info CfgInfo, args []uint64) { got, gotArgs = &info, args })
	it := NewInterp(fn, mem.NewBacking(), sink, new(int64), 4096)
	ops := drain(t, it)
	if len(ops) == 0 {
		t.Fatal("no micro-ops emitted")
	}
	for _, op := range ops {
		if op.Kind == cpu.OpConfig {
			op.Do()
		}
	}
	if got == nil || got.Slot != 2 || got.LoadKernel != 5 {
		t.Fatalf("sink saw %+v", got)
	}
	if len(gotArgs) != 2 || gotArgs[0] != 4096 || gotArgs[1] != 4896 {
		t.Errorf("sink args = %v", gotArgs)
	}
}

// TestCfgDoRunsBeforeNextFill pins cpu.MicroOp.Do's contract as the
// interpreter keeps it: Do, called before the next Fill as the core's
// dispatch and the warm filter call it, configures with its own op's
// operands — although every Cfg op carries the same func and the operands
// live in one slot — and a clone taken between two Cfg ops configures its
// own sink with its own operands. Pulling and applying a Cfg op allocates
// nothing.
func TestCfgDoRunsBeforeNextFill(t *testing.T) {
	type call struct{ lo, hi uint64 }
	var got []call
	record := sinkFunc(func(info CfgInfo, args []uint64) {
		if info.Slot != 1 || info.LoadKernel != 2 || len(args) != 2 {
			t.Fatalf("sink saw %+v %v", info, args)
		}
		got = append(got, call{args[0], args[1]})
	})
	const n = 6
	it := NewInterp(CfgLoop(), mem.NewBacking(), record, new(int64), n)
	var op cpu.MicroOp
	var cloneCalls []call
	for it.Fill(&op) {
		if op.Kind != cpu.OpConfig {
			continue
		}
		op.Do()
		if len(got) == n/2 {
			clone := it.Clone(nil, sinkFunc(func(_ CfgInfo, args []uint64) {
				cloneCalls = append(cloneCalls, call{args[0], args[1]})
			}), new(int64))
			var cop cpu.MicroOp
			for clone.Fill(&cop) && cop.Kind != cpu.OpConfig {
			}
			cop.Do()
		}
	}
	if len(got) != n {
		t.Fatalf("%d configurations, want %d", len(got), n)
	}
	for i, c := range got {
		if c != (call{uint64(i), uint64(i) + 64}) {
			t.Errorf("configuration %d = %v, want [%d %d]", i, c, i, i+64)
		}
	}
	if want := (call{n / 2, n/2 + 64}); len(cloneCalls) != 1 || cloneCalls[0] != want {
		t.Errorf("clone configured %v, want [%v]", cloneCalls, want)
	}

	it = NewInterp(CfgLoop(), mem.NewBacking(), NopSink{}, new(int64), 1<<20)
	step := func() {
		for it.Fill(&op) && op.Kind != cpu.OpConfig {
		}
		op.Do()
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Errorf("pulling and applying a Cfg op allocates %v objects, want 0", allocs)
	}
}

type sinkFunc func(CfgInfo, []uint64)

func (f sinkFunc) Configure(info CfgInfo, args []uint64) { f(info, args) }

func TestMaxStepsGuard(t *testing.T) {
	fn := mustParse(t, `
func inf(0 args) {
b0 <entry>:
  br b1
b1 <loop>:  ; preds: b0 b1 b1
  v1 = const 1
  condbr v1, b1, b1
}
`)
	it := NewInterp(fn, mem.NewBacking(), nil, new(int64))
	it.SetMaxSteps(1000)
	defer func() {
		if recover() == nil {
			t.Error("runaway loop not caught")
		}
	}()
	drain(t, it)
}

func TestPrinterMentionsStructure(t *testing.T) {
	fn := mustParse(t, sumLoopSrc)
	s := fn.String()
	for _, want := range []string{"func sum", "phi", "load", "condbr", "ret"} {
		if !strings.Contains(s, want) {
			t.Errorf("printer output missing %q:\n%s", want, s)
		}
	}
}

// Property: interpreting a randomly generated straight-line expression DAG
// matches direct Go evaluation.
func TestInterpMatchesDirectEval(t *testing.T) {
	binOps := []Op{Add, Sub, Mul, And, Or, Xor, Shl, Shr, CmpEQ, CmpLTU}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var src strings.Builder
		src.WriteString("func expr(0 args) {\nb0 <entry>:\n")
		var model []uint64
		for i := 0; i < 4; i++ {
			c := int64(rng.Uint32())
			fmt.Fprintf(&src, "  v%d = const %d\n", len(model), c)
			model = append(model, uint64(c))
		}
		for i := 0; i < 30; i++ {
			op := binOps[rng.Intn(len(binOps))]
			x := rng.Intn(len(model))
			y := rng.Intn(len(model))
			fmt.Fprintf(&src, "  v%d = %s v%d, v%d\n", len(model), op, x, y)
			model = append(model, evalBin(op, model[x], model[y]))
		}
		fmt.Fprintf(&src, "  ret v%d\n}\n", len(model)-1)
		fn := mustParse(t, src.String())
		it := NewInterp(fn, mem.NewBacking(), nil, new(int64))
		drain(t, it)
		got, ok := it.Result()
		return ok && got == model[len(model)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: op IDs in the emitted stream are dense and deps always refer to
// earlier ops.
func TestStreamDepOrdering(t *testing.T) {
	fn := mustParse(t, sumLoopSrc)
	bk := mem.NewBacking()
	arena := mem.NewArena(bk)
	arr := arena.AllocWords("arr", 50)
	it := NewInterp(fn, bk, nil, new(int64), arr.Base, 50)
	id := int64(0)
	for {
		op, ok := it.Next()
		if !ok {
			break
		}
		for _, d := range op.Deps {
			if d != cpu.NoDep && d >= id {
				t.Fatalf("op %d depends on future op %d", id, d)
			}
		}
		id++
	}
}

// sumLoopInterp returns an interpreter over the 100-element sum loop.
func sumLoopInterp(t testing.TB) (*Interp, *mem.Backing) {
	fn := mustParse(t, sumLoopSrc)
	bk := mem.NewBacking()
	arr := mem.NewArena(bk).AllocWords("arr", 100)
	for i := uint64(0); i < 100; i++ {
		bk.Write64(arr.Base+i*8, i*3)
	}
	return NewInterp(fn, bk, nil, new(int64), arr.Base, 100), bk
}

// sameOp compares everything of a micro-op but Do, which no sum-loop op sets.
func sameOp(a, b cpu.MicroOp) bool {
	return a.Kind == b.Kind && a.PC == b.PC && a.Addr == b.Addr && a.Deps == b.Deps && a.Taken == b.Taken
}

// TestCloneDoesNotSharePhiScratch: a clone shares the decoded program but
// not the environment its phi moves write (staging slots included). Forks
// run their clones on other goroutines, so a clone taken mid-loop must write
// only its own: run beside the original, both must produce the rest of the
// straight run's stream (and the race detector must stay quiet).
func TestCloneDoesNotSharePhiScratch(t *testing.T) {
	straight, _ := sumLoopInterp(t)
	want := drain(t, straight)

	orig, bk := sumLoopInterp(t)
	const at = 250 // mid-loop
	for i := 0; i < at; i++ {
		orig.Next()
	}
	counter := *orig.counter
	its := []*Interp{orig, orig.Clone(bk, nil, &counter)}
	got := make([][]cpu.MicroOp, len(its))
	var wg sync.WaitGroup
	for i, it := range its {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = drain(t, it)
		}()
	}
	wg.Wait()
	for i, it := range its {
		if len(got[i]) != len(want)-at {
			t.Fatalf("interpreter %d: %d ops after the clone, want %d", i, len(got[i]), len(want)-at)
		}
		for j, op := range got[i] {
			if !sameOp(op, want[at+j]) {
				t.Fatalf("interpreter %d op %d: got %+v, want %+v", i, at+j, op, want[at+j])
			}
		}
		if sum, ok := it.Result(); !ok || sum != 99*100/2*3 {
			t.Errorf("interpreter %d: sum = %d (ok=%v), want %d", i, sum, ok, 99*100/2*3)
		}
	}
}

// TestInterpLoopDoesNotAllocate: going round a loop, phi moves included,
// allocates nothing.
func TestInterpLoopDoesNotAllocate(t *testing.T) {
	it, _ := sumLoopInterp(t)
	for i := 0; i < 50; i++ {
		it.Next()
	}
	if allocs := testing.AllocsPerRun(100, func() { it.Next() }); allocs != 0 {
		t.Errorf("one interpreter step allocates %v objects, want 0", allocs)
	}
}
