package ir

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"eventpf/internal/cpu"
	"eventpf/internal/mem"
)

// buildSumLoop builds: for (i = 0; i < n; i++) acc += arr[i]; return acc.
// Args: 0 = arr base, 1 = n.
func buildSumLoop(t testing.TB) *Fn {
	t.Helper()
	b := NewBuilder("sum", 2)
	entry := b.NewBlock("entry")
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")

	b.SetBlock(entry)
	base := b.Arg(0)
	n := b.Arg(1)
	zero := b.Const(0)
	b.Br(head)

	b.SetBlock(head)
	i := b.Phi()
	acc := b.Phi()
	cond := b.Bin(CmpLTU, i, n)
	b.CondBr(cond, body, exit)

	b.SetBlock(body)
	eight := b.Const(8)
	off := b.Mul(i, eight)
	addr := b.Add(base, off)
	v := b.Load(addr, "arr")
	acc2 := b.Add(acc, v)
	one := b.Const(1)
	i2 := b.Add(i, one)
	b.Br(head)

	b.SetBlock(exit)
	b.Ret(acc)

	b.SetPhiArgs(i, zero, i2)
	b.SetPhiArgs(acc, zero, acc2)

	fn, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
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
	fn := buildSumLoop(t)
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
	fn := buildSumLoop(t)
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

func TestVerifierCatchesMissingTerminator(t *testing.T) {
	b := NewBuilder("bad", 0)
	blk := b.NewBlock("entry")
	b.SetBlock(blk)
	b.Const(1)
	if _, err := b.Finish(); err == nil {
		t.Error("missing terminator not caught")
	}
}

func TestVerifierCatchesPhiArity(t *testing.T) {
	b := NewBuilder("bad", 0)
	e := b.NewBlock("entry")
	l := b.NewBlock("loop")
	b.SetBlock(e)
	c := b.Const(1)
	b.Br(l)
	b.SetBlock(l)
	p := b.Phi()
	b.SetPhiArgs(p, c, c, c) // loop has preds {entry, loop} = 2, not 3
	b.Br(l)
	if _, err := b.Finish(); err == nil {
		t.Error("phi arity mismatch not caught")
	}
}

func TestVerifierCatchesUseBeforeDef(t *testing.T) {
	b := NewBuilder("bad", 0)
	e := b.NewBlock("entry")
	o := b.NewBlock("other")
	b.SetBlock(e)
	b.Br(o)
	b.SetBlock(o)
	// Manually force a use of a value defined later in the same block.
	x := b.Const(5)
	y := b.Add(x, x)
	b.fn.Block(o).Instrs[0], b.fn.Block(o).Instrs[1] = b.fn.Block(o).Instrs[1], b.fn.Block(o).Instrs[0]
	_ = y
	b.Ret(NoValue)
	if _, err := b.Finish(); err == nil {
		t.Error("use-before-def not caught")
	}
}

func TestDominators(t *testing.T) {
	fn := buildSumLoop(t)
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
	fn := buildSumLoop(t)
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
	fn := buildSumLoop(t)
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
	fn := buildSumLoop(t)
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
	b := NewBuilder("cfg", 1)
	e := b.NewBlock("entry")
	b.SetBlock(e)
	lo := b.Arg(0)
	hi := b.Add(lo, b.Const(800))
	b.Cfg(CfgInfo{Kind: CfgBounds, Slot: 2, LoadKernel: 5, PFKernel: -1, EWMAGroup: -1}, lo, hi)
	b.Ret(NoValue)
	fn := b.MustFinish()

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
	b := NewBuilder("inf", 0)
	e := b.NewBlock("entry")
	l := b.NewBlock("loop")
	b.SetBlock(e)
	b.Br(l)
	b.SetBlock(l)
	c := b.Const(1)
	b.CondBr(c, l, l)
	fn := b.MustFinish()
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
	fn := buildSumLoop(t)
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
		b := NewBuilder("expr", 0)
		e := b.NewBlock("entry")
		b.SetBlock(e)

		var vals []Value
		var model []uint64
		for i := 0; i < 4; i++ {
			c := int64(rng.Uint32())
			vals = append(vals, b.Const(c))
			model = append(model, uint64(c))
		}
		for i := 0; i < 30; i++ {
			op := binOps[rng.Intn(len(binOps))]
			x := rng.Intn(len(vals))
			y := rng.Intn(len(vals))
			vals = append(vals, b.Bin(op, vals[x], vals[y]))
			model = append(model, evalBin(op, model[x], model[y]))
		}
		last := vals[len(vals)-1]
		b.Ret(last)
		fn := b.MustFinish()
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
	fn := buildSumLoop(t)
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
	fn := buildSumLoop(t)
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
