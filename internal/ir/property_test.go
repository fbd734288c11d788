package ir

import (
	"math/rand"
	"testing"
	"testing/quick"

	"eventpf/internal/cpu"
	"eventpf/internal/mem"
)

// randomCFGFn builds a random (but well-formed) function: a chain of blocks
// with random forward conditional branches and a random expression per
// block, always ending in a return. Used to cross-check the dominator
// computation against a brute-force definition.
func randomCFGFn(rng *rand.Rand) *Fn {
	b := NewBuilder("rand", 1)
	nBlocks := rng.Intn(6) + 3
	blocks := make([]BlockID, nBlocks)
	for i := range blocks {
		blocks[i] = b.NewBlock("")
	}
	b.SetBlock(blocks[0])
	x := b.Arg(0)
	for i := 0; i < nBlocks-1; i++ {
		b.SetBlock(blocks[i])
		v := b.Add(x, b.Const(int64(i)))
		if rng.Intn(2) == 0 && i+2 < nBlocks {
			t1 := blocks[i+1]
			t2 := blocks[i+2+rng.Intn(nBlocks-i-2)]
			b.CondBr(v, t1, t2)
		} else {
			b.Br(blocks[i+1])
		}
	}
	b.SetBlock(blocks[nBlocks-1])
	b.Ret(NoValue)
	return b.fn
}

// bruteDominates: a dominates b iff removing a from the CFG makes b
// unreachable from entry.
func bruteDominates(f *Fn, a, b BlockID) bool {
	if a == b {
		return true
	}
	seen := map[BlockID]bool{a: true} // block a is "removed"
	var dfs func(BlockID) bool
	dfs = func(id BlockID) bool {
		if id == b {
			return true
		}
		if seen[id] {
			return false
		}
		seen[id] = true
		for _, s := range f.Succs(f.Block(id)) {
			if dfs(s) {
				return true
			}
		}
		return false
	}
	return !dfs(f.Entry)
}

func TestDominatorsMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fn := randomCFGFn(rng)
		idom := fn.Dominators()
		// Reachability for filtering.
		reach := map[BlockID]bool{}
		var mark func(BlockID)
		mark = func(id BlockID) {
			if reach[id] {
				return
			}
			reach[id] = true
			for _, s := range fn.Succs(fn.Block(id)) {
				mark(s)
			}
		}
		mark(fn.Entry)
		for _, a := range fn.Blocks {
			for _, b := range fn.Blocks {
				if !reach[a.ID] || !reach[b.ID] {
					continue
				}
				if Dominates(idom, a.ID, b.ID) != bruteDominates(fn, a.ID, b.ID) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: dead-code elimination never changes the function's observable
// behaviour (return value and stores).
func TestDCEPreservesBehaviour(t *testing.T) {
	f := func(seed int64) bool {
		build := func() *Fn {
			b := NewBuilder("p", 2)
			entry := b.NewBlock("entry")
			b.SetBlock(entry)
			base := b.Arg(0)
			n := b.Arg(1)
			vals := []Value{base, n}
			rng2 := rand.New(rand.NewSource(seed))
			for i := 0; i < 20; i++ {
				op := []Op{Add, Sub, Mul, Xor, And, Or}[rng2.Intn(6)]
				x := vals[rng2.Intn(len(vals))]
				y := vals[rng2.Intn(len(vals))]
				vals = append(vals, b.Bin(op, x, y))
			}
			// A store of one random value (observable), the rest dead.
			addr := b.Add(base, b.Const(int64(rng2.Intn(8))*8))
			b.Store(addr, vals[len(vals)-1], "out")
			b.Ret(vals[rng2.Intn(len(vals))])
			return b.MustFinish()
		}

		run := func(fn *Fn) (uint64, uint64) {
			bk := mem.NewBacking()
			arena := mem.NewArena(bk)
			r := arena.AllocWords("out", 16)
			it := NewInterp(fn, bk, nil, new(int64), r.Base, 7)
			for {
				if _, ok := it.Next(); !ok {
					break
				}
			}
			ret, _ := it.Result()
			var sum uint64
			for i := uint64(0); i < 16; i++ {
				sum += bk.Read64(r.Base + i*8)
			}
			return ret, sum
		}

		plain := build()
		pruned := build()
		removed := pruned.DeadCodeElim()
		if err := pruned.Verify(); err != nil {
			return false
		}
		r1, s1 := run(plain)
		r2, s2 := run(pruned)
		_ = removed
		return r1 == r2 && s1 == s2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: DCE is idempotent.
func TestDCEIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fn := randomCFGFn(rng)
		fn.DeadCodeElim()
		return fn.DeadCodeElim() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Two interpreters handed one counter number their ops in one sequence: that
// is what lets the harness run a benchmark's invocations back to back on one
// core.
func TestInterpsShareCounter(t *testing.T) {
	bk := mem.NewBacking()
	arena := mem.NewArena(bk)
	arr := arena.AllocWords("a", 64)
	for i := uint64(0); i < 8; i++ {
		bk.Write64(arr.Base+i*8, i)
	}
	mk := func() *Fn {
		b := NewBuilder("s", 1)
		e := b.NewBlock("entry")
		b.SetBlock(e)
		v := b.Load(b.Arg(0), "a")
		b.Ret(v)
		return b.MustFinish()
	}
	counter := new(int64)
	i1 := NewInterp(mk(), bk, nil, counter, arr.Base)
	i2 := NewInterp(mk(), bk, nil, counter, arr.Base+8)
	n := 0
	for _, it := range []*Interp{i1, i2} {
		var op cpu.MicroOp
		for it.Fill(&op) {
			if op.Kind != cpu.OpLoad || op.Deps[0] != cpu.NoDep {
				t.Errorf("op %d = %+v, want an independent load", n, op)
			}
			n++
		}
	}
	if n != 2 {
		t.Errorf("the two interpreters produced %d ops, want 2", n)
	}
	if v, _ := i2.Result(); v != 1 {
		t.Errorf("second interp result = %d, want 1", v)
	}
	if *counter != 2 {
		t.Errorf("shared counter = %d, want 2 (ids must be global)", *counter)
	}
}
