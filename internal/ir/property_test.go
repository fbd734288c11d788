package ir

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"eventpf/internal/cpu"
	"eventpf/internal/mem"
)

// randomCFGFn writes and parses a random (but well-formed) function: a
// chain of blocks with random forward conditional branches and a random
// expression per block, always ending in a return. Used to cross-check the
// dominator computation against a brute-force definition.
func randomCFGFn(t testing.TB, rng *rand.Rand) *Fn {
	n := rng.Intn(6) + 3
	succs := make([][]int, n)
	preds := make([][]int, n)
	for i := 0; i < n-1; i++ {
		succs[i] = []int{i + 1}
		if rng.Intn(2) == 0 && i+2 < n {
			succs[i] = append(succs[i], i+2+rng.Intn(n-i-2))
		}
		for _, s := range succs[i] {
			preds[s] = append(preds[s], i)
		}
	}
	var src strings.Builder
	src.WriteString("func rand(1 args) {\n")
	for i := range n {
		fmt.Fprintf(&src, "b%d:", i)
		if len(preds[i]) > 0 {
			src.WriteString("  ; preds:")
			for _, p := range preds[i] {
				fmt.Fprintf(&src, " b%d", p)
			}
		}
		src.WriteString("\n")
		if i == 0 {
			src.WriteString("  v0 = arg 0\n")
		}
		switch v := 2*i + 1; len(succs[i]) {
		case 0:
			src.WriteString("  ret _\n")
		case 1:
			fmt.Fprintf(&src, "  v%d = const %d\n  v%d = add v0, v%d\n  br b%d\n", v, i, v+1, v, succs[i][0])
		default:
			fmt.Fprintf(&src, "  v%d = const %d\n  v%d = add v0, v%d\n  condbr v%d, b%d, b%d\n",
				v, i, v+1, v, v+1, succs[i][0], succs[i][1])
		}
	}
	src.WriteString("}\n")
	return mustParse(t, src.String())
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
		fn := randomCFGFn(t, rng)
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
		rng := rand.New(rand.NewSource(seed))
		var src strings.Builder
		src.WriteString("func p(2 args) {\nb0 <entry>:\n  v0 = arg 0\n  v1 = arg 1\n")
		for v := 2; v < 22; v++ {
			op := []Op{Add, Sub, Mul, Xor, And, Or}[rng.Intn(6)]
			fmt.Fprintf(&src, "  v%d = %s v%d, v%d\n", v, op, rng.Intn(v), rng.Intn(v))
		}
		// A store of one random value (observable), the rest dead.
		fmt.Fprintf(&src, "  v22 = const %d\n  v23 = add v0, v22\n  store v23, v21 ; out\n", rng.Intn(8)*8)
		fmt.Fprintf(&src, "  ret v%d\n}\n", rng.Intn(22))

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

		plain := mustParse(t, src.String())
		pruned := mustParse(t, src.String())
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
		fn := randomCFGFn(t, rng)
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
		return mustParse(t, "func s(1 args) {\nb0 <entry>:\n  v0 = arg 0\n  v1 = load v0 ; a\n  ret v1\n}\n")
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
