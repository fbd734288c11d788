package workloads

import (
	"strings"
	"testing"

	"eventpf/internal/ir"
	"eventpf/internal/system"
)

const tinyScale = 0.01

func buildAll(t *testing.T, b *Benchmark) (*system.Machine, *Instance) {
	t.Helper()
	m := system.New(system.DefaultConfig(), system.NoPF)
	return m, b.Build(m, tinyScale)
}

func TestEveryBenchmarkBuildsAllVariants(t *testing.T) {
	for _, b := range All {
		m, inst := buildAll(t, b)
		_ = m
		for _, v := range []Variant{Plain, SWPf, Pragma} {
			fn := inst.BuildFn(v)
			if fn == nil {
				if b.Name == "PageRank" && v == SWPf {
					continue
				}
				t.Errorf("%s: variant %s missing", b.Name, v)
				continue
			}
			if err := fn.Verify(); err != nil {
				t.Errorf("%s/%s: invalid IR: %v", b.Name, v, err)
			}
		}
		if len(inst.Runs) == 0 {
			t.Errorf("%s: no runs", b.Name)
		}
	}
}

func TestVariantsDifferAsDocumented(t *testing.T) {
	count := func(fn *ir.Fn, op ir.Op) int {
		n := 0
		for _, blk := range fn.Blocks {
			for _, v := range blk.Instrs {
				if fn.Instr(v).Op == op {
					n++
				}
			}
		}
		return n
	}
	for _, b := range All {
		_, inst := buildAll(t, b)
		plain := inst.BuildFn(Plain)
		if n := count(plain, ir.SWPf); n != 0 {
			t.Errorf("%s: plain variant has %d software prefetches", b.Name, n)
		}
		if sw := inst.BuildFn(SWPf); sw != nil {
			if n := count(sw, ir.SWPf); n == 0 {
				t.Errorf("%s: swpf variant has no software prefetch", b.Name)
			}
		}
		pr := inst.BuildFn(Pragma)
		marked := false
		for _, blk := range pr.Blocks {
			if blk.Pragma {
				marked = true
			}
		}
		if !marked {
			t.Errorf("%s: pragma variant has no marked loop", b.Name)
		}
	}
}

func TestPlainRunMatchesOracle(t *testing.T) {
	for _, b := range All {
		m, inst := buildAll(t, b)
		fn := inst.BuildFn(Plain)
		counter := m.Counter
		_ = counter
		var last *ir.Interp
		for _, run := range inst.Runs {
			if run.Before != nil {
				run.Before(m)
			}
			it := m.NewInterp(fn, run.Args...)
			last = it
			m.Core = nil // ensure we do not accidentally use the core here
			// functional-only execution:
			for {
				if _, ok := it.Next(); !ok {
					break
				}
			}
		}
		ret, hasRet := last.Result()
		if err := inst.Check(m, ret, hasRet); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

func TestRMATGeneratorProperties(t *testing.T) {
	rng := splitmix64(1)
	flat := rmat(&rng, 8, 10, nil)
	if len(flat) == 0 {
		t.Fatal("no edges")
	}
	if len(flat)%2 != 0 {
		t.Error("an edge lacks its second endpoint")
	}
	nv := uint64(1) << 8
	deg := map[uint64]int{}
	for i := 0; i < len(flat); i += 2 {
		e := [2]uint64{flat[i], flat[i+1]}
		if e[0] >= nv || e[1] >= nv {
			t.Fatalf("edge %v out of range", e)
		}
		if e[0] == e[1] {
			t.Error("self loop survived")
		}
		deg[e[0]]++
		deg[e[1]]++
	}
	// R-MAT skew: the maximum degree is far above the average.
	maxDeg := 0
	for _, d := range deg {
		if d > maxDeg {
			maxDeg = d
		}
	}
	avg := len(flat) / len(deg)
	if maxDeg < 3*avg {
		t.Errorf("degree distribution not skewed: max %d avg %d", maxDeg, avg)
	}
}

func TestBFSOracleOnKnownGraph(t *testing.T) {
	// 0-1, 0-2, 2-3; vertex 4 isolated.
	rowptr := []uint64{0, 2, 3, 5, 6, 6}
	adj := []uint64{1, 2, 0, 0, 3, 2}
	parent := make([]uint64, 5)
	visited := bfsOracle(rowptr, adj, 0, parent, make([]uint64, 5))
	if visited != 4 {
		t.Errorf("visited = %d, want 4", visited)
	}
	if parent[4] != g500Empty {
		t.Error("isolated vertex got a parent")
	}
	if parent[0] != 0 || parent[1] != 0 || parent[2] != 0 || parent[3] != 2 {
		t.Errorf("parents = %v", parent[:4])
	}
}

func TestSplitmixPermIsPermutation(t *testing.T) {
	rng := splitmix64(7)
	p := rng.perm(make([]uint64, 1000))
	seen := make([]bool, 1000)
	for _, v := range p {
		if v >= 1000 || seen[v] {
			t.Fatalf("not a permutation at %d", v)
		}
		seen[v] = true
	}
}

func TestLCGStepMatchesHPCCDefinition(t *testing.T) {
	// Top bit set → shift and XOR with POLY; clear → plain shift.
	if got := lcgStep(1 << 63); got != randaccPoly {
		t.Errorf("lcgStep(msb) = %#x, want POLY", got)
	}
	if got := lcgStep(3); got != 6 {
		t.Errorf("lcgStep(3) = %d, want 6", got)
	}
}

func TestByName(t *testing.T) {
	for _, b := range All {
		got, err := ByName(b.Name)
		if err != nil || got != b {
			t.Errorf("ByName(%s) failed: %v", b.Name, err)
		}
	}
	_, err := ByName("nope")
	if err == nil {
		t.Fatal("ByName(nope) succeeded")
	}
	// The error must list every valid (folded) name so callers can surface
	// the whole menu (e.g. the job server's 400 response).
	for _, b := range All {
		if !strings.Contains(err.Error(), fold(b.Name)) {
			t.Errorf("ByName error %q does not mention %q", err, fold(b.Name))
		}
	}
}

func TestScaledFloor(t *testing.T) {
	if scaled(1000, 0.0001) != 16 {
		t.Errorf("scaled floor = %d, want 16", scaled(1000, 0.0001))
	}
	if scaled(1000, 0.5) != 500 {
		t.Errorf("scaled(1000,0.5) = %d", scaled(1000, 0.5))
	}
}

// TestScratchComesBackZeroed: a buffer borrowed again after release reads
// all zero, however its last borrower left it, and a wordTable finds every
// key it holds when probes wrap past the end of its slots.
func TestScratchComesBackZeroed(t *testing.T) {
	sc := new(scratch)
	w := sc.words(100)
	for i := range w {
		w[i] = ^uint64(i)
	}
	sc.off, sc.need = 0, 0 // what release leaves for the next borrower
	again := sc.words(100)
	if &again[0] != &w[0] {
		t.Fatal("the buffer was not reused")
	}
	for i, v := range again {
		if v != 0 {
			t.Fatalf("word %d of a re-borrowed buffer = %#x", i, v)
		}
	}

	tbl := newWordMap(sc, 8) // 16 slots
	// Keys whose hash is the last slot: each probe wraps to the start.
	var keys []uint64
	for k := uint64(1); len(keys) < 8; k++ {
		if (k*hashMul)>>tbl.shift == 15 {
			keys = append(keys, k)
		}
	}
	for i, k := range keys {
		slot, found := tbl.insert(k)
		if found {
			t.Fatalf("key %d found before it was inserted", k)
		}
		tbl.vals[slot] = uint64(i)
	}
	for i, k := range keys {
		if slot, found := tbl.insert(k); !found || tbl.vals[slot] != uint64(i) {
			t.Errorf("key %d: found %v, value %d, want %d", k, found, tbl.vals[slot], i)
		}
	}
}
