package harness

import (
	"bytes"
	"fmt"
	"testing"
)

// TestReleasedMemoryCrossesBenchmarks runs the matrix's golden cells on two
// goroutines, each in an order where no pair follows one of its own
// benchmark, so every run after a lane's first builds its machine from pages,
// cache line arrays and L2-TLB arrays that a different benchmark's run
// released (system.Machine.Release). Every result must still be its
// committed golden bytes. Under -race the lanes also check pages moving
// between goroutines.
func TestReleasedMemoryCrossesBenchmarks(t *testing.T) {
	goldens, err := goldenPin.read()
	if err != nil {
		t.Fatal(err)
	}
	order := alternateBenches(cellsWith(golden))
	half := (len(order) + 1) / 2
	for i, lane := range [][]cell{order[:half], order[half:]} {
		t.Run(fmt.Sprintf("lane%d", i), func(t *testing.T) {
			t.Parallel()
			for j, gp := range lane {
				if j > 0 && gp.bench == lane[j-1].bench {
					t.Fatalf("%s/%s follows a run of its own benchmark", gp.bench, gp.scheme)
				}
				if !bytes.Equal(again(t, gp.key(goldenScale, plain)), goldens[gp.name()]) {
					t.Errorf("%s after a %s run: result bytes differ from the golden", gp.name(), lane[max(j-1, 0)].bench)
				}
			}
		})
	}
}

// TestRecycledMachineRunsLikeFresh runs the matrix's golden cells, and two
// adaptive runs no golden pins, in one order and then in reverse, one after
// another on one goroutine, so each run builds its machine from the tables the
// run before it released (system.Machine.Release): RandAcc's 4 097-page map,
// the adaptive unit's arms, a manual-blocked prefetcher's grown pending table
// and its suspended invocations, every cache's MSHR file and rings. A recycled
// table must behave exactly as a fresh one: every encoded Result matches the
// other order's byte for byte, and its golden where it has one.
func TestRecycledMachineRunsLikeFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every golden pair twice")
	}
	goldens, err := goldenPin.read()
	if err != nil {
		t.Fatal(err)
	}
	pairs := append([]cell{{bench: "PhaseMix", scheme: Adaptive}}, cellsWith(golden)...)
	pairs = append(pairs, cell{bench: "HJ-8", scheme: Adaptive})
	run := func(gp cell) []byte { return again(t, gp.key(goldenScale, plain)) }
	forward := make([][]byte, len(pairs))
	for i, gp := range pairs {
		forward[i] = run(gp)
	}
	for i := len(pairs) - 1; i >= 0; i-- {
		gp := pairs[i]
		got := run(gp)
		if !bytes.Equal(got, forward[i]) {
			t.Errorf("%s under %s differs after running behind %v instead of %v",
				gp.bench, gp.scheme, pairs[min(i+1, len(pairs)-1)], pairs[max(i-1, 0)])
		}
		if want, ok := goldens[gp.name()]; ok && !bytes.Equal(got, want) {
			t.Errorf("%s under %s: result bytes differ from the golden", gp.bench, gp.scheme)
		}
	}
}

// alternateBenches orders pairs so that no two neighbours share a benchmark
// where that can be done, each time taking the next pair of the benchmark
// with the most pairs left other than the one just taken.
func alternateBenches(pairs []cell) []cell {
	left := map[string][]cell{}
	var benches []string // first-seen order, so the result is deterministic
	for _, p := range pairs {
		if left[p.bench] == nil {
			benches = append(benches, p.bench)
		}
		left[p.bench] = append(left[p.bench], p)
	}
	out := make([]cell, 0, len(pairs))
	prev := ""
	for len(out) < len(pairs) {
		next := prev // if only prev's pairs are left
		for _, b := range benches {
			if b != prev && len(left[b]) > 0 && (next == prev || len(left[b]) > len(left[next])) {
				next = b
			}
		}
		out = append(out, left[next][0])
		left[next] = left[next][1:]
		prev = next
	}
	return out
}
