package harness

import (
	"testing"

	"eventpf/internal/cpu"
	"eventpf/internal/tracein"
	"eventpf/internal/workloads"
)

// opKey is a MicroOp made comparable: the dispatch-time effect is reduced to
// whether there is one.
type opKey struct {
	Kind  cpu.OpKind
	PC    int
	Addr  uint64
	Deps  [2]int64
	Taken bool
	HasDo bool
}

func keyOf(op *cpu.MicroOp) opKey {
	return opKey{op.Kind, op.PC, op.Addr, op.Deps, op.Taken, op.Do != nil}
}

// drainNext pulls s dry through Next.
func drainNext(s cpu.Stream) []opKey {
	var ops []opKey
	for {
		op, ok := s.Next()
		if !ok {
			return ops
		}
		ops = append(ops, keyOf(&op))
	}
}

// drainFill pulls s dry through Fill, always into the same slot and with
// every field of it poisoned first: a field Fill leaves alone shows up as a
// difference from Next.
func drainFill(s cpu.Filler) []opKey {
	var ops []opKey
	var op cpu.MicroOp
	for {
		op = cpu.MicroOp{Kind: cpu.OpBranch, PC: -7, Addr: ^uint64(0), Deps: [2]int64{1 << 40, 1 << 41}, Taken: true, Do: func() {}}
		if !s.Fill(&op) {
			return ops
		}
		ops = append(ops, keyOf(&op))
	}
}

// TestNextAndFillAgree: the by-value and in-place forms of every stream the
// harness feeds a core yield the same micro-ops — a bare interpreter, a run
// sequence with Before hooks (Graph500's per-root reset) and configuration
// ops (converted HJ-2), and a sequence over a trace replayer.
func TestNextAndFillAgree(t *testing.T) {
	path := captureTrace(t, workloads.RandAcc, traceHashScale)
	for _, tc := range []struct {
		name   string
		bench  *workloads.Benchmark
		scheme Scheme
	}{
		{"G500-CSR/no-pf", workloads.G500CSR, NoPF},
		{"HJ-2/converted", workloads.HJ2, Converted},
		{"RandAcc-replay/stride", tracein.Bench(path), Stride},
	} {
		fresh := func() *seq {
			rs, err := prepare(tc.bench, tc.scheme, Options{Scale: traceHashScale})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return rs.stream
		}
		// The sequence, then its first member on its own (an *ir.Interp or a
		// *tracein.Replayer).
		member := func() cpu.Filler { return cpu.AsFiller(fresh().runs[0].st) }
		for what, pair := range map[string][2]cpu.Filler{"sequence": {fresh(), fresh()}, "first member": {member(), member()}} {
			want, got := drainNext(pair[0]), drainFill(pair[1])
			if len(want) == 0 {
				t.Errorf("%s %s: no ops", tc.name, what)
			}
			if len(got) != len(want) {
				t.Errorf("%s %s: Fill yielded %d ops, Next %d", tc.name, what, len(got), len(want))
			}
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Errorf("%s %s: op %d by Fill = %+v, by Next %+v", tc.name, what, i, got[i], want[i])
					break
				}
			}
		}
	}
}
