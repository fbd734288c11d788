package system

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"eventpf/internal/cpu"
)

// resultGauges names the numeric Result fields that Add does not sum: they
// describe the end of a run, so the later lane's value wins. Sampled and
// TimeParallel describe a whole run and are attached by RunPlan, not Add.
var resultGauges = map[string]bool{
	"Scheme":                    true,
	"Activity":                  true,
	"Lookaheads":                true,
	"Adaptive.MissPerMille":     true,
	"Adaptive.AccuracyPerMille": true,
	"Adaptive.ChainLatTicks":    true,
	"Sampled":                   true,
	"TimeParallel":              true,
}

// fillOnes sets every numeric leaf under v to 1, allocating pointers and
// giving slices one element.
func fillOnes(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
		fillOnes(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		fillOnes(v.Index(0))
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillOnes(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillOnes(v.Field(i))
		}
	}
}

// checkSums walks v and reports every numeric leaf that is neither 2 (summed)
// nor under a path named in resultGauges.
func checkSums(t *testing.T, path string, v reflect.Value) {
	if resultGauges[path] {
		return
	}
	var got float64
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		got = float64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		got = float64(v.Uint())
	case reflect.Float32, reflect.Float64:
		got = v.Float()
	case reflect.Ptr:
		checkSums(t, path, v.Elem())
		return
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			checkSums(t, path, v.Index(i))
		}
		return
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			checkSums(t, strings.TrimPrefix(path+"."+v.Type().Field(i).Name, "."), v.Field(i))
		}
		return
	default:
		return
	}
	if got != 2 {
		t.Errorf("Result.%s = %v after Add, want 2: sum it in the owning Add method or name it in resultGauges", path, got)
	}
}

// TestResultAddCoversEveryField keeps the explicit stitch honest: a numeric
// field added to Result or any statistics struct inside it must be summed by
// Add or declared a gauge here.
func TestResultAddCoversEveryField(t *testing.T) {
	var a, b Result
	fillOnes(reflect.ValueOf(&a).Elem())
	fillOnes(reflect.ValueOf(&b).Elem())
	a.Add(b)
	checkSums(t, "", reflect.ValueOf(a))

	if a.Adaptive == b.Adaptive || &a.Adaptive.ArmIntervals[0] == &b.Adaptive.ArmIntervals[0] {
		t.Error("Add aliased the argument's adaptive statistics")
	}
}

// TestRunPlanUnforkableStreamRunsSerially slices a run whose stream cannot
// be forked (a bare interpreter is not a ForkableStream): the driver must
// fall back to the exact serial engine on the same machine, record the
// fork error as the reason, and change nothing else.
func TestRunPlanUnforkableStreamRunsSerially(t *testing.T) {
	run := func(p Plan) (Result, *Machine, *Machine) {
		m := New(DefaultConfig(), NoPF)
		aB, bB, cB, _ := setupData(m)
		res, fm, err := m.RunPlan(m.NewInterp(buildIndirectSum(t, false), aB, bB, cB, testN), p)
		if err != nil {
			t.Fatal(err)
		}
		return res, m, fm
	}
	plain, _, _ := run(Plan{})
	if plain.Fallback != "" {
		t.Errorf("serial plan recorded a fallback: %q", plain.Fallback)
	}
	res, m, fm := run(Plan{Slices: 2})
	if fm != m {
		t.Error("fallback did not run on the original machine")
	}
	if !strings.Contains(res.Fallback, "does not support forking") {
		t.Errorf("Fallback = %q, want the fork error", res.Fallback)
	}
	res.Fallback = ""
	if !reflect.DeepEqual(res, plain) {
		t.Errorf("fallback result differs from a plain run:\n got %+v\nwant %+v", res, plain)
	}
}

func TestRunPlanRejectsInvalidSampleConfig(t *testing.T) {
	m := New(DefaultConfig(), NoPF)
	aB, bB, cB, _ := setupData(m)
	_, _, err := m.RunPlan(m.NewInterp(buildIndirectSum(t, false), aB, bB, cB, testN),
		Plan{Sample: &SampleConfig{WarmupOps: 10, MeasureOps: 0, FFOps: 10}})
	if err == nil || !strings.Contains(err.Error(), "invalid sample config") {
		t.Errorf("err = %v, want an invalid-sample-config error", err)
	}
}

// TestPhaseStreamNextAndFillAgree: a lane's window over a stream yields the
// same micro-ops, with the same renumbered dependences, whether it is pulled
// by value or filled in place — with a skip, with sampling gaps, and for the
// final lane of a sliced run. The slot is poisoned before every Fill, and is
// the one the swallowed ops were warmed in.
func TestPhaseStreamNextAndFillAgree(t *testing.T) {
	type key struct {
		kind  cpu.OpKind
		pc    int
		addr  uint64
		deps  [2]int64
		taken bool
		hasDo bool
	}
	for _, l := range []lane{{skip: 1000, detail: 700}, {detail: 300, gap: 500}, {skip: 2500, detail: -1}} {
		drain := func(fill bool) (ops []key, warmed int64) {
			m := New(DefaultConfig(), NoPF)
			aB, bB, cB, _ := setupData(m)
			s := &phaseStream{inner: m.NewInterp(buildIndirectSum(t, false), aB, bB, cB, testN), lane: l, left: l.skip}
			s.init(m)
			var op cpu.MicroOp
			for {
				ok := false
				if fill {
					op = cpu.MicroOp{Kind: cpu.OpBranch, PC: -7, Addr: ^uint64(0), Deps: [2]int64{1 << 40, 1 << 41}, Taken: true, Do: func() {}}
					ok = s.Fill(&op)
				} else {
					op, ok = s.Next()
				}
				if !ok {
					return ops, s.pulled - s.outOps
				}
				ops = append(ops, key{op.Kind, op.PC, op.Addr, op.Deps, op.Taken, op.Do != nil})
			}
		}
		want, wantWarm := drain(false)
		got, gotWarm := drain(true)
		if len(want) == 0 || wantWarm == 0 {
			t.Fatalf("lane %+v: %d ops delivered, %d warmed: the lane exercises nothing", l, len(want), wantWarm)
		}
		if !slices.Equal(got, want) || gotWarm != wantWarm {
			t.Errorf("lane %+v: Fill delivered %d ops and warmed %d, Next %d and %d (or the ops differ)", l, len(got), gotWarm, len(want), wantWarm)
		}
	}
}
