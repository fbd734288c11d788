package ir_test

import (
	"slices"
	"testing"

	"eventpf/internal/compiler"
	"eventpf/internal/cpu"
	"eventpf/internal/ir"
	"eventpf/internal/mem"
	"eventpf/internal/system"
	"eventpf/internal/workloads"
)

// builds are the four forms a benchmark kernel is interpreted in: the plain
// and software-prefetch builds, the latter converted to event kernels, and
// the pragma build after its pass (which adds configuration ops).
var builds = []struct {
	name    string
	variant workloads.Variant
	pass    func(*ir.Fn, *compiler.Alloc) (*compiler.Result, error)
}{
	{"plain", workloads.Plain, nil},
	{"software", workloads.SWPf, nil},
	{"converted", workloads.SWPf, compiler.ConvertSoftwarePrefetches},
	{"pragma", workloads.Pragma, compiler.GeneratePragmaEvents},
}

// TestInterpMatchesReference runs every benchmark in every build twice, on
// the decoded interpreter and on the reference one (the switch over Instrs
// it replaced), each on its own machine: the two must pull the same
// micro-ops, return the same value and leave the same memory. In each first
// run, both are also cloned twice onto copies of their memory — after a
// load, in the middle of a block, and after a branch whose edge wrote the
// target's phis — and the clones must finish the run identically too.
func TestInterpMatchesReference(t *testing.T) {
	var midBlocks, phiEdges int
	for _, b := range slices.Concat(workloads.All, workloads.Extra) {
		for _, bd := range builds {
			t.Run(b.Name+"/"+bd.name, func(t *testing.T) {
				const scale = 0.01
				refM := system.New(system.DefaultConfig(), system.NoPF)
				newM := system.New(system.DefaultConfig(), system.NoPF)
				refInst, newInst := b.Build(refM, scale), b.Build(newM, scale)
				fn := refInst.BuildFn(bd.variant)
				if fn == nil {
					t.Skipf("%s has no %s build", b.Name, bd.name)
				}
				if bd.pass != nil {
					if _, err := bd.pass(fn, compiler.NewAlloc()); err != nil {
						t.Skipf("%s pass: %v", bd.name, err)
					}
				}
				for i, run := range refInst.Runs {
					if run.Before != nil {
						run.Before(refM)
						newInst.Runs[i].Before(newM)
					}
					ref := ir.NewRefInterp(fn, refM.Backing, nil, refM.Counter, run.Args...)
					it := ir.NewInterp(fn, newM.Backing, nil, newM.Counter, newInst.Runs[i].Args...)
					var at func(int, *cpu.MicroOp)
					if i == 0 {
						midBlock, phiEdge := false, false
						at = func(n int, op *cpu.MicroOp) {
							switch {
							case n < 1000:
								return
							case !midBlock && op.Kind == cpu.OpLoad:
								midBlock = true
								midBlocks++
							case !phiEdge && op.Kind == cpu.OpBranch && landsOnPhis(fn, op):
								phiEdge = true
								phiEdges++
							default:
								return
							}
							refBk, newBk := mem.NewBacking(), mem.NewBacking()
							refBk.CopyFrom(refM.Backing)
							newBk.CopyFrom(newM.Backing)
							refN, newN := *refM.Counter, *newM.Counter
							lockstep(t, ref.Clone(refBk, nil, &refN), it.Clone(newBk, nil, &newN), nil)
							sameMemory(t, refM.Arena.Regions(), refBk, newBk)
						}
					}
					lockstep(t, ref, it, at)
				}
				sameMemory(t, refM.Arena.Regions(), refM.Backing, newM.Backing)
			})
		}
	}
	t.Logf("cloned mid-block %d times, after a phi edge %d times", midBlocks, phiEdges)
	if midBlocks == 0 || phiEdges == 0 {
		t.Error("a clone point was never reached")
	}
}

// landsOnPhis reports whether branch op took an edge into a block that
// opens with phis.
func landsOnPhis(fn *ir.Fn, op *cpu.MicroOp) bool {
	br := fn.Instr(ir.Value(op.PC))
	to := br.Blocks[1]
	if op.Taken {
		to = br.Blocks[0]
	}
	return fn.Instr(fn.Block(to).Instrs[0]).Op == ir.Phi
}

// lockstep pulls ops from ref and it together to the end of the run,
// failing on the first difference, then compares their return values. at,
// if non-nil, sees each op once it has been compared.
func lockstep(t *testing.T, ref *ir.RefInterp, it *ir.Interp, at func(n int, op *cpu.MicroOp)) {
	t.Helper()
	var want, got cpu.MicroOp
	for n := 0; ; n++ {
		wantOK, gotOK := ref.Fill(&want), it.Fill(&got)
		if wantOK != gotOK {
			t.Fatalf("op %d: decoded interpreter ok=%v, reference ok=%v", n, gotOK, wantOK)
		}
		if !gotOK {
			break
		}
		if got.Kind != want.Kind || got.PC != want.PC || got.Addr != want.Addr || got.Deps != want.Deps ||
			got.Taken != want.Taken || (got.Do == nil) != (want.Do == nil) {
			t.Fatalf("op %d: got %+v, want %+v", n, got, want)
		}
		if at != nil {
			at(n, &got)
		}
	}
	wantRet, wantHas := ref.Result()
	if gotRet, gotHas := it.Result(); gotRet != wantRet || gotHas != wantHas {
		t.Fatalf("returned %d (%v), reference %d (%v)", gotRet, gotHas, wantRet, wantHas)
	}
}

// sameMemory compares every word of every page of regions in two backing
// stores.
func sameMemory(t *testing.T, regions []mem.Region, want, got *mem.Backing) {
	t.Helper()
	for _, r := range regions {
		end := mem.PageAddr(r.End()-1) + mem.PageSize
		for a := r.Base; a < end; a += 8 {
			if w, g := want.Read64(a), got.Read64(a); w != g {
				t.Fatalf("%s word %#x = %d, reference %d", r.Name, a, g, w)
			}
		}
	}
}
