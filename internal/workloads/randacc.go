package workloads

import (
	"eventpf/internal/ir"
	"eventpf/internal/ppu"
	"eventpf/internal/prefetch"
	"eventpf/internal/system"
)

// RandAcc is the HPCC RandomAccess (GUPS) kernel: 128 independent
// pseudo-random streams XOR-update a table far larger than the caches
// (Table 2: stride-hash-indirect). The per-stream LCG state lives in a
// small resident array, which is exactly the structure the prefetch events
// hook: observing a stream's state is enough to compute its next update
// address.
var RandAcc = &Benchmark{
	Name:    "RandAcc",
	Source:  "HPCC",
	Pattern: "Stride-hash-indirect",
	Input:   "100000000",
	Build:   buildRandAcc,
}

const (
	randaccTableLg = 21 // 2 M words = 16 MiB
	randaccRounds  = 2048
	randaccStreams = 128
	randaccPoly    = 7
)

// lcgStep is the HPCC polynomial LCG over GF(2):
// s' = (s << 1) ^ (s topbit ? POLY : 0).
func lcgStep(s uint64) uint64 {
	t := (s >> 63) * randaccPoly
	return (s << 1) ^ t
}

// randaccSeeds returns the streams' initial states.
func randaccSeeds() (states [randaccStreams]uint64) {
	rng := splitmix64(0x6A)
	for j := range states {
		states[j] = rng.next() | 1
	}
	return states
}

// randaccModel replays the kernel on a model of the table's touched slots,
// keyed by slot index + 1 (the table starts all zero): it returns the
// kernel's accumulator and the model, and leaves each stream's last state in
// states.
func randaccModel(sc *scratch, states *[randaccStreams]uint64, rounds, mask uint64) (acc uint64, model wordTable) {
	model = newWordMap(sc, rounds*randaccStreams)
	for r := uint64(0); r < rounds; r++ {
		for j := range states {
			s2 := lcgStep(states[j])
			states[j] = s2
			i, _ := model.insert(s2&mask + 1)
			old := model.vals[i]
			model.vals[i] = old ^ s2
			acc += old & 0xFF
		}
	}
	return acc, model
}

func buildRandAcc(m *system.Machine, scale float64) *Instance {
	rounds := uint64(scaled(randaccRounds, scale))
	tableWords := uint64(1) << randaccTableLg
	mask := tableWords - 1

	table := m.Arena.AllocWords("table", tableWords)
	ran := m.Arena.AllocWords("ran", randaccStreams)

	states := randaccSeeds()
	for j, st := range states {
		m.Backing.Write64(ran.Base+uint64(j)*8, st)
	}
	sc := borrowScratch()
	wantAcc, _ := randaccModel(sc, &states, rounds, mask)
	sc.release()

	fn := func(v Variant) *ir.Fn {
		b := ir.NewBuilder("randacc", 4)
		entry := b.NewBlock("entry")
		b.SetBlock(entry)
		tableB, ranB, roundsV := b.Arg(0), b.Arg(1), b.Arg(2)
		streamsV := b.Arg(3)
		zero := b.Const(0)

		outer := newLoop(b, "rounds", roundsV, []ir.Value{zero}, false)
		accO := outer.Carried[0]

		inner := newLoop(b, "streams", streamsV, []ir.Value{accO}, v == Pragma)
		acc := inner.Carried[0]
		j := inner.IV

		ranAddr := wordAddr(b, ranB, j)
		s := b.Load(ranAddr, "ran")
		// s2 = (s<<1) ^ ((s>>63)*POLY)
		one := b.Const(1)
		top := b.Shr(s, b.Const(63))
		poly := b.Const(randaccPoly)
		s2 := b.Xor(b.Shl(s, one), b.Mul(top, poly))
		b.Store(ranAddr, s2, "ran")

		maskC := b.Const(int64(mask))
		idx := b.And(s2, maskC)
		taddr := wordAddr(b, tableB, idx)
		if v == SWPf {
			// Prefetch this stream's next-round target: one more LCG step.
			top2 := b.Shr(s2, b.Const(63))
			s3 := b.Xor(b.Shl(s2, one), b.Mul(top2, poly))
			b.SWPf(wordAddr(b, tableB, b.And(s3, maskC)), "table")
		}
		old := b.Load(taddr, "table")
		b.Store(taddr, b.Xor(old, s2), "table")
		acc2 := b.Add(acc, b.And(old, b.Const(0xFF)))
		inner.end(acc2)

		outer.end(inner.Carried[0])
		b.Ret(accO)
		return b.MustFinish()
	}

	manual := func(mc *system.Machine) {
		// Event 1 on loads of the stream-state array: prefetch the state
		// EWMA-many streams ahead; its (usually resident) fill triggers
		// event 2 with the state value.
		// The look-ahead wraps around the 128-entry state array — the
		// manual-only trick the paper notes for RandAcc (§7.1): compiler
		// passes cannot discover the wrap, so they leave the array's start
		// unprefetched each round.
		mc.RegisterKernel(1, ppu.MustAssemble(`
			vaddr  r1
			ldg    r3, g2       ; state-array base
			sub    r1, r1, r3
			addi   r1, r1, 256  ; hand-tuned look-ahead distance
			andi   r1, r1, 1023 ; wrap within the 128-entry array
			add    r1, r1, r3
			pftag  r1, 2
			halt
		`))
		// Event 2: recompute the stream's next update address — the same
		// LCG step the main program will take — and fetch the table line.
		mc.RegisterKernel(2, ppu.MustAssemble(`
			lddata r1           ; s
			shri   r2, r1, 63
			muli   r2, r2, 7
			shli   r1, r1, 1
			xor    r1, r1, r2   ; s2
			ldg    r3, g0       ; mask
			and    r1, r1, r3
			shli   r1, r1, 3
			ldg    r4, g1       ; table base
			add    r1, r1, r4
			pf     r1
			halt
		`))
		mc.PF.SetGlobal(0, mask)
		mc.PF.SetGlobal(1, table.Base)
		mc.PF.SetGlobal(2, ran.Base)
		mc.PF.SetRange(0, prefetch.RangeConfig{
			Lo: ran.Base, Hi: ran.End(),
			LoadKernel: 1, PFKernel: prefetch.NoKernel,
			EWMAGroup: 0, Interval: true, TimedStart: true,
		})
	}

	check := func(mc *system.Machine, ret uint64, hasRet bool) error {
		if err := checkEq("randacc accumulator", ret, wantAcc); err != nil {
			return err
		}
		// Replay the kernel again, from the seeds, and compare every word
		// it wrote: each stream's last state and each touched table slot.
		sc := borrowScratch()
		defer sc.release()
		states := randaccSeeds()
		_, model := randaccModel(sc, &states, rounds, mask)
		for j, st := range states {
			if got := mc.Backing.Read64(ran.Base + uint64(j)*8); got != st {
				return checkEq("stream state", got, st)
			}
		}
		for i, k := range model.keys {
			if k != 0 {
				if got := mc.Backing.Read64(table.Base + (k-1)*8); got != model.vals[i] {
					return checkEq("table slot", got, model.vals[i])
				}
			}
		}
		return nil
	}

	return &Instance{
		BuildFn: fn,
		Runs:    []Run{{Args: []uint64{table.Base, ran.Base, rounds, randaccStreams}}},
		Manual:  manual,
		Check:   check,
	}
}
