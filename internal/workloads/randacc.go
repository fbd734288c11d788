package workloads

import (
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

var (
	randaccProgram = loadProgram("randacc")
	randaccKernels = [][]ppu.Instr{ppuKernel("randacc.1.ppu"), ppuKernel("randacc.2.ppu")}
)

// randacc.ir and randacc.2.ppu hard-code the table mask and the polynomial.
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

	manual := withKernels(randaccKernels, func(mc *system.Machine) {
		mc.PF.SetGlobal(0, mask)
		mc.PF.SetGlobal(1, table.Base)
		mc.PF.SetGlobal(2, ran.Base)
		mc.PF.SetRange(0, prefetch.RangeConfig{
			Lo: ran.Base, Hi: ran.End(),
			LoadKernel: 1, PFKernel: prefetch.NoKernel,
			EWMAGroup: 0, Interval: true, TimedStart: true,
		})
	})

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
		BuildFn: randaccProgram.build,
		Runs:    []Run{{Args: []uint64{table.Base, ran.Base, rounds, randaccStreams}}},
		Manual:  manual,
		Check:   check,
	}
}
