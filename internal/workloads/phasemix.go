package workloads

import (
	"eventpf/internal/ppu"
	"eventpf/internal/prefetch"
	"eventpf/internal/system"
)

// PhaseMix is a synthetic phase-alternation benchmark built for the
// adaptive-controller study (Figure 12): it interleaves long sequential
// array scans (ideal for a stride prefetcher, useless for the hand-written
// PPU kernels) with long linked-list chases (ideal for the PPU chase
// kernel, opaque to a stride unit). No single static scheme is right for
// both halves, so it isolates exactly the behaviour the adaptive controller
// exists for: noticing the phase change and swapping the active scheme at
// run time. It is not part of the paper's Table 2, so it lives in Extra,
// not All — ByName resolves it, figure sweeps over All do not.
var PhaseMix = &Benchmark{
	Name:    "PhaseMix",
	Source:  "synthetic",
	Pattern: "Alternating scan / pointer-chase",
	Input:   "1 MiB array + 3.5 k-node list per phase pair",
	Build:   buildPhaseMix,
}

var (
	phasemixProgram = loadProgram("phasemix")
	phasemixKernels = [][]ppu.Instr{ppuKernel("phasemix.1.ppu")}
)

const (
	phasemixArrWords  = 131072 // 1 MiB: the scan streams through all of L2
	phasemixNodes     = 3500   // chase length per phase, one node per line
	phasemixSlotsLg   = 15     // nodes scattered over 32 k line slots (2 MiB)
	phasemixBasePairs = 10     // scan+chase pairs at scale 1.0
)

func buildPhaseMix(m *system.Machine, scale float64) *Instance {
	pairs := uint64(float64(phasemixBasePairs) * scale)
	if pairs < 2 {
		pairs = 2
	}
	// Scale shrinks the number of phase pairs, not the phases themselves:
	// each phase must stay long against the controller's decision interval
	// or there is nothing to adapt to. Only below scale 0.1 — smoke-test
	// territory, where a switch merely has to happen, not pay off — do the
	// phases themselves shrink.
	arrWords, chaseNodes := uint64(phasemixArrWords), phasemixNodes
	if scale < 0.1 {
		f := scale * 10
		arrWords = uint64(scaled(phasemixArrWords, f))
		chaseNodes = scaled(phasemixNodes, f)
	}

	arr := m.Arena.AllocWords("scan", arrWords)
	slots := uint64(1) << phasemixSlotsLg
	nodes := m.Arena.AllocWords("nodes", slots*8) // one 64 B line per slot

	rng := splitmix64(0x9A5E)
	for i := uint64(0); i < arrWords; i++ {
		m.Backing.Write64(arr.Base+i*8, rng.next())
	}

	// Chain phasemixNodes nodes through a random subset of the line slots,
	// null-terminated. Each node is the first word of its line and holds the
	// byte address of the next node.
	sc := borrowScratch()
	defer sc.release()
	order := rng.perm(sc.words(slots))[:chaseNodes]
	addrOf := func(slot uint64) uint64 { return nodes.Base + slot*64 }
	for i, slot := range order {
		next := uint64(0)
		if i+1 < len(order) {
			next = addrOf(order[i+1])
		}
		m.Backing.Write64(addrOf(slot), next)
	}
	head := addrOf(order[0])

	// Oracle: the kernel's arithmetic, replayed in Go.
	var wantAcc uint64
	for p := uint64(0); p < pairs; p++ {
		for i := uint64(0); i < arrWords; i++ {
			wantAcc += m.Backing.Read64(arr.Base + i*8)
		}
		for ptr := head; ptr != 0; {
			next := m.Backing.Read64(ptr)
			wantAcc += (next >> 6) & 0xFFFF
			ptr = next
		}
	}

	manual := withKernels(phasemixKernels, func(mc *system.Machine) {
		mc.PF.SetRange(0, prefetch.RangeConfig{
			Lo: nodes.Base, Hi: nodes.End(),
			LoadKernel: 1, PFKernel: prefetch.NoKernel,
			EWMAGroup: 0, Interval: true, TimedStart: true,
		})
	})

	check := func(mc *system.Machine, ret uint64, hasRet bool) error {
		return checkEq("phasemix accumulator", ret, wantAcc)
	}

	return &Instance{
		BuildFn: phasemixProgram.build,
		Runs:    []Run{{Args: []uint64{arr.Base, arrWords, head, pairs}}},
		Manual:  manual,
		Check:   check,
	}
}
