package workloads

import (
	"eventpf/internal/ppu"
	"eventpf/internal/prefetch"
	"eventpf/internal/system"
)

// PageRank is the BGL-style edge-centric rank propagation sweep: edges are
// visited in destination order (strided), while the source-rank reads
// scatter across the rank vector (Table 2: stride-indirect). As in the
// paper, there is no software-prefetch variant: the original code works on
// templated iterators that never expose element addresses, so BuildFn
// returns nil for SWPf — only the pragma pass (which sees the IR) and
// manual events can target it.
var PageRank = &Benchmark{
	Name:    "PageRank",
	Source:  "BGL",
	Pattern: "Stride-indirect",
	Input:   "web-Google",
	Build:   buildPageRank,
}

var (
	pagerankProgram = loadProgram("pagerank")
	pagerankKernels = [][]ppu.Instr{
		ppuKernel("pagerank.1.ppu"), ppuKernel("pagerank.2.ppu"),
		ppuKernel("pagerank.3.ppu"), ppuKernel("pagerank.4.ppu"),
	}
)

const (
	prVertices = 1 << 18
	prDegree   = 3
	prIters    = 1
)

func buildPageRank(m *system.Machine, scale float64) *Instance {
	nv := uint64(scaled(prVertices, scale))
	ne := nv * prDegree

	src := m.Arena.AllocWords("src", ne)
	dst := m.Arena.AllocWords("dst", ne)
	rankOld := m.Arena.AllocWords("rankOld", nv)
	rankNew := m.Arena.AllocWords("rankNew", nv)

	rng := splitmix64(0x93)
	for e := uint64(0); e < ne; e++ {
		// Destinations ascend (edges grouped by target vertex); sources
		// are skewed random, like a web graph's in-link distribution.
		m.Backing.Write64(dst.Base+e*8, e/prDegree)
		s := rng.next() % nv
		if rng.next()%4 == 0 {
			s = rng.next() % (nv/16 + 1) // a popular core of vertices
		}
		m.Backing.Write64(src.Base+e*8, s)
	}
	for v := uint64(0); v < nv; v++ {
		m.Backing.Write64(rankOld.Base+v*8, rng.next()&0xFFFF)
	}

	// Oracle: the kernel's sweeps over scratch copies of the two rank
	// vectors, which swap roles each iteration; Check keeps their digests.
	sc := borrowScratch()
	defer sc.release()
	ranks := [2][]uint64{sc.words(nv), sc.words(nv)} // rankOld's, rankNew's
	for i := range ranks[0] {
		ranks[0][i] = m.Backing.Read64(rankOld.Base + uint64(i)*8)
	}
	var want uint64
	for it := 0; it < prIters; it++ {
		old, niu := ranks[it%2], ranks[(it+1)%2]
		for e := uint64(0); e < ne; e++ {
			s := m.Backing.Read64(src.Base + e*8)
			d := m.Backing.Read64(dst.Base + e*8)
			niu[d] += old[s]
			want += old[s]
		}
	}
	wantOld, wantNew := digestWords(ranks[0]), digestWords(ranks[1])

	manual := withKernels(pagerankKernels, func(mc *system.Machine) {
		mc.PF.SetGlobal(0, rankOld.Base)
		mc.PF.SetGlobal(1, rankNew.Base)
		mc.PF.SetRange(0, prefetch.RangeConfig{
			Lo: src.Base, Hi: src.End(),
			LoadKernel: 1, PFKernel: prefetch.NoKernel,
			EWMAGroup: 0, Interval: true, TimedStart: true,
		})
		mc.PF.SetRange(1, prefetch.RangeConfig{
			Lo: dst.Base, Hi: dst.End(),
			LoadKernel: 3, PFKernel: prefetch.NoKernel,
			EWMAGroup: -1,
		})
	})

	check := func(mc *system.Machine, ret uint64, hasRet bool) error {
		if err := checkEq("pagerank checksum", ret, want); err != nil {
			return err
		}
		if err := checkRegion("rankOld", mc.Backing, rankOld.Base, nv, wantOld); err != nil {
			return err
		}
		return checkRegion("rankNew", mc.Backing, rankNew.Base, nv, wantNew)
	}

	return &Instance{
		BuildFn: pagerankProgram.build,
		Runs:    []Run{{Args: []uint64{src.Base, dst.Base, rankOld.Base, rankNew.Base, ne, prIters}}},
		Manual:  manual,
		Check:   check,
	}
}
