package workloads

import (
	"slices"

	"eventpf/internal/mem"
	"eventpf/internal/ppu"
	"eventpf/internal/prefetch"
	"eventpf/internal/system"
)

// G500CSR is the Graph500 breadth-first search over compressed-sparse-row
// arrays: the level-synchronised traversal reads the frontier queue
// (strided), vertex offsets (indirect), the edge array (data-dependent
// ranges) and the parent array (indirect) — Table 2: "BFS (arrays)".
var G500CSR = &Benchmark{
	Name:    "G500-CSR",
	Source:  "Graph500",
	Pattern: "BFS (arrays)",
	Input:   "-s 21 -e 10",
	Build: func(m *system.Machine, scale float64) *Instance {
		return buildG500(m, scale, false)
	},
}

// G500List is the same search where each vertex's edges live in a linked
// list of scattered nodes (Table 2: "BFS (lists)"). Edge discovery is a
// pointer chase, so there is no fine-grained parallelism to mine — the
// paper's hardest case.
var G500List = &Benchmark{
	Name:    "G500-List",
	Source:  "Graph500",
	Pattern: "BFS (lists)",
	Input:   "-s 16 -e 10",
	Build: func(m *system.Machine, scale float64) *Instance {
		return buildG500(m, scale, true)
	},
}

// The manual kernels chain queue look-ahead → vertex metadata → edge
// discovery → parent prefetch, the edge stage looping inside the kernel
// (CSR) or self-chaining down the node list (List). The frontier-queue
// kernel (g500.1.ppu) is the same for both searches.
var (
	g500CSRProgram  = loadProgram("g500-csr")
	g500ListProgram = loadProgram("g500-list")
	g500Queue       = ppuKernel("g500.1.ppu")
	g500CSRKernels  = [][]ppu.Instr{
		g500Queue, ppuKernel("g500-csr.2.ppu"), ppuKernel("g500-csr.3.ppu"), ppuKernel("g500-csr.4.ppu"),
	}
	g500ListKernels = [][]ppu.Instr{
		g500Queue, ppuKernel("g500-list.2.ppu"), ppuKernel("g500-list.3.ppu"), ppuKernel("g500-list.4.ppu"),
	}
)

const (
	g500CSRScaleLg  = 16 // 64 k vertices at scale 1.0
	g500ListScaleLg = 13 // 8 k vertices at scale 1.0
	g500EdgeFactor  = 10
	g500Empty       = ^uint64(0)
	// The list variant runs the same root twice (Graph500 searches many
	// roots); the repetition is what lets a big-history Markov prefetcher
	// learn the traversal, matching the paper's GHB-large result.
	g500ListRoots = 2
)

// rmat appends an R-MAT edge list (A=0.57 B=0.19 C=0.19, Graph500
// parameters) to edges[:0], two words an edge, one endpoint then the other;
// the graph is undirected, so each edge stands for both directions. Room for
// 2·2^scaleLg·ef words means no append grows the slice.
func rmat(rng *splitmix64, scaleLg uint, ef int, edges []uint64) []uint64 {
	nv := uint64(1) << scaleLg
	ne := nv * uint64(ef)
	edges = edges[:0]
	for i := uint64(0); i < ne; i++ {
		var u, v uint64
		for b := uint(0); b < scaleLg; b++ {
			r := rng.next() % 100
			switch {
			case r < 57: // A: top-left
			case r < 76: // B: top-right
				v |= 1 << b
			case r < 95: // C: bottom-left
				u |= 1 << b
			default: // D: bottom-right
				u |= 1 << b
				v |= 1 << b
			}
		}
		if u == v {
			continue
		}
		edges = append(edges, u, v)
	}
	return edges
}

// bfsOracle replicates the kernel's exact traversal order, filling parent
// (one word a vertex) and using queue (as long) as the frontier FIFO: a
// level's vertices in order, each appending what it discovers, is the
// kernel's cur/next ping-pong read end to end.
func bfsOracle(rowptr, adj []uint64, root uint64, parent, queue []uint64) (visited uint64) {
	for i := range parent {
		parent[i] = g500Empty
	}
	parent[root] = root
	queue[0] = root
	tail := 1
	for head := 0; head < tail; head++ {
		v := queue[head]
		for e := rowptr[v]; e < rowptr[v+1]; e++ {
			w := adj[e]
			if parent[w] == g500Empty {
				parent[w] = v
				queue[tail] = w
				tail++
			}
		}
	}
	return uint64(tail)
}

// g500ScaleLg is the log2 vertex count of a Graph500 input at scale: the
// scaled vertex count rounded up to a power of two.
func g500ScaleLg(scale float64, list bool) uint {
	base := g500CSRScaleLg
	if list {
		base = g500ListScaleLg
	}
	nv := uint64(scaled(1<<base, scale))
	scaleLg := uint(0)
	for (uint64(1) << scaleLg) < nv {
		scaleLg++
	}
	return scaleLg
}

// kroneckerCSR generates the R-MAT graph of 2^scaleLg vertices and returns
// it in compressed-sparse-row form, each row's targets in ascending order —
// the edge list sorted by (source, target). A counting sort places the edges
// by source and each row is then sorted on its own: the order is a total
// order on values, so this is the comparison sort's result word for word.
// The edge list and both arrays are in sc.
func kroneckerCSR(rng *splitmix64, scaleLg uint, sc *scratch) (rowptr, adj []uint64) {
	nv := uint64(1) << scaleLg
	edges := rmat(rng, scaleLg, g500EdgeFactor, sc.words(2*nv*g500EdgeFactor))
	rowptr = sc.words(nv + 1)
	for _, u := range edges {
		rowptr[u+1]++
	}
	for v := uint64(1); v <= nv; v++ {
		rowptr[v] += rowptr[v-1]
	}
	// Scatter each edge into both endpoints' rows with rowptr[v] as row v's
	// cursor, which leaves it at row v's end — row v+1's start — so shift the
	// array back by one after.
	adj = sc.words(uint64(len(edges)))
	for i := 0; i < len(edges); i += 2 {
		u, v := edges[i], edges[i+1]
		adj[rowptr[u]] = v
		rowptr[u]++
		adj[rowptr[v]] = u
		rowptr[v]++
	}
	copy(rowptr[1:], rowptr[:nv])
	rowptr[0] = 0
	for v := uint64(0); v < nv; v++ {
		slices.Sort(adj[rowptr[v]:rowptr[v+1]])
	}
	return rowptr, adj
}

func buildG500(m *system.Machine, scale float64, list bool) *Instance {
	scaleLg := g500ScaleLg(scale, list)
	nv := uint64(1) << scaleLg

	// The CSR arrays are scratch for both variants: the oracle reads them,
	// and they are the CSR variant's input and the list variant's layout.
	sc := borrowScratch()
	defer sc.release()
	rng := splitmix64(0x65)
	rowptrH, adjH := kroneckerCSR(&rng, scaleLg, sc)

	// Root: a vertex with a decent degree so the search covers the graph.
	root := uint64(0)
	for v := uint64(0); v < nv; v++ {
		if rowptrH[v+1]-rowptrH[v] > g500EdgeFactor {
			root = v
			break
		}
	}
	oracleParent := sc.words(nv)
	wantVisited := bfsOracle(rowptrH, adjH, root, oracleParent, sc.words(nv))
	wantParent := digestWords(oracleParent)

	parent := m.Arena.AllocWords("parent", nv)
	q1 := m.Arena.AllocWords("q1", nv+8) // +swpf distance padding
	q2 := m.Arena.AllocWords("q2", nv+8)

	resetParent := func(mc *system.Machine) {
		for v := uint64(0); v < nv; v++ {
			mc.Backing.Write64(parent.Base+v*8, g500Empty)
		}
	}

	var rowptrR, adjR, headR, nodesR mem.Region
	if list {
		headR = m.Arena.AllocWords("head", nv)
		// Nodes are 2 words [target, next] padded to a full line, placed
		// in shuffled order: list walks have no locality. Each node is
		// line-aligned so a PPU kernel can read both words from the fill.
		nodesR = m.Arena.AllocWords("nodes", uint64(len(adjH))*nodeStride)
		perm := rng.perm(sc.words(uint64(len(adjH))))
		slot := func(i uint64) uint64 { return nodesR.Base + perm[i]*nodeStride*8 }
		// Build per-vertex lists preserving adjacency order: inserting at
		// the head in reverse keeps forward walk order equal to CSR order,
		// so the oracle is shared.
		for v := uint64(0); v < nv; v++ {
			var head uint64 // 0 = nil
			for e := int64(rowptrH[v+1]) - 1; e >= int64(rowptrH[v]); e-- {
				s := slot(uint64(e))
				m.Backing.Write64(s, adjH[e])
				m.Backing.Write64(s+8, head)
				head = s
			}
			m.Backing.Write64(headR.Base+v*8, head)
		}
	} else {
		rowptrR = m.Arena.AllocWords("rowptr", nv+1)
		adjR = m.Arena.AllocWords("adj", uint64(len(adjH))+1)
		for v := uint64(0); v <= nv; v++ {
			m.Backing.Write64(rowptrR.Base+v*8, rowptrH[v])
		}
		for i, w := range adjH {
			m.Backing.Write64(adjR.Base+uint64(i)*8, w)
		}
	}

	var runs []Run
	nRoots := 1
	if list {
		nRoots = g500ListRoots
	}
	for r := 0; r < nRoots; r++ {
		var args []uint64
		if list {
			args = []uint64{headR.Base, parent.Base, q1.Base, q2.Base, root}
		} else {
			args = []uint64{rowptrR.Base, adjR.Base, parent.Base, q1.Base, q2.Base, root}
		}
		runs = append(runs, Run{Args: args, Before: resetParent})
	}

	prog, kernels := g500CSRProgram, g500CSRKernels
	if list {
		prog, kernels = g500ListProgram, g500ListKernels
	}
	manual := withKernels(kernels, func(mc *system.Machine) {
		mc.PF.SetGlobal(1, parent.Base)
		if list {
			mc.PF.SetGlobal(2, headR.Base)
		} else {
			mc.PF.SetGlobal(0, adjR.Base)
			mc.PF.SetGlobal(2, rowptrR.Base)
		}
		mc.PF.SetRange(0, prefetch.RangeConfig{
			Lo: q1.Base, Hi: q1.End(),
			LoadKernel: 1, PFKernel: prefetch.NoKernel,
			EWMAGroup: 0, Interval: true, TimedStart: true,
		})
		mc.PF.SetRange(1, prefetch.RangeConfig{
			Lo: q2.Base, Hi: q2.End(),
			LoadKernel: 1, PFKernel: prefetch.NoKernel,
			EWMAGroup: 0, Interval: true, TimedStart: true,
		})
	})

	check := func(mc *system.Machine, ret uint64, hasRet bool) error {
		if err := checkEq("bfs visited count", ret, wantVisited); err != nil {
			return err
		}
		return checkRegion("parent array", mc.Backing, parent.Base, nv, wantParent)
	}

	return &Instance{BuildFn: prog.build, Runs: runs, Manual: manual, Check: check}
}
