package workloads

import (
	"slices"

	"eventpf/internal/ir"
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

	fn := func(v Variant) *ir.Fn {
		if list {
			return buildBFSListFn(v)
		}
		return buildBFSCSRFn(v)
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

	manual := func(mc *system.Machine) {
		setupG500Manual(mc, list, g500ManualState{
			rowptr: rowptrR, adj: adjR, head: headR,
			parent: parent, q1: q1, q2: q2,
		})
	}

	check := func(mc *system.Machine, ret uint64, hasRet bool) error {
		if err := checkEq("bfs visited count", ret, wantVisited); err != nil {
			return err
		}
		return checkRegion("parent array", mc.Backing, parent.Base, nv, wantParent)
	}

	return &Instance{BuildFn: fn, Runs: runs, Manual: manual, Check: check}
}

// buildBFSCSRFn builds the level-synchronised BFS over CSR arrays.
// Args: 0=rowptr 1=adj 2=parent 3=q1 4=q2 5=root.
func buildBFSCSRFn(variant Variant) *ir.Fn {
	b := ir.NewBuilder("bfs-csr", 6)
	entry := b.NewBlock("entry")
	outerHead := b.NewBlock("level.head")
	innerPre := b.NewBlock("frontier.pre")
	innerHead := b.NewBlock("frontier.head")
	innerBody := b.NewBlock("frontier.body")
	eHead := b.NewBlock("edges.head")
	eBody := b.NewBlock("edges.body")
	visit := b.NewBlock("visit")
	eLatch := b.NewBlock("edges.latch")
	innerLatch := b.NewBlock("frontier.latch")
	outerLatch := b.NewBlock("level.latch")
	exit := b.NewBlock("exit")

	b.SetBlock(entry)
	rowptrB, adjB, parentB := b.Arg(0), b.Arg(1), b.Arg(2)
	q1B, q2B, root := b.Arg(3), b.Arg(4), b.Arg(5)
	zero := b.Const(0)
	one := b.Const(1)
	b.Store(wordAddr(b, parentB, root), root, "parent")
	b.Store(q1B, root, "queue")
	b.Br(outerHead)

	b.SetBlock(outerHead)
	cur := b.Phi()
	nxt := b.Phi()
	curlen := b.Phi()
	visited := b.Phi()
	alive := b.Bin(ir.CmpNE, curlen, zero)
	b.CondBr(alive, innerPre, exit)

	b.SetBlock(innerPre)
	b.Br(innerHead)

	b.SetBlock(innerHead)
	i := b.Phi()
	qtail := b.Phi()
	vis := b.Phi()
	ic := b.Bin(ir.CmpLTU, i, curlen)
	b.CondBr(ic, innerBody, outerLatch)
	if variant == Pragma {
		b.MarkPragma(innerHead)
	}

	b.SetBlock(innerBody)
	if variant == SWPf {
		// swpf(&rowptr[cur[i+dist]]): the only level software prefetching
		// can reach — edge ranges and parents are loads-of-loads.
		dist := b.Const(8)
		vd := b.Load(wordAddr(b, cur, b.Add(i, dist)), "queue")
		b.SWPf(wordAddr(b, rowptrB, vd), "rowptr")
	}
	v := b.Load(wordAddr(b, cur, i), "queue")
	rs := b.Load(wordAddr(b, rowptrB, v), "rowptr")
	re := b.Load(wordAddr(b, rowptrB, b.Add(v, one)), "rowptr")
	b.Br(eHead)

	b.SetBlock(eHead)
	e := b.Phi()
	qt := b.Phi()
	vs := b.Phi()
	ec := b.Bin(ir.CmpLTU, e, re)
	b.CondBr(ec, eBody, innerLatch)

	b.SetBlock(eBody)
	w := b.Load(wordAddr(b, adjB, e), "adj")
	pw := b.Load(wordAddr(b, parentB, w), "parent")
	empty := b.Const(-1)
	isEmpty := b.Bin(ir.CmpEQ, pw, empty)
	b.CondBr(isEmpty, visit, eLatch)

	b.SetBlock(visit)
	b.Store(wordAddr(b, parentB, w), v, "parent")
	b.Store(wordAddr(b, nxt, qt), w, "queue")
	qtv := b.Add(qt, one)
	vsv := b.Add(vs, one)
	b.Br(eLatch)

	b.SetBlock(eLatch)
	qt2 := b.Phi()
	vs2 := b.Phi()
	b.SetPhiArgs(qt2, qt, qtv)
	b.SetPhiArgs(vs2, vs, vsv)
	e2 := b.Add(e, one)
	b.Br(eHead)
	b.SetPhiArgs(e, rs, e2)
	b.SetPhiArgs(qt, qtail, qt2)
	b.SetPhiArgs(vs, vis, vs2)

	b.SetBlock(innerLatch)
	i2 := b.Add(i, one)
	b.Br(innerHead)
	b.SetPhiArgs(i, zero, i2)
	b.SetPhiArgs(qtail, zero, qt)
	b.SetPhiArgs(vis, visited, vs)

	b.SetBlock(outerLatch)
	b.Br(outerHead)
	b.SetPhiArgs(cur, q1B, nxt)
	b.SetPhiArgs(nxt, q2B, cur)
	b.SetPhiArgs(curlen, one, qtail)
	b.SetPhiArgs(visited, one, vis)

	b.SetBlock(exit)
	b.Ret(visited)
	return b.MustFinish()
}

// buildBFSListFn builds the list-based BFS.
// Args: 0=head 1=parent 2=q1 3=q2 4=root.
func buildBFSListFn(variant Variant) *ir.Fn {
	b := ir.NewBuilder("bfs-list", 5)
	entry := b.NewBlock("entry")
	outerHead := b.NewBlock("level.head")
	innerPre := b.NewBlock("frontier.pre")
	innerHead := b.NewBlock("frontier.head")
	innerBody := b.NewBlock("frontier.body")
	wHead := b.NewBlock("walk.head")
	wBody := b.NewBlock("walk.body")
	visit := b.NewBlock("visit")
	wLatch := b.NewBlock("walk.latch")
	innerLatch := b.NewBlock("frontier.latch")
	outerLatch := b.NewBlock("level.latch")
	exit := b.NewBlock("exit")

	b.SetBlock(entry)
	headB, parentB := b.Arg(0), b.Arg(1)
	q1B, q2B, root := b.Arg(2), b.Arg(3), b.Arg(4)
	zero := b.Const(0)
	one := b.Const(1)
	b.Store(wordAddr(b, parentB, root), root, "parent")
	b.Store(q1B, root, "queue")
	b.Br(outerHead)

	b.SetBlock(outerHead)
	cur := b.Phi()
	nxt := b.Phi()
	curlen := b.Phi()
	visited := b.Phi()
	alive := b.Bin(ir.CmpNE, curlen, zero)
	b.CondBr(alive, innerPre, exit)

	b.SetBlock(innerPre)
	b.Br(innerHead)

	b.SetBlock(innerHead)
	i := b.Phi()
	qtail := b.Phi()
	vis := b.Phi()
	ic := b.Bin(ir.CmpLTU, i, curlen)
	b.CondBr(ic, innerBody, outerLatch)
	if variant == Pragma {
		b.MarkPragma(innerHead)
	}

	b.SetBlock(innerBody)
	if variant == SWPf {
		dist := b.Const(8)
		vd := b.Load(wordAddr(b, cur, b.Add(i, dist)), "queue")
		b.SWPf(wordAddr(b, headB, vd), "head")
	}
	v := b.Load(wordAddr(b, cur, i), "queue")
	p0 := b.Load(wordAddr(b, headB, v), "head")
	b.Br(wHead)

	b.SetBlock(wHead)
	p := b.Phi()
	qt := b.Phi()
	vs := b.Phi()
	aliveW := b.Bin(ir.CmpNE, p, zero)
	b.CondBr(aliveW, wBody, innerLatch)

	b.SetBlock(wBody)
	w := b.Load(p, "nodes")
	pw := b.Load(wordAddr(b, parentB, w), "parent")
	empty := b.Const(-1)
	isEmpty := b.Bin(ir.CmpEQ, pw, empty)
	b.CondBr(isEmpty, visit, wLatch)

	b.SetBlock(visit)
	b.Store(wordAddr(b, parentB, w), v, "parent")
	b.Store(wordAddr(b, nxt, qt), w, "queue")
	qtv := b.Add(qt, one)
	vsv := b.Add(vs, one)
	b.Br(wLatch)

	b.SetBlock(wLatch)
	qt2 := b.Phi()
	vs2 := b.Phi()
	b.SetPhiArgs(qt2, qt, qtv)
	b.SetPhiArgs(vs2, vs, vsv)
	pn := b.Load(b.Add(p, b.Const(8)), "nodes")
	b.Br(wHead)
	b.SetPhiArgs(p, p0, pn)
	b.SetPhiArgs(qt, qtail, qt2)
	b.SetPhiArgs(vs, vis, vs2)

	b.SetBlock(innerLatch)
	i2 := b.Add(i, one)
	b.Br(innerHead)
	b.SetPhiArgs(i, zero, i2)
	b.SetPhiArgs(qtail, zero, qt)
	b.SetPhiArgs(vis, visited, vs)

	b.SetBlock(outerLatch)
	b.Br(outerHead)
	b.SetPhiArgs(cur, q1B, nxt)
	b.SetPhiArgs(nxt, q2B, cur)
	b.SetPhiArgs(curlen, one, qtail)
	b.SetPhiArgs(visited, one, vis)

	b.SetBlock(exit)
	b.Ret(visited)
	return b.MustFinish()
}

type g500ManualState struct {
	rowptr, adj, head, parent, q1, q2 mem.Region
}

// setupG500Manual installs the hand-written BFS event kernels: queue
// look-ahead → vertex metadata → edge discovery → parent prefetch, with
// the edge stage looping inside the kernel (CSR) or self-chaining down the
// node list (List).
func setupG500Manual(mc *system.Machine, list bool, st g500ManualState) {
	// Kernel 1, on frontier-queue loads: prefetch the queue entry the EWMA
	// distance ahead; its fill carries the vertex id to kernel 2.
	mc.RegisterKernel(1, ppu.MustAssemble(`
		vaddr  r1
		addi   r1, r1, 64  ; fixed 8-vertex look-ahead: each queue entry
		pftag  r1, 2       ; fans out to ~20 edges plus their parents, so a
		halt               ; deep window would thrash the 32 KB L1
	`))
	if !list {
		// Kernel 2: vertex id arrived; fetch its rowptr cell (start and
		// end are usually in the same line — the trick the paper notes
		// compiler passes cannot exploit, §7.1).
		mc.RegisterKernel(2, ppu.MustAssemble(`
			lddata r1
			shli   r1, r1, 3
			ldg    r2, g2      ; rowptr base
			add    r1, r1, r2
			pftag  r1, 3
			halt
		`))
		// Kernel 3: rowptr line arrived. Read rowstart; read rowend if it
		// sits in the same line, else assume a two-line span. Prefetch up
		// to 4 edge lines, each tagged to kernel 4.
		mc.RegisterKernel(3, ppu.MustAssemble(`
			vaddr  r1
			lddata r2          ; rs = rowptr[v]
			andi   r3, r1, 56  ; word offset of v within the line
			movi   r4, 56
			beq    r3, r4, fallback
			addi   r5, r3, 8
			ldline r6, r5      ; re = rowptr[v+1]
			jmp    clamp
		fallback:
			addi   r6, r2, 16  ; end unknown: assume a modest degree
		clamp:
			addi   r7, r2, 32  ; cap at 4 lines of edges (first-N approach)
			blt    r7, r6, capped
			jmp    havecap
		capped:
			mov    r6, r7
		havecap:
			ldg    r8, g0      ; adj base
			mov    r9, r2
		loop:
			bge    r9, r6, done
			shli   r10, r9, 3
			add    r10, r10, r8
			pftag  r10, 4
			addi   r9, r9, 8   ; next line of 8 edges
			jmp    loop
		done:
			halt
		`))
		// Kernel 4: an edge line arrived; prefetch the parent word of all
		// eight targets.
		mc.RegisterKernel(4, ppu.MustAssemble(`
			movi   r2, 0
			ldg    r3, g1      ; parent base
		loop:
			ldline r4, r2
			shli   r5, r4, 3
			add    r5, r5, r3
			pf     r5
			addi   r2, r2, 8
			movi   r6, 64
			blt    r2, r6, loop
			halt
		`))
		mc.PF.SetGlobal(0, st.adj.Base)
		mc.PF.SetGlobal(1, st.parent.Base)
		mc.PF.SetGlobal(2, st.rowptr.Base)
	} else {
		// Kernel 2: vertex id arrived; fetch its list-head pointer cell.
		mc.RegisterKernel(2, ppu.MustAssemble(`
			lddata r1
			shli   r1, r1, 3
			ldg    r2, g2      ; head base
			add    r1, r1, r2
			pftag  r1, 3
			halt
		`))
		// Kernel 3: head pointer arrived; chase the first node.
		mc.RegisterKernel(3, ppu.MustAssemble(`
			lddata r1
			movi   r2, 0
			beq    r1, r2, done
			pftag  r1, 4
		done:
			halt
		`))
		// Kernel 4: a node arrived; prefetch its target's parent word and
		// self-chain to the next node. The chain is inherently serial —
		// the reason this benchmark caps at a modest speedup (§7.1).
		mc.RegisterKernel(4, ppu.MustAssemble(`
			lddata r1          ; node.target
			shli   r2, r1, 3
			ldg    r3, g1      ; parent base
			add    r2, r2, r3
			pf     r2
			ldlinei r4, 8      ; node.next
			movi   r5, 0
			beq    r4, r5, done
			pftag  r4, 4
		done:
			halt
		`))
		mc.PF.SetGlobal(1, st.parent.Base)
		mc.PF.SetGlobal(2, st.head.Base)
	}
	mc.PF.SetRange(0, prefetch.RangeConfig{
		Lo: st.q1.Base, Hi: st.q1.End(),
		LoadKernel: 1, PFKernel: prefetch.NoKernel,
		EWMAGroup: 0, Interval: true, TimedStart: true,
	})
	mc.PF.SetRange(1, prefetch.RangeConfig{
		Lo: st.q2.Base, Hi: st.q2.End(),
		LoadKernel: 1, PFKernel: prefetch.NoKernel,
		EWMAGroup: 0, Interval: true, TimedStart: true,
	})
}
