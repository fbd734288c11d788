package workloads

import (
	"eventpf/internal/ir"
	"eventpf/internal/system"
)

// BTree is an index join over a fixed-depth B-tree: a stream of probe keys
// each descends a fanout-8 tree (the ROADMAP's second synthetic irregular
// workload, modelled on database index-nested-loop joins). Each node is two
// cache lines — a line of separator keys and a line of child pointers — so
// every level costs one dependent line for the keys plus one for the chosen
// child: a pointer chase whose next address depends on comparisons over
// loaded data. No stride exists anywhere past the probe array, and the
// descent is branchless (comparison sums pick the child), so the branch
// predictor cannot hide it either. There is no manual kernel: computing the
// child index needs seven comparisons over the fetched line plus a second
// line for the pointers, beyond what a single fill-triggered PPU event can
// carry — the "manual" scheme reports unsupported, like software prefetch
// on PageRank.
var BTree = &Benchmark{
	Name:    "BTree",
	Source:  "synthetic",
	Pattern: "Key-compare pointer chase (index join)",
	Input:   "262 k keys, depth-6 fanout-8 tree",
	Build:   buildBTree,
}

const (
	btreeFanout     = 8
	btreeDepth      = 6 // 8^6 = 262144 keys; ~4.6 MiB of nodes, beyond L2
	btreeBaseProbes = 25000
)

func buildBTree(m *system.Machine, scale float64) *Instance {
	probesN := uint64(scaled(btreeBaseProbes, scale))

	// A perfect tree: level d holds 8^d nodes; level btreeDepth-1 nodes are
	// leaves. Node i of level d covers keys [i*span, (i+1)*span) where
	// span = 8^(btreeDepth-d). A node is 16 words: words 0–7 the minimum key
	// of each child's subtree (for leaves: the keys themselves), words 8–15
	// the child node addresses (for leaves: the values).
	var levelNodes, levelOff [btreeDepth]uint64
	var totalNodes uint64
	for d := 0; d < btreeDepth; d++ {
		levelOff[d] = totalNodes
		levelNodes[d] = pow8(d)
		totalNodes += levelNodes[d]
	}
	totalKeys := pow8(btreeDepth)

	tree := m.Arena.AllocWords("tree", totalNodes*16)
	probes := m.Arena.AllocWords("probes", probesN)

	key := func(i uint64) uint64 { return 2 * (i + 1) } // sorted, nonzero
	value := func(i uint64) uint64 { return i*0x9E3779B9 + 0x7F4A7C15 }
	nodeAddr := func(d int, i uint64) uint64 { return tree.Base + (levelOff[d]+i)*128 }

	for d := 0; d < btreeDepth; d++ {
		childSpan := pow8(btreeDepth - 1 - d)
		leaf := d == btreeDepth-1
		for i := uint64(0); i < levelNodes[d]; i++ {
			na := nodeAddr(d, i)
			for s := uint64(0); s < btreeFanout; s++ {
				childFirstKey := (i*btreeFanout + s) * childSpan
				m.Backing.Write64(na+s*8, key(childFirstKey))
				if leaf {
					m.Backing.Write64(na+64+s*8, value(i*btreeFanout+s))
				} else {
					m.Backing.Write64(na+64+s*8, nodeAddr(d+1, i*btreeFanout+s))
				}
			}
		}
	}

	rng := splitmix64(0xB7EE)
	var wantAcc uint64
	for p := uint64(0); p < probesN; p++ {
		ki := rng.next() % totalKeys
		m.Backing.Write64(probes.Base+p*8, key(ki))
		wantAcc += value(ki) & 0xFFFF
	}

	fn := func(v Variant) *ir.Fn {
		if v != Plain {
			// No software-prefetch or pragma form: the next node address only
			// exists after seven comparisons over loaded keys, so there is no
			// address expression for the compiler passes to hoist.
			return nil
		}
		b := ir.NewBuilder("btree", 4)
		entry := b.NewBlock("entry")
		b.SetBlock(entry)
		probesB, probesNV, rootV, depthV := b.Arg(0), b.Arg(1), b.Arg(2), b.Arg(3)
		zero := b.Const(0)

		outer := newLoop(b, "probes", probesNV, []ir.Value{zero}, false)
		accO := outer.Carried[0]
		p := b.Load(wordAddr(b, probesB, outer.IV), "probes")

		// Branchless descent: idx = Σ (node.key[s] <= probe) over s=1..7,
		// then follow child idx. After the last (leaf) level the "child" is
		// the value.
		desc := newLoop(b, "descend", depthV, []ir.Value{rootV}, false)
		node := desc.Carried[0]
		idx := zero
		for s := int64(1); s < btreeFanout; s++ {
			ks := b.Load(b.Add(node, b.Const(s*8)), "tree")
			idx = b.Add(idx, b.Bin(ir.CmpGEU, p, ks))
		}
		next := b.Load(wordAddr(b, b.Add(node, b.Const(64)), idx), "tree")
		desc.end(next)

		val := desc.Carried[0]
		outer.end(b.Add(accO, b.And(val, b.Const(0xFFFF))))
		b.Ret(accO)
		return b.MustFinish()
	}

	check := func(mc *system.Machine, ret uint64, hasRet bool) error {
		return checkEq("btree probe checksum", ret, wantAcc)
	}

	return &Instance{
		BuildFn: fn,
		Runs:    []Run{{Args: []uint64{probes.Base, probesN, nodeAddr(0, 0), btreeDepth}}},
		Check:   check,
	}
}

func pow8(n int) uint64 { return uint64(1) << (3 * uint(n)) }
