package workloads

import (
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

var btreeProgram = loadProgram("btree")

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

	check := func(mc *system.Machine, ret uint64, hasRet bool) error {
		return checkEq("btree probe checksum", ret, wantAcc)
	}

	return &Instance{
		BuildFn: btreeProgram.build,
		Runs:    []Run{{Args: []uint64{probes.Base, probesN, nodeAddr(0, 0), btreeDepth}}},
		Check:   check,
	}
}

func pow8(n int) uint64 { return uint64(1) << (3 * uint(n)) }
