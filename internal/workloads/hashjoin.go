package workloads

import (
	"eventpf/internal/mem"
	"eventpf/internal/ppu"
	"eventpf/internal/prefetch"
	"eventpf/internal/system"
)

// HJ2 is the hash-join probe kernel with inline buckets (at most one tuple
// per slot, load factor ½): a strided key scan, a multiplicative hash, and
// one indirect bucket access (Table 2: stride-hash-indirect).
var HJ2 = &Benchmark{
	Name:    "HJ-2",
	Source:  "Hash Join",
	Pattern: "Stride-hash-indirect",
	Input:   "-r 12800000 -s 12800000",
	Build: func(m *system.Machine, scale float64) *Instance {
		return buildHashJoin(m, scale, false)
	},
}

// HJ8 is the hash-join probe with chained buckets averaging eight tuples:
// the paper's motivating kernel (Figure 1), adding linked-list walks after
// the hashed bucket access (Table 2: stride-hash-indirect, linked lists).
var HJ8 = &Benchmark{
	Name:    "HJ-8",
	Source:  "Hash Join",
	Pattern: "Stride-hash-indirect, linked-list walks",
	Input:   "-r 12800000 -s 12800000",
	Build: func(m *system.Machine, scale float64) *Instance {
		return buildHashJoin(m, scale, true)
	},
}

// The probe-key kernel (hj.1.ppu) is the same for both joins.
var (
	hj2Program = loadProgram("hj-2")
	hj8Program = loadProgram("hj-8")
	hjKeys     = ppuKernel("hj.1.ppu")
	hj2Kernels = [][]ppu.Instr{hjKeys, ppuKernel("hj-2.2.ppu")}
	hj8Kernels = [][]ppu.Instr{
		hjKeys, ppuKernel("hj-8.2.ppu"), ppuKernel("hj-8.3.ppu"), ppuKernel("hj-8.4.ppu"),
	}
)

const (
	hjTuples = 1 << 19 // tuples built by HJ-2 and HJ-8 alike
	hjChain  = 8       // average tuples per bucket in HJ-8
	// Node layout: words 0..2 of a 64-byte node, the offsets hj-8.ir and
	// hj-8.4.ppu read.
	nodeKey    = 0
	nodeVal    = 8
	nodeNext   = 16
	nodeStride = 8 // words per node (one cache line)
)

func buildHashJoin(m *system.Machine, scale float64, chained bool) *Instance {
	n := uint64(scaled(hjTuples, scale))

	// Bucket count: power of two, load factor ½ for HJ-2, chain length 8
	// for HJ-8.
	var logNB uint
	var target uint64
	if chained {
		target = n / hjChain
	} else {
		target = 2 * n
	}
	logNB = 1
	for (uint64(1) << logNB) < target {
		logNB++
	}
	nb := uint64(1) << logNB
	shift := 64 - logNB

	// HJ-8 probes a shuffled 1-in-8 subset of the build keys so each bucket
	// chain is walked about once — at full scale no history prefetcher can
	// memorise the walks, and the subset keeps that true at reduced scale.
	nprobe := n
	if chained {
		nprobe = n / hjChain
	}
	skey := m.Arena.AllocWords("skey", nprobe+16) // +swpf distance padding

	// Draw n distinct keys; the probe keys go straight to skey. A probe key
	// is the key itself for HJ-2 and a shuffled 1-in-8 pick for HJ-8.
	sc := borrowScratch()
	defer sc.release()
	rng := splitmix64(0x47)
	keys := sc.words(n)
	seen := newWordSet(sc, n)
	for i := range keys {
		for {
			k := rng.next() | 1
			if _, dup := seen.insert(k); !dup {
				keys[i] = k
				break
			}
		}
	}
	var perm []uint64
	probeKey := func(i uint64) uint64 { return keys[i] }
	if chained {
		perm = rng.perm(sc.words(n))
		probeKey = func(i uint64) uint64 { return keys[perm[i]] }
	}
	for i := uint64(0); i < nprobe; i++ {
		m.Backing.Write64(skey.Base+i*8, probeKey(i))
	}

	hash := func(k uint64) uint64 { return (k * hashMul) >> shift }

	var htab, nodes mem.Region
	var want uint64
	if chained {
		htab = m.Arena.AllocWords("htab", nb)
		nodes = m.Arena.AllocWords("nodes", n*nodeStride)
		// Every probe finds its tuple. Insert every key; nodes are placed
		// in shuffled order, a second permutation drawn into the first
		// one's buffer, so list walks have no spatial locality.
		for i := uint64(0); i < nprobe; i++ {
			want += probeKey(i) & 0xFFFF
		}
		rng.perm(perm)
		for i, k := range keys {
			slot := nodes.Base + perm[i]*nodeStride*8
			h := hash(k)
			head := htab.Base + h*8
			m.Backing.Write64(slot+nodeKey, k)
			m.Backing.Write64(slot+nodeVal, k&0xFFFF)
			m.Backing.Write64(slot+nodeNext, m.Backing.Read64(head))
			m.Backing.Write64(head, slot)
		}
	} else {
		// A key that lands on an occupied bucket is dropped: its probe
		// finds nothing. Keys are distinct, so a probe matches exactly when
		// its bucket holds its key.
		htab = m.Arena.AllocWords("htab", nb*2)
		for _, k := range keys {
			slot := htab.Base + hash(k)*16
			if m.Backing.Read64(slot) == 0 {
				m.Backing.Write64(slot, k)
				m.Backing.Write64(slot+8, k&0xFFFF)
			}
		}
		for _, k := range keys {
			if m.Backing.Read64(htab.Base+hash(k)*16) == k {
				want += k & 0xFFFF
			}
		}
	}

	prog, kernels := hj2Program, hj2Kernels
	if chained {
		prog, kernels = hj8Program, hj8Kernels
	}
	manual := withKernels(kernels, func(mc *system.Machine) {
		mc.PF.SetGlobal(0, hashMul)
		mc.PF.SetGlobal(1, uint64(shift))
		mc.PF.SetGlobal(2, htab.Base)
		mc.PF.SetRange(0, prefetch.RangeConfig{
			Lo: skey.Base, Hi: skey.End(),
			LoadKernel: 1, PFKernel: prefetch.NoKernel,
			EWMAGroup: 0, Interval: true, TimedStart: true,
		})
	})

	check := func(mc *system.Machine, ret uint64, hasRet bool) error {
		return checkEq("hash-join match sum", ret, want)
	}

	return &Instance{
		BuildFn: prog.build,
		Runs:    []Run{{Args: []uint64{skey.Base, htab.Base, nprobe, hashMul, uint64(shift)}}},
		Manual:  manual,
		Check:   check,
	}
}
