package workloads

import (
	"eventpf/internal/ir"
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

const (
	hjTuples   = 1 << 19 // HJ-2 (the chained HJ-8 uses a quarter of this)
	hjChain    = 8       // average tuples per bucket in HJ-8
	nodeKey    = 0       // node layout: words 0..2 of a 64-byte node
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

	fn := func(v Variant) *ir.Fn {
		if chained {
			return buildHJ8Fn(v, shift)
		}
		return buildHJ2Fn(v, shift)
	}

	manual := func(mc *system.Machine) {
		// Event 1 on probe-key loads: fetch the key stream ahead.
		mc.RegisterKernel(1, ppu.MustAssemble(`
			vaddr  r1
			addi   r1, r1, 256  ; hand-tuned look-ahead distance
			pftag  r1, 2
			halt
		`))
		if !chained {
			// Event 2: hash the key, fetch the inline bucket. End of chain.
			mc.RegisterKernel(2, ppu.MustAssemble(`
				lddata r1
				ldg    r2, g0      ; hash multiplier
				mul    r1, r1, r2
				ldg    r3, g1      ; shift
				shr    r1, r1, r3
				shli   r1, r1, 4   ; 16-byte buckets
				ldg    r4, g2      ; htab base
				add    r1, r1, r4
				pf     r1
				halt
			`))
		} else {
			// Event 2: hash the key, fetch the bucket-head pointer cell.
			mc.RegisterKernel(2, ppu.MustAssemble(`
				lddata r1
				ldg    r2, g0
				mul    r1, r1, r2
				ldg    r3, g1
				shr    r1, r1, r3
				shli   r1, r1, 3
				ldg    r4, g2
				add    r1, r1, r4
				pftag  r1, 3
				halt
			`))
			// Event 3: pointer cell arrived; walk to the first node.
			mc.RegisterKernel(3, ppu.MustAssemble(`
				lddata r1
				movi   r2, 0
				beq    r1, r2, done
				pftag  r1, 4
			done:
				halt
			`))
			// Event 4: a node arrived; prefetch the next node in the chain
			// — the control-flow loop only manual events can express (§7.1).
			mc.RegisterKernel(4, ppu.MustAssemble(`
				ldlinei r1, 16    ; node.next
				movi    r2, 0
				beq     r1, r2, done
				pftag   r1, 4
			done:
				halt
			`))
		}
		mc.PF.SetGlobal(0, hashMul)
		mc.PF.SetGlobal(1, uint64(shift))
		mc.PF.SetGlobal(2, htab.Base)
		mc.PF.SetRange(0, prefetch.RangeConfig{
			Lo: skey.Base, Hi: skey.End(),
			LoadKernel: 1, PFKernel: prefetch.NoKernel,
			EWMAGroup: 0, Interval: true, TimedStart: true,
		})
	}

	check := func(mc *system.Machine, ret uint64, hasRet bool) error {
		return checkEq("hash-join match sum", ret, want)
	}

	return &Instance{
		BuildFn: fn,
		Runs:    []Run{{Args: []uint64{skey.Base, htab.Base, nprobe, hashMul, uint64(shift)}}},
		Manual:  manual,
		Check:   check,
	}
}

// buildHJ2Fn: for x<n: k=skey[x]; h=hash(k); if htab[2h]==k: acc+=htab[2h+1].
func buildHJ2Fn(v Variant, shift uint) *ir.Fn {
	b := ir.NewBuilder("hj2", 5)
	entry := b.NewBlock("entry")
	b.SetBlock(entry)
	skeyB, htabB, nV := b.Arg(0), b.Arg(1), b.Arg(2)
	mulV, shiftV := b.Arg(3), b.Arg(4)
	zero := b.Const(0)

	l := newLoop(b, "probe", nV, []ir.Value{zero}, v == Pragma)
	acc := l.Carried[0]
	if v == SWPf {
		dist := b.Const(16)
		id := b.Add(l.IV, dist)
		b.SWPf(wordAddr(b, skeyB, b.Add(id, dist)), "skey")
		kd := b.Load(wordAddr(b, skeyB, id), "skey")
		hd := b.Shr(b.Mul(kd, mulV), shiftV)
		b.SWPf(b.Add(htabB, b.Shl(hd, b.Const(4))), "htab")
	}
	k := b.Load(wordAddr(b, skeyB, l.IV), "skey")
	h := b.Shr(b.Mul(k, mulV), shiftV)
	baddr := b.Add(htabB, b.Shl(h, b.Const(4)))
	bk := b.Load(baddr, "htab")

	match := b.NewBlock("match")
	latch := b.NewBlock("latch")
	isMatch := b.Bin(ir.CmpEQ, bk, k)
	b.CondBr(isMatch, match, latch)
	body := l.Body
	_ = body

	b.SetBlock(match)
	bv := b.Load(b.Add(baddr, b.Const(8)), "htab")
	accM := b.Add(acc, bv)
	b.Br(latch)

	b.SetBlock(latch)
	accJ := b.Phi()
	b.SetPhiArgs(accJ, acc, accM)
	l.end(accJ)

	b.Ret(acc)
	return b.MustFinish()
}

// buildHJ8Fn adds the bucket list walk of Figure 1.
func buildHJ8Fn(v Variant, shift uint) *ir.Fn {
	b := ir.NewBuilder("hj8", 5)
	entry := b.NewBlock("entry")
	b.SetBlock(entry)
	skeyB, htabB, nV := b.Arg(0), b.Arg(1), b.Arg(2)
	mulV, shiftV := b.Arg(3), b.Arg(4)
	zero := b.Const(0)

	l := newLoop(b, "probe", nV, []ir.Value{zero}, v == Pragma)
	acc := l.Carried[0]
	if v == SWPf {
		// The "reads prefetched data" form (§7.1): load the bucket head
		// for a future probe, then prefetch the node it points at. In
		// software the head load stalls; converted to events it becomes a
		// latency-tolerant chain.
		dist := b.Const(16)
		id := b.Add(l.IV, dist)
		b.SWPf(wordAddr(b, skeyB, b.Add(id, dist)), "skey")
		kd := b.Load(wordAddr(b, skeyB, id), "skey")
		hd := b.Shr(b.Mul(kd, mulV), shiftV)
		headD := b.Load(b.Add(htabB, b.Shl(hd, b.Const(3))), "htab")
		b.SWPf(headD, "nodes")
	}
	k := b.Load(wordAddr(b, skeyB, l.IV), "skey")
	h := b.Shr(b.Mul(k, mulV), shiftV)
	head := b.Load(b.Add(htabB, b.Shl(h, b.Const(3))), "htab")

	// while (p != 0) { if node.key == k: acc += node.val; p = node.next }
	whead := b.NewBlock("walk.head")
	wbody := b.NewBlock("walk.body")
	wmatch := b.NewBlock("walk.match")
	wlatch := b.NewBlock("walk.latch")
	wexit := b.NewBlock("walk.exit")
	b.Br(whead)

	b.SetBlock(whead)
	p := b.Phi()
	wacc := b.Phi()
	alive := b.Bin(ir.CmpNE, p, zero)
	b.CondBr(alive, wbody, wexit)

	b.SetBlock(wbody)
	nk := b.Load(p, "nodes")
	isMatch := b.Bin(ir.CmpEQ, nk, k)
	b.CondBr(isMatch, wmatch, wlatch)

	b.SetBlock(wmatch)
	nv := b.Load(b.Add(p, b.Const(nodeVal)), "nodes")
	waccM := b.Add(wacc, nv)
	b.Br(wlatch)

	b.SetBlock(wlatch)
	waccJ := b.Phi()
	b.SetPhiArgs(waccJ, wacc, waccM)
	next := b.Load(b.Add(p, b.Const(nodeNext)), "nodes")
	b.Br(whead)
	b.SetPhiArgs(p, head, next)
	b.SetPhiArgs(wacc, acc, waccJ)

	b.SetBlock(wexit)
	l.end(wacc)

	b.Ret(acc)
	return b.MustFinish()
}
