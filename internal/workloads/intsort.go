package workloads

import (
	"eventpf/internal/ir"
	"eventpf/internal/ppu"
	"eventpf/internal/prefetch"
	"eventpf/internal/system"
)

// IntSort is the NAS IS counting-sort kernel: a strided sweep over a key
// array driving indirect increments of a bucket-count array (Table 2:
// stride-indirect). The count array is far larger than L2, so each
// increment is a dependent load+store miss.
var IntSort = &Benchmark{
	Name:    "IntSort",
	Source:  "NAS",
	Pattern: "Stride-indirect",
	Input:   "B",
	Build:   buildIntSort,
}

const (
	intsortKeys     = 1 << 19
	intsortBucketLg = 17
)

func buildIntSort(m *system.Machine, scale float64) *Instance {
	n := uint64(scaled(intsortKeys, scale))
	buckets := uint64(1) << intsortBucketLg

	// Padded by the software-prefetch distance so key[i+dist] never
	// overruns (real software-prefetch code pads or guards the same way).
	keys := m.Arena.AllocWords("keys", n+64)
	count := m.Arena.AllocWords("count", buckets)

	// Oracle: the histogram's digest, one added to bucket k per key k.
	rng := splitmix64(0x15)
	var wantAcc uint64
	var wantCount digest
	for i := uint64(0); i < n; i++ {
		k := rng.next() & (buckets - 1)
		m.Backing.Write64(keys.Base+i*8, k)
		wantCount = wantCount.add(k, 1)
		wantAcc += k
	}

	fn := func(v Variant) *ir.Fn {
		b := ir.NewBuilder("intsort", 3)
		entry := b.NewBlock("entry")
		b.SetBlock(entry)
		keysB, countB, nV := b.Arg(0), b.Arg(1), b.Arg(2)
		zero := b.Const(0)

		l := newLoop(b, "hist", nV, []ir.Value{zero}, v == Pragma)
		acc := l.Carried[0]
		if v == SWPf {
			// The standard software-prefetch insertion for stride-indirect
			// loops [Ainsworth & Jones, CGO'17]: prefetch the index array at
			// twice the look-ahead and the indirect target at one look-ahead.
			// The duplicated key load and address arithmetic are the source
			// of the dynamic-instruction increase the paper reports (§7.1).
			dist := b.Const(64)
			id := b.Add(l.IV, dist)
			b.SWPf(wordAddr(b, keysB, b.Add(id, dist)), "keys")
			kd := b.Load(wordAddr(b, keysB, id), "keys")
			b.SWPf(wordAddr(b, countB, kd), "count")
		}
		k := b.Load(wordAddr(b, keysB, l.IV), "keys")
		caddr := wordAddr(b, countB, k)
		c := b.Load(caddr, "count")
		one := b.Const(1)
		b.Store(caddr, b.Add(c, one), "count")
		acc2 := b.Add(acc, k)
		l.end(acc2)

		b.Ret(acc)
		return b.MustFinish()
	}

	manual := func(mc *system.Machine) {
		// Event 1, on demand loads of the key array: prefetch the key the
		// EWMA says we will need, chained so its arrival triggers event 2.
		mc.RegisterKernel(1, ppu.MustAssemble(`
			vaddr  r1
			addi   r1, r1, 512  ; hand-tuned look-ahead distance
			pftag  r1, 2
			halt
		`))
		// Event 2, key data arrived: fetch the bucket counter it indexes.
		mc.RegisterKernel(2, ppu.MustAssemble(`
			lddata r1
			shli   r1, r1, 3
			ldg    r2, g0
			add    r1, r1, r2
			pf     r1
			halt
		`))
		mc.PF.SetGlobal(0, count.Base)
		mc.PF.SetRange(0, prefetch.RangeConfig{
			Lo: keys.Base, Hi: keys.End(),
			LoadKernel: 1, PFKernel: prefetch.NoKernel,
			EWMAGroup: 0, Interval: true, TimedStart: true,
		})
	}

	check := func(mc *system.Machine, ret uint64, hasRet bool) error {
		if err := checkEq("intsort key checksum", ret, wantAcc); err != nil {
			return err
		}
		return checkRegion("count array", mc.Backing, count.Base, buckets, wantCount)
	}

	return &Instance{
		BuildFn: fn,
		Runs:    []Run{{Args: []uint64{keys.Base, count.Base, n}}},
		Manual:  manual,
		Check:   check,
	}
}
