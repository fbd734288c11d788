package workloads

import (
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

var (
	intsortProgram = loadProgram("intsort")
	intsortKernels = [][]ppu.Instr{ppuKernel("intsort.1.ppu"), ppuKernel("intsort.2.ppu")}
)

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

	manual := withKernels(intsortKernels, func(mc *system.Machine) {
		mc.PF.SetGlobal(0, count.Base)
		mc.PF.SetRange(0, prefetch.RangeConfig{
			Lo: keys.Base, Hi: keys.End(),
			LoadKernel: 1, PFKernel: prefetch.NoKernel,
			EWMAGroup: 0, Interval: true, TimedStart: true,
		})
	})

	check := func(mc *system.Machine, ret uint64, hasRet bool) error {
		if err := checkEq("intsort key checksum", ret, wantAcc); err != nil {
			return err
		}
		return checkRegion("count array", mc.Backing, count.Base, buckets, wantCount)
	}

	return &Instance{
		BuildFn: intsortProgram.build,
		Runs:    []Run{{Args: []uint64{keys.Base, count.Base, n}}},
		Manual:  manual,
		Check:   check,
	}
}
