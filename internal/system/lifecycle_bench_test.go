package system

import (
	"runtime"
	"testing"
)

// lifecycleBudget bounds what one New + Release of a Table 1 machine
// allocates once an earlier machine has filled the pools, in objects and
// bytes a machine: the measurement (amd64: 15 objects and 4.4 KB for no-pf,
// 23 and 6.3 KB manual and manual-blocked, 19 and 4.7 KB ghb-regular, 37 and
// 7.7 KB adaptive) plus 25 %. What is left is the machine's own structs — the
// Machine, its engine, caches, TLB, DRAM, core and prefetchers, and the
// closures New binds — and none of the tables they size or grow, which
// Release hands to the next machine. While the core held its completion
// rings inline each machine allocated 7.7 KB more; when Release returned
// only pages, line arrays and the L2-TLB array, a no-pf machine allocated
// 64 KB, a manual one 83 KB and an adaptive one 138 KB.
var lifecycleBudget = map[string]struct{ allocs, bytes float64 }{
	"no-pf":          {19, 5_500},
	"manual":         {29, 7_900},
	"manual-blocked": {29, 7_900},
	"ghb-regular":    {24, 5_900},
	"adaptive":       {47, 9_600},
}

// BenchmarkMachineLifecycle is one machine built at Table 1 sizes and
// released, under each scheme whose tables differ: what a point of a sweep
// pays for its machine before it simulates anything. Each row fails itself
// above its lifecycleBudget.
func BenchmarkMachineLifecycle(b *testing.B) {
	blocked := DefaultConfig()
	blocked.Prefetcher.Blocked = true
	for _, row := range []struct {
		name   string
		cfg    Config
		scheme Scheme
	}{
		{"no-pf", DefaultConfig(), NoPF},
		{"manual", DefaultConfig(), Programmable},
		{"manual-blocked", blocked, Programmable},
		{"ghb-regular", DefaultConfig(), GHBRegular},
		{"adaptive", DefaultConfig(), Adaptive},
	} {
		b.Run(row.name, func(b *testing.B) {
			New(row.cfg, row.scheme).Release() // fill the pools
			var before, after runtime.MemStats
			b.ReportAllocs()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				New(row.cfg, row.scheme).Release()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			allocs := float64(after.Mallocs-before.Mallocs) / float64(b.N)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N)
			if budget := lifecycleBudget[row.name]; allocs > budget.allocs || bytes > budget.bytes {
				b.Errorf("a %s machine allocated %.1f objects, %.0f B; budget %.0f, %.0f",
					row.name, allocs, bytes, budget.allocs, budget.bytes)
			}
		})
	}
}
