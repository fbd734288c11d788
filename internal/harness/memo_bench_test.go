package harness

import (
	"fmt"
	"runtime"
	"testing"
)

// memoBudget bounds what one memo operation allocates, in objects and bytes:
// the measurement (amd64, 1 000 to 100 000 operations: 2.02 objects and
// 1.08–1.12 KB fresh) plus 25 %. A fresh key allocates its entry, which holds
// the Result by value, and the entry's done channel, and pays its share of
// the map's growth; a claim that finds a filled entry allocates nothing.
var memoBudget = map[string]struct{ allocs, bytes float64 }{
	"fresh": {2.5, 1400},
	"hit":   {0, 0},
}

// BenchmarkMemoClaimFill is the memo's own cost per simulation a Suite
// starts or joins: Suite.claim and fill for a key nobody has claimed
// ("fresh"), and a claim that finds the key's entry filled ("hit"), the path
// every repeated figure point takes. Keys are made before the timer starts.
// Each row reports allocations and fails itself above its memoBudget.
func BenchmarkMemoClaimFill(b *testing.B) {
	for _, name := range []string{"fresh", "hit"} {
		b.Run(name, func(b *testing.B) {
			s := NewSuite(Options{})
			c, _ := s.claim("warm") // the map's first allocation
			fill(c, Result{}, nil)
			keys := make([]string, b.N)
			for i := range keys {
				keys[i] = fmt.Sprintf("HJ-2/manual/p12/f1000/s%d", i)
			}
			if name == "hit" {
				for _, k := range keys {
					c, _ := s.claim(k)
					fill(c, Result{}, nil)
				}
			}
			var before, after runtime.MemStats
			b.ReportAllocs()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for _, k := range keys {
				c, mine := s.claim(k)
				if mine {
					fill(c, Result{}, nil)
				} else {
					<-c.done
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			allocs := float64(after.Mallocs-before.Mallocs) / float64(b.N)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(b.N)
			if budget := memoBudget[name]; allocs > budget.allocs || bytes > budget.bytes {
				b.Errorf("%s: %.2f allocs, %.0f B an operation; budget %.2f, %.0f", name, allocs, bytes, budget.allocs, budget.bytes)
			}
		})
	}
}
