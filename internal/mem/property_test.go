package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"eventpf/internal/sim"
)

// Property: the cache never holds the same line in two ways of a set, and
// never holds more valid lines than its capacity, under any access mix.
func TestCacheNoDuplicateLines(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		c, _ := newTestCache(eng, 8)
		for i := 0; i < 300; i++ {
			addr := uint64(rng.Intn(1 << 13))
			kind := Load
			switch rng.Intn(3) {
			case 1:
				kind = Store
			case 2:
				kind = Prefetch
			}
			c.Access(&Request{Addr: addr, Kind: kind, PC: -1, Tag: NoTag, TimedAt: -1})
			if rng.Intn(4) == 0 {
				eng.Run()
			}
		}
		eng.Run()
		seen := map[uint64]int{}
		valid := 0
		for _, l := range c.lines {
			if l.has(lineValid) {
				valid++
				seen[l.addr()]++
				if seen[l.addr()] > 1 {
					return false
				}
			}
		}
		return valid <= c.sets*c.cfg.Ways
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: every demand access eventually completes, regardless of MSHR
// pressure and interleaving with prefetches.
func TestCacheAllDemandsComplete(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		c, _ := newTestCache(eng, 3)
		want, got := 0, 0
		for i := 0; i < 200; i++ {
			addr := uint64(rng.Intn(1 << 14))
			if rng.Intn(3) == 0 {
				c.Access(&Request{Addr: addr, Kind: Prefetch, PC: -1, Tag: NoTag, TimedAt: -1})
				continue
			}
			want++
			c.Access(&Request{Addr: addr, Kind: Load, PC: -1, Tag: NoTag, TimedAt: -1,
				Comp: doneFn(func(sim.Ticks) { got++ })})
		}
		eng.Run()
		return got == want && c.mshrCount == 0 && c.lookupQ.Len() == 0 && c.pendingMiss.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: prefetch accounting is conserved: fills are eventually
// classified as used or dead once finalized.
func TestCachePrefetchAccountingConserved(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		c, _ := newTestCache(eng, 6)
		for i := 0; i < 250; i++ {
			addr := uint64(rng.Intn(1 << 13))
			kind := Prefetch
			if rng.Intn(2) == 0 {
				kind = Load
			}
			c.Access(&Request{Addr: addr, Kind: kind, PC: -1, Tag: NoTag, TimedAt: -1})
			if rng.Intn(3) == 0 {
				eng.Run()
			}
		}
		eng.Run()
		c.FinalizeStats()
		return c.Stats.PrefetchUsed+c.Stats.PrefetchDead == c.Stats.PrefetchFills
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: DRAM completions are monotone per bank and never before the
// request plus its minimum service time.
func TestDRAMCompletionBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		cfg := DefaultDRAMConfig()
		d := NewDRAM(eng, cfg)
		clk := sim.ClockFromMHz(cfg.BusMHz)
		minService := clk.Cycles(int64(cfg.TCAS + cfg.CtrlCycles + cfg.BurstCycles))
		okAll := true
		for i := 0; i < 100; i++ {
			line := uint64(rng.Intn(1<<20)) &^ 63
			issued := eng.Now()
			d.Access(&Request{Line: line, Kind: Load, Comp: doneFn(func(at sim.Ticks) {
				if at-issued < minService {
					okAll = false
				}
			})})
			if rng.Intn(3) == 0 {
				eng.RunUntil(eng.Now() + sim.Ticks(rng.Intn(500)))
			}
		}
		eng.Run()
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: TLB translations always complete and report mapped pages
// correctly.
func TestTLBCorrectness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		tlb, bk := newTestTLB(eng)
		mapped := map[uint64]bool{}
		for i := 0; i < 20; i++ {
			page := uint64(rng.Intn(64)) * PageSize
			if rng.Intn(2) == 0 {
				bk.MapPage(page)
				mapped[page] = true
			}
		}
		okAll := true
		pending := 0
		for i := 0; i < 100; i++ {
			page := uint64(rng.Intn(64)) * PageSize
			want := mapped[page]
			pending++
			tlb.TranslateTo(page+uint64(rng.Intn(PageSize)), transFn(func(ok bool) {
				pending--
				if ok != want {
					okAll = false
				}
			}), 0)
			if rng.Intn(3) == 0 {
				eng.Run()
			}
		}
		eng.Run()
		return okAll && pending == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
