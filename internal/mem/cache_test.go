package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"eventpf/internal/sim"
)

// fixedLevel is a next-level stub with constant latency. With a pool it
// releases each request into it, as DRAM does.
type fixedLevel struct {
	eng     *sim.Engine
	latency sim.Ticks
	count   int64
	pool    *Pool
}

func (f *fixedLevel) Access(req *Request) {
	f.count++
	if req.Comp != nil {
		f.eng.ScheduleAfter(f.latency, req.Comp, req.CompA, 0)
	}
	f.pool.Put(req)
}

func newTestCache(eng *sim.Engine, mshrs int) (*Cache, *fixedLevel) {
	next := &fixedLevel{eng: eng, latency: 1000}
	clk := sim.ClockFromMHz(1000)
	c := NewCache(eng, clk, CacheConfig{
		Name: "L1", SizeBytes: 1024, Ways: 2, HitCycles: 2, MSHRs: mshrs,
	}, next)
	return c, next
}

// doneFn and transFn are the tests' completion targets: closures taken
// through the typed handler path.
type doneFn func(at sim.Ticks)

func (f doneFn) Handle(at sim.Ticks, _, _ uint64) { f(at) }

type transFn func(ok bool)

func (f transFn) Handle(_ sim.Ticks, _, ok uint64) { f(ok != 0) }

func loadAt(eng *sim.Engine, c *Cache, addr uint64, done func(sim.Ticks)) {
	req := &Request{Addr: addr, Kind: Load, PC: -1, Tag: NoTag, TimedAt: -1}
	if done != nil {
		req.Comp = doneFn(done)
	}
	c.Access(req)
}

func TestCacheMissThenHit(t *testing.T) {
	eng := sim.NewEngine()
	c, next := newTestCache(eng, 4)

	var missAt, hitAt sim.Ticks = -1, -1
	loadAt(eng, c, 0x40, func(at sim.Ticks) { missAt = at })
	eng.Run()
	if missAt < 1000 {
		t.Errorf("miss completed at %d, want ≥ next-level latency", missAt)
	}
	if c.Stats.DemandLoads != 1 || c.Stats.DemandHits != 0 {
		t.Errorf("stats after miss: %+v", c.Stats)
	}

	loadAt(eng, c, 0x48, func(at sim.Ticks) { hitAt = at }) // same line
	start := eng.Now()
	eng.Run()
	if hitAt != start+32 { // 2 cycles at 1 GHz = 32 ticks
		t.Errorf("hit completed at %d, want %d", hitAt, start+32)
	}
	if c.Stats.DemandHits != 1 {
		t.Errorf("hit not counted: %+v", c.Stats)
	}
	if next.count != 1 {
		t.Errorf("next level saw %d accesses, want 1", next.count)
	}
}

func TestCacheMSHRMerge(t *testing.T) {
	eng := sim.NewEngine()
	c, next := newTestCache(eng, 4)
	completions := 0
	loadAt(eng, c, 0x40, func(sim.Ticks) { completions++ })
	loadAt(eng, c, 0x48, func(sim.Ticks) { completions++ }) // same line, merges
	eng.Run()
	if completions != 2 {
		t.Errorf("completions = %d, want 2", completions)
	}
	if next.count != 1 {
		t.Errorf("next level saw %d accesses, want 1 (merge)", next.count)
	}
	if c.Stats.MSHRMerges != 1 {
		t.Errorf("MSHRMerges = %d, want 1", c.Stats.MSHRMerges)
	}
}

func TestCacheMSHRLimitQueuesDemand(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCache(eng, 2)
	done := 0
	for i := 0; i < 4; i++ {
		loadAt(eng, c, uint64(0x1000*(i+1)), func(sim.Ticks) { done++ })
	}
	eng.Run()
	if done != 4 {
		t.Errorf("done = %d, want 4 (queued misses must eventually complete)", done)
	}
	if c.Stats.MSHRStalls != 2 {
		t.Errorf("MSHRStalls = %d, want 2", c.Stats.MSHRStalls)
	}
	if n, q, p := c.mshrCount, c.lookupQ.Len(), c.pendingMiss.Len(); n+q+p != 0 {
		t.Errorf("drained cache holds %d MSHRs, %d lookups, %d pending misses", n, q, p)
	}
}

func TestCachePrefetchDroppedWhenMSHRsFull(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCache(eng, 1)
	loadAt(eng, c, 0x1000, nil)
	c.Access(&Request{Addr: 0x2000, Kind: Prefetch, PC: -1, Tag: NoTag, TimedAt: -1})
	eng.Run()
	if c.Stats.PrefetchDrop != 1 {
		t.Errorf("PrefetchDrop = %d, want 1", c.Stats.PrefetchDrop)
	}
}

// An upper level with more MSHRs than the level below can send down a
// prefetch fill request when the lower MSHRs are full. That request carries
// the upper MSHR's fill handler, so dropping it would strand the upper slot
// and every demand load merged into it: it must queue instead.
func TestCacheAwaitedPrefetchQueuesWhenLowerMSHRsFull(t *testing.T) {
	eng := sim.NewEngine()
	clk := sim.ClockFromMHz(1000)
	l2, _ := newTestCache(eng, 1)
	l1 := NewCache(eng, clk, CacheConfig{Name: "L1", SizeBytes: 1024, Ways: 2, HitCycles: 2, MSHRs: 4}, l2)

	done := 0
	loadAt(eng, l1, 0x1000, func(sim.Ticks) { done++ }) // occupies the only L2 MSHR
	l1.Access(&Request{Addr: 0x2000, Kind: Prefetch, PC: -1, Tag: NoTag, TimedAt: -1})
	loadAt(eng, l1, 0x2008, func(sim.Ticks) { done++ }) // merges into the prefetch's L1 MSHR
	eng.Run()

	if done != 2 {
		t.Errorf("done = %d, want 2 (the load merged into the prefetch never completed)", done)
	}
	if l1.InFlightMSHRs() != 0 || l2.InFlightMSHRs() != 0 {
		t.Errorf("MSHRs still held after drain: L1 %d, L2 %d", l1.InFlightMSHRs(), l2.InFlightMSHRs())
	}
	if l2.Stats.PrefetchDrop != 0 || l2.Stats.MSHRStalls != 1 {
		t.Errorf("L2 PrefetchDrop = %d, MSHRStalls = %d, want 0 and 1", l2.Stats.PrefetchDrop, l2.Stats.MSHRStalls)
	}
}

func TestCachePrefetchFillThenDemandHit(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCache(eng, 4)
	c.Access(&Request{Addr: 0x40, Kind: Prefetch, PC: -1, Tag: NoTag, TimedAt: -1})
	eng.Run()
	if c.Stats.PrefetchFills != 1 {
		t.Fatalf("PrefetchFills = %d, want 1", c.Stats.PrefetchFills)
	}
	hit := false
	loadAt(eng, c, 0x40, func(sim.Ticks) { hit = true })
	eng.Run()
	if !hit || c.Stats.DemandHits != 1 {
		t.Errorf("demand after prefetch: hit=%v stats=%+v", hit, c.Stats)
	}
	c.FinalizeStats()
	if c.Stats.PrefetchUsed != 1 || c.Stats.PrefetchDead != 0 {
		t.Errorf("utilisation counters: %+v", c.Stats)
	}
	if got := c.Stats.PrefetchUtilisation(); got != 1.0 {
		t.Errorf("PrefetchUtilisation = %v, want 1.0", got)
	}
}

func TestCacheDeadPrefetchCounted(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCache(eng, 4)
	c.Access(&Request{Addr: 0x40, Kind: Prefetch, PC: -1, Tag: NoTag, TimedAt: -1})
	eng.Run()
	c.FinalizeStats()
	if c.Stats.PrefetchDead != 1 {
		t.Errorf("PrefetchDead = %d, want 1", c.Stats.PrefetchDead)
	}
}

func TestCacheTaggedPrefetchFiresHook(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCache(eng, 4)
	var fired []int
	c.OnPrefetchFill = func(line uint64, tag int, timedAt sim.Ticks, filled bool) {
		fired = append(fired, tag)
	}
	c.Access(&Request{Addr: 0x40, Kind: Prefetch, PC: -1, Tag: 7, TimedAt: -1})
	eng.Run()
	if len(fired) != 1 || fired[0] != 7 {
		t.Fatalf("fill hook fired %v, want [7]", fired)
	}
	// Prefetch to a resident line must still fire the hook (chain continues).
	c.Access(&Request{Addr: 0x40, Kind: Prefetch, PC: -1, Tag: 9, TimedAt: -1})
	eng.Run()
	if len(fired) != 2 || fired[1] != 9 {
		t.Errorf("resident-line prefetch hook fired %v, want [7 9]", fired)
	}
}

// The tagged-lookup hook fires once per tagged prefetch, right after its
// lookup resolves and after that outcome's own callback, whatever the outcome
// — and never for an untagged prefetch or a demand access.
func TestCacheTaggedLookupHook(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCache(eng, 2)
	var log []string
	c.OnTaggedLookup = func() { log = append(log, "lookup") }
	c.OnPrefetchFill = func(_ uint64, _ int, _ sim.Ticks, filled bool) {
		if filled {
			log = append(log, "fill")
		} else {
			log = append(log, "resident")
		}
	}
	c.OnPrefetchDrop = func(uint64, int) { log = append(log, "drop") }
	prefetch := func(addr uint64, tag int) {
		c.Access(&Request{Addr: addr, Kind: Prefetch, PC: -1, Tag: tag, TimedAt: -1})
	}
	const lookup = 32 // newTestCache: 2 hit cycles at 1 GHz
	check := func(step string, want ...string) {
		t.Helper()
		if len(log) != len(want) {
			t.Fatalf("%s: hooks fired %v, want %v", step, log, want)
		}
		for i := range want {
			if log[i] != want[i] {
				t.Fatalf("%s: hooks fired %v, want %v", step, log, want)
			}
		}
		log = log[:0]
	}

	prefetch(0x40, 1) // allocates an MSHR
	prefetch(0x48, 2) // merges into it
	eng.RunUntil(eng.Now() + lookup)
	check("MSHR allocated, then merged", "lookup", "lookup")
	eng.Run()
	check("fill of both tags", "fill", "fill")

	prefetch(0x40, 3) // resident now
	eng.Run()
	check("hit", "resident", "lookup")

	loadAt(eng, c, 0x1000, nil)
	loadAt(eng, c, 0x2000, nil) // both MSHRs held by demand misses
	prefetch(0x3000, 4)
	eng.RunUntil(eng.Now() + lookup)
	check("dropped", "drop", "lookup")
	eng.Run()

	prefetch(0x4000, NoTag)
	prefetch(0x40, NoTag)
	loadAt(eng, c, 0x5000, nil)
	loadAt(eng, c, 0x40, nil)
	c.Access(&Request{Addr: 0x40, Kind: Store, PC: -1, Tag: NoTag, TimedAt: -1})
	eng.Run()
	check("untagged prefetches and demand accesses")
}

func TestCacheDemandSnoopHook(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCache(eng, 4)
	type obs struct {
		addr uint64
		hit  bool
	}
	var seen []obs
	c.OnDemandAccess = func(addr uint64, pc int, hit bool) { seen = append(seen, obs{addr, hit}) }
	loadAt(eng, c, 0x44, nil)
	eng.Run()
	loadAt(eng, c, 0x44, nil)
	eng.Run()
	if len(seen) != 2 || seen[0].hit || !seen[1].hit {
		t.Errorf("snoop observations = %+v", seen)
	}
	if seen[0].addr != 0x44 {
		t.Errorf("snoop saw addr %#x, want exact address 0x44", seen[0].addr)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCache(eng, 8) // 1 KB, 2-way, 8 sets
	// Three lines mapping to set 0: 0x0, 0x200, 0x400 (stride = sets*64).
	loadAt(eng, c, 0x0, nil)
	eng.Run()
	loadAt(eng, c, 0x200, nil)
	eng.Run()
	loadAt(eng, c, 0x0, nil) // touch 0x0 so 0x200 is LRU
	eng.Run()
	loadAt(eng, c, 0x400, nil) // must evict 0x200
	eng.Run()
	if !c.Contains(0x0) || !c.Contains(0x400) || c.Contains(0x200) {
		t.Errorf("LRU eviction wrong: contains(0)=%v contains(400)=%v contains(200)=%v",
			c.Contains(0x0), c.Contains(0x400), c.Contains(0x200))
	}
}

func TestCacheWritebackOnDirtyEviction(t *testing.T) {
	eng := sim.NewEngine()
	next := &fixedLevel{eng: eng, latency: 10}
	c := NewCache(eng, sim.ClockFromMHz(1000), CacheConfig{
		Name: "L1", SizeBytes: 128, Ways: 1, HitCycles: 1, MSHRs: 4,
	}, next)
	c.Access(&Request{Addr: 0x0, Kind: Store, PC: -1, Tag: NoTag, TimedAt: -1})
	eng.Run()
	before := next.count
	loadAt(eng, c, 0x80, nil) // conflicts with 0x0 in the 2-set direct-mapped cache
	eng.Run()
	// next sees: fill for 0x80 plus a writeback of dirty 0x0.
	if next.count != before+2 {
		t.Errorf("next level accesses = %d, want %d (fill+writeback)", next.count, before+2)
	}
	if c.Stats.Writebacks == 0 {
		t.Error("writeback not counted")
	}
}

func TestOnMSHRFreeKick(t *testing.T) {
	eng := sim.NewEngine()
	c, _ := newTestCache(eng, 1)
	kicks := 0
	c.OnMSHRFree = func() { kicks++ }
	loadAt(eng, c, 0x1000, nil)
	eng.Run()
	if kicks != 1 {
		t.Errorf("OnMSHRFree fired %d times, want 1", kicks)
	}
}

// Property: a demand load to an address always completes, and a second load
// to the same line issued after the first completes always hits.
func TestCacheHitAfterFillProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		c, _ := newTestCache(eng, 12)
		addrs := make([]uint64, 20)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(1<<16)) &^ 7
		}
		for _, a := range addrs {
			done := false
			loadAt(eng, c, a, func(sim.Ticks) { done = true })
			eng.Run()
			if !done {
				return false
			}
			hit := false
			loadAt(eng, c, a, func(sim.Ticks) { hit = true })
			hits := c.Stats.DemandHits
			eng.Run()
			if !hit || c.Stats.DemandHits != hits+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// BenchmarkCacheAccess measures one demand load through a cache of Table 1's
// L1 geometry (32 KB, 2 ways, 2-cycle hit, 12 MSHRs), from Access through
// finishLookup to its completion, over a next level that completes and
// releases each request as DRAM does: a hit (256 lines cycled, one per set),
// a miss (4096 lines cycled: each has left the cache by its next turn) and
// mshr-full (misses issued 24 at a time before the engine runs, so half of
// them wait in pendingMiss for a register). None may allocate.
func BenchmarkCacheAccess(b *testing.B) {
	for _, bc := range []struct {
		name  string
		lines int
		batch int // loads issued before the engine runs
	}{{"hit", 256, 1}, {"miss", 4096, 1}, {"mshr-full", 4096, 24}} {
		b.Run(bc.name, func(b *testing.B) {
			eng := sim.NewEngine()
			pool := NewPool()
			c := NewCache(eng, sim.ClockFromMHz(3200), CacheConfig{
				Name: "L1D", SizeBytes: 32 << 10, Ways: 2, HitCycles: 2, MSHRs: 12,
			}, &fixedLevel{eng: eng, latency: 1000, pool: pool})
			c.Pool = pool
			i := 0
			load := func() {
				req := pool.Get()
				req.Addr, req.Kind, req.PC = 0x100000+uint64(i%bc.lines)*LineSize, Load, -1
				req.Tag, req.TimedAt = NoTag, -1
				req.Comp = nopHandler{}
				c.Access(req)
				if i++; i%bc.batch == 0 {
					eng.Run()
				}
			}
			for i < 2*bc.lines { // bring every line in
				load()
			}
			eng.Run()
			before := c.Stats
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				load()
			}
			eng.Run()
			b.StopTimer()
			loads, hits := c.Stats.DemandLoads-before.DemandLoads, c.Stats.DemandHits-before.DemandHits
			misses, stalls := c.Stats.Misses-before.Misses, c.Stats.MSHRStalls-before.MSHRStalls
			switch {
			case loads != int64(b.N):
				b.Fatalf("%d loads looked up, want %d", loads, b.N)
			case bc.name == "hit" && hits != loads, bc.name != "hit" && misses != loads:
				b.Fatalf("%d hits and %d misses in %d %ss", hits, misses, loads, bc.name)
			case bc.batch == 1 && stalls != 0, bc.batch > 1 && b.N >= 2*bc.batch && stalls < loads/3:
				b.Fatalf("%d misses waited for an MSHR in %d %ss", stalls, loads, bc.name)
			}
			if a := testing.AllocsPerRun(100, load); a != 0 {
				b.Fatalf("%v allocations per load, want none", a)
			}
			eng.Run()
			if c.lookupQ.Len()+c.pendingMiss.Len()+c.mshrCount != 0 {
				b.Fatalf("drained cache still holds requests")
			}
		})
	}
}
