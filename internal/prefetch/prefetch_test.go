package prefetch

import (
	"testing"

	"eventpf/internal/mem"
	"eventpf/internal/ppu"
	"eventpf/internal/sim"
	"eventpf/internal/trace"
)

// fn is the tests' event handler: a closure scheduled through the typed path.
type fn func()

func (f fn) Handle(sim.Ticks, uint64, uint64) { f() }

type stubLevel struct {
	eng     *sim.Engine
	latency sim.Ticks
	reads   int64
	pool    *mem.Pool // where serviced requests go; nil leaves them to the collector
}

func (s *stubLevel) Access(req *mem.Request) {
	if req.Kind != mem.Writeback {
		s.reads++
		if req.Comp != nil {
			s.eng.ScheduleAfter(s.latency, req.Comp, req.CompA, 0)
		}
	}
	s.pool.Put(req)
}

type fixture struct {
	eng   *sim.Engine
	bk    *mem.Backing
	arena *mem.Arena
	l1    *mem.Cache
	tlb   *mem.TLB
	pf    *Prefetcher
	next  *stubLevel
}

func newFixture(t testing.TB, cfg Config) *fixture {
	t.Helper()
	eng := sim.NewEngine()
	bk := mem.NewBacking()
	arena := mem.NewArena(bk)
	next := &stubLevel{eng: eng, latency: 2000}
	clk := sim.ClockFromMHz(3200)
	l1 := mem.NewCache(eng, clk, mem.CacheConfig{
		Name: "L1", SizeBytes: 32 << 10, Ways: 2, HitCycles: 2, MSHRs: 12,
	}, next)
	tlb := mem.NewTLB(eng, clk, mem.DefaultTLBConfig(), bk)
	pf := New(eng, cfg, bk, l1, tlb)
	return &fixture{eng: eng, bk: bk, arena: arena, l1: l1, tlb: tlb, pf: pf, next: next}
}

func (f *fixture) demandLoad(addr uint64) {
	f.l1.Access(&mem.Request{Addr: addr, Kind: mem.Load, PC: -1, Tag: mem.NoTag, TimedAt: -1})
}

func TestLoadObservationTriggersPrefetch(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	arr := f.arena.AllocWords("A", 1024)

	// Figure 4(b) on_A_load: prefetch 128 bytes ahead of the observed load.
	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		addi  r1, r1, 128
		pf    r1
		halt
	`))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})

	f.demandLoad(arr.Base)
	f.eng.Run()

	if f.pf.Stats.LoadObservations != 1 || f.pf.Stats.KernelRuns != 1 {
		t.Fatalf("stats = %+v", f.pf.Stats)
	}
	if f.pf.Stats.Issued != 1 {
		t.Fatalf("issued = %d, want 1", f.pf.Stats.Issued)
	}
	if !f.l1.Contains(arr.Base + 128) {
		t.Error("prefetched line not resident in L1")
	}
}

func TestChainedPrefetchFigure4(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	a := f.arena.AllocWords("A", 1024)
	b := f.arena.AllocWords("B", 1024)
	c := f.arena.AllocWords("C", 1024)

	// A[i] holds indices into B; B[x] holds indices into C.
	f.bk.Write64(a.Base+128, 17) // A two lines ahead of base
	f.bk.Write64(b.Base+17*8, 99)

	// Kernel 1 (on A load): prefetch A two lines ahead, tagged to kernel 2.
	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		addi  r1, r1, 128
		pftag r1, 2
		halt
	`))
	// Kernel 2 (A data arrived): fetch = B_base + dat*8, tagged to kernel 3.
	f.pf.RegisterKernel(2, ppu.MustAssemble(`
		lddata r1
		shli   r1, r1, 3
		ldg    r2, g1
		add    r1, r1, r2
		pftag  r1, 3
		halt
	`))
	// Kernel 3 (B data arrived): fetch = C_base + dat*8, end of chain.
	f.pf.RegisterKernel(3, ppu.MustAssemble(`
		lddata r1
		shli   r1, r1, 3
		ldg    r2, g2
		add    r1, r1, r2
		pf     r1
		halt
	`))
	f.pf.SetGlobal(1, b.Base)
	f.pf.SetGlobal(2, c.Base)
	f.pf.SetRange(0, RangeConfig{Lo: a.Base, Hi: a.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})

	f.demandLoad(a.Base)
	f.eng.Run()

	if !f.l1.Contains(a.Base + 128) {
		t.Error("A+128 not prefetched")
	}
	if !f.l1.Contains(b.Base + 17*8) {
		t.Error("B[A[x]] not prefetched (chain step 2)")
	}
	if !f.l1.Contains(c.Base + 99*8) {
		t.Error("C[B[A[x]]] not prefetched (chain step 3)")
	}
	if f.pf.Stats.KernelRuns != 3 {
		t.Errorf("kernel runs = %d, want 3", f.pf.Stats.KernelRuns)
	}
}

func TestRangeBasedFillKernel(t *testing.T) {
	// No explicit tag: the fill lands in a range whose PFKernel is set.
	f := newFixture(t, DefaultConfig())
	a := f.arena.AllocWords("A", 1024)
	b := f.arena.AllocWords("B", 1024)
	f.bk.Write64(a.Base+128, 5)

	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		addi  r1, r1, 128
		pf    r1
		halt
	`))
	f.pf.RegisterKernel(2, ppu.MustAssemble(`
		lddata r1
		shli   r1, r1, 3
		ldg    r2, g1
		add    r1, r1, r2
		pf     r1
		halt
	`))
	f.pf.SetGlobal(1, b.Base)
	f.pf.SetRange(0, RangeConfig{Lo: a.Base, Hi: a.End(),
		LoadKernel: 1, PFKernel: 2, EWMAGroup: -1})

	f.demandLoad(a.Base)
	f.eng.Run()

	if !f.l1.Contains(b.Base + 5*8) {
		t.Error("range-triggered fill kernel did not run")
	}
}

func TestObservationQueueDropsOldest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPPUs = 1
	cfg.ObsQueue = 4
	f := newFixture(t, cfg)
	arr := f.arena.AllocWords("A", 1<<16)

	// A deliberately slow kernel so observations pile up.
	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		movi r1, 0
		movi r2, 200
	loop:
		addi r1, r1, 1
		blt  r1, r2, loop
		halt
	`))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})

	for i := 0; i < 20; i++ {
		f.demandLoad(arr.Base + uint64(i)*64)
	}
	f.eng.Run()
	if f.pf.Stats.ObsDropped == 0 {
		t.Error("no observations dropped despite tiny queue")
	}
	if f.pf.Stats.KernelRuns+f.pf.Stats.ObsDropped != 20 {
		t.Errorf("runs (%d) + drops (%d) != 20", f.pf.Stats.KernelRuns, f.pf.Stats.ObsDropped)
	}
}

func TestRequestQueueOverflowDrops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReqQueue = 4
	f := newFixture(t, cfg)
	arr := f.arena.AllocWords("A", 1<<20)

	// One observation generates 64 prefetches; the queue holds 4 and the
	// 12 MSHRs bound what drains instantly.
	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		movi  r2, 0
		movi  r3, 64
	loop:
		addi  r1, r1, 64
		pf    r1
		addi  r2, r2, 1
		blt   r2, r3, loop
		halt
	`))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})
	f.demandLoad(arr.Base)
	f.eng.Run()
	if f.pf.Stats.ReqDropped == 0 {
		t.Errorf("no request drops; stats = %+v", f.pf.Stats)
	}
}

func TestPrefetchToUnmappedPageDropped(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	arr := f.arena.AllocWords("A", 8) // one page + guard

	// Kernel prefetches far past the allocation: unmapped.
	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		movi  r2, 1048576
		add   r1, r1, r2
		pf    r1
		halt
	`))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})
	f.demandLoad(arr.Base)
	f.eng.Run()
	if f.pf.Stats.TLBDrops != 1 {
		t.Errorf("TLBDrops = %d, want 1 (§5.3 page-fault discard)", f.pf.Stats.TLBDrops)
	}
	if f.pf.Stats.Issued != 0 {
		t.Errorf("issued = %d, want 0", f.pf.Stats.Issued)
	}
}

func TestEWMALookahead(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	arr := f.arena.AllocWords("A", 1<<16)
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: NoKernel, PFKernel: NoKernel, EWMAGroup: 0, Interval: true})

	if got := f.pf.Lookahead(0); got != 4 {
		t.Errorf("default lookahead = %d, want 4", got)
	}
	// Demand loads every 100 ticks feed the interval EWMA.
	for i := 0; i < 32; i++ {
		addr := arr.Base + uint64(i)*8
		f.eng.Schedule(sim.Ticks(i)*100, fn(func() { f.pf.Observe(addr, -1, true) }), 0, 0)
	}
	f.eng.Run()
	// Inject chain completion times of 1000 ticks: lookahead → 10.
	for i := 0; i < 32; i++ {
		f.pf.ewma[0].observeLoadTime(1000)
	}
	if got := f.pf.Lookahead(0); got != 16 {
		t.Errorf("lookahead = %d, want 16 (1000/100 rounded up to a power of two)", got)
	}
}

func TestEWMATimedChainMeasuresLatency(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	a := f.arena.AllocWords("A", 1024)
	b := f.arena.AllocWords("B", 1024)
	f.bk.Write64(a.Base+128, 3)

	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		addi  r1, r1, 128
		pftag r1, 2
		halt
	`))
	f.pf.RegisterKernel(2, ppu.MustAssemble(`
		lddata r1
		shli   r1, r1, 3
		ldg    r2, g1
		add    r1, r1, r2
		pf     r1
		halt
	`))
	f.pf.SetGlobal(1, b.Base)
	// Loads on A start timed chains; fills back into A end them.
	f.pf.SetRange(0, RangeConfig{Lo: a.Base, Hi: a.End(),
		LoadKernel: 1, PFKernel: NoKernel,
		EWMAGroup: 0, Interval: true, TimedStart: true, TimedEnd: true})

	f.demandLoad(a.Base)
	f.eng.Run()
	if f.pf.ewma[0].loadTime <= 0 {
		t.Error("timed chain did not record a load time")
	}
}

func TestSchedulerPrefersLowestID(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	arr := f.arena.AllocWords("A", 1<<16)
	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		addi  r1, r1, 64
		pf    r1
		halt
	`))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})
	for i := 0; i < 50; i++ {
		f.demandLoad(arr.Base + uint64(i)*512)
	}
	f.eng.Run()
	act := f.pf.ActivityFactors()
	if act[0] == 0 {
		t.Fatal("PPU 0 never ran")
	}
	for i := 1; i < len(act); i++ {
		if act[i] > act[0]+1e-9 {
			t.Errorf("PPU %d busier (%.4f) than PPU 0 (%.4f)", i, act[i], act[0])
		}
	}
}

func TestBlockedModeSerialisesChains(t *testing.T) {
	mkFixture := func(blocked bool) *fixture {
		cfg := DefaultConfig()
		cfg.NumPPUs = 1
		cfg.Blocked = blocked
		f := newFixture(t, cfg)
		return f
	}
	run := func(f *fixture) sim.Ticks {
		a := f.arena.AllocWords("A", 1<<16)
		b := f.arena.AllocWords("B", 1<<16)
		for i := uint64(0); i < 8; i++ {
			f.bk.Write64(a.Base+i*512+128, i*7)
		}
		f.pf.RegisterKernel(1, ppu.MustAssemble(`
			vaddr r1
			addi  r1, r1, 128
			pftag r1, 2
			halt
		`))
		f.pf.RegisterKernel(2, ppu.MustAssemble(`
			lddata r1
			shli   r1, r1, 3
			ldg    r2, g1
			add    r1, r1, r2
			pf     r1
			halt
		`))
		f.pf.SetGlobal(1, b.Base)
		f.pf.SetRange(0, RangeConfig{Lo: a.Base, Hi: a.End(),
			LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})
		for i := 0; i < 8; i++ {
			f.demandLoad(a.Base + uint64(i)*512) // distinct lines, distinct targets
		}
		f.eng.Run()
		return f.eng.Now()
	}
	eventTime := run(mkFixture(false))
	blockedTime := run(mkFixture(true))
	if blockedTime <= eventTime {
		t.Errorf("blocked mode (%d ticks) not slower than event mode (%d ticks)",
			blockedTime, eventTime)
	}
}

func TestFlushClearsState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPPUs = 1
	f := newFixture(t, cfg)
	arr := f.arena.AllocWords("A", 1<<16)
	// One prefetch far past the array, on an unmapped page, one on the next
	// line.
	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		addi  r2, r1, 16777216
		pf    r2
		addi  r1, r1, 64
		pftag r1, 1
		halt
	`))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})
	for i := 0; i < 10; i++ {
		f.demandLoad(arr.Base + uint64(i)*8)
	}
	// Flush mid-flight. The requests whose records it forgets still go out,
	// untracked: one that drops later is counted where it drops, one that
	// fills is counted nowhere, so the ledger is short by exactly those.
	s := &f.pf.Stats
	drops := func() int64 { return s.ReqDropped + s.TLBDrops + s.MSHRDrops }
	var forgotten, dropsAtFlush, generatedAtFlush int64
	f.eng.Schedule(100, fn(func() {
		forgotten, dropsAtFlush, generatedAtFlush = int64(f.pf.pending.liveCount()), drops(), s.PFGenerated
		f.pf.Flush()
	}), 0, 0)
	f.eng.Run()
	if s.Flushes != 1 {
		t.Error("flush not recorded")
	}
	if n := f.pf.pending.liveCount(); n != 0 {
		t.Errorf("%d pending entries survive flush", n)
	}
	if s.PFGenerated != generatedAtFlush {
		t.Fatalf("%d prefetches generated after the flush, want 0", s.PFGenerated-generatedAtFlush)
	}
	short, untracked := s.PFGenerated-(drops()+s.FillObservations), forgotten-(drops()-dropsAtFlush)
	if short != untracked || forgotten == 0 {
		t.Errorf("ledger short by %d; the flush forgot %d records, %d of whose requests dropped later: want %d (and some forgotten)",
			short, forgotten, drops()-dropsAtFlush, untracked)
	}
	// Configuration survives: a new load still triggers the kernel.
	runs := f.pf.Stats.KernelRuns
	f.demandLoad(arr.Base + 4096)
	f.eng.Run()
	if f.pf.Stats.KernelRuns == runs {
		t.Error("filter configuration lost by flush")
	}
}

func TestKernelFaultCounted(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	arr := f.arena.AllocWords("A", 1024)
	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		movi r1, 1
		movi r2, 0
		div  r3, r1, r2
		halt
	`))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})
	f.demandLoad(arr.Base)
	f.eng.Run()
	if f.pf.Stats.KernelFaults != 1 {
		t.Errorf("KernelFaults = %d, want 1", f.pf.Stats.KernelFaults)
	}
}

func TestDisabledPrefetcherIgnoresEvents(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	arr := f.arena.AllocWords("A", 1024)
	f.pf.RegisterKernel(1, ppu.MustAssemble("vaddr r1\npf r1\nhalt"))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})
	f.pf.Enabled = false
	f.demandLoad(arr.Base)
	f.eng.Run()
	if f.pf.Stats.KernelRuns != 0 {
		t.Error("disabled prefetcher still ran kernels")
	}
}

func TestKernelBytes(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.pf.RegisterKernel(1, ppu.MustAssemble("vaddr r1\npf r1\nhalt"))
	if got := f.pf.KernelBytes(); got != 12 {
		t.Errorf("KernelBytes = %d, want 12", got)
	}
}

func TestLookaheadQuantisedToPowersOfTwo(t *testing.T) {
	var g ewmaGroup
	g.init()
	g.interval = 100
	for _, tc := range []struct {
		loadTime float64
		want     uint64
	}{
		{300, 4}, {500, 8}, {1500, 16}, {3100, 32}, {10000, 64}, {999999, 64},
	} {
		g.quantised = 0 // reset hysteresis
		g.loadTime = tc.loadTime
		if got := g.lookahead(); got != tc.want {
			t.Errorf("lookahead(load=%v) = %d, want %d", tc.loadTime, got, tc.want)
		}
	}
}

func TestLookaheadHysteresis(t *testing.T) {
	var g ewmaGroup
	g.init()
	g.interval = 100
	g.loadTime = 500 // ratio 5 → 8
	if got := g.lookahead(); got != 8 {
		t.Fatalf("initial lookahead = %d, want 8", got)
	}
	// Small wobble must not change the distance…
	g.loadTime = 700 // ratio 7, still within 8*1.5
	if got := g.lookahead(); got != 8 {
		t.Errorf("wobble moved lookahead to %d", got)
	}
	g.loadTime = 400 // ratio 4, above 8*0.375
	if got := g.lookahead(); got != 8 {
		t.Errorf("downward wobble moved lookahead to %d", got)
	}
	// …but a clear shift must.
	g.loadTime = 1400 // ratio 14 > 12
	if got := g.lookahead(); got != 16 {
		t.Errorf("clear increase gave %d, want 16", got)
	}
	g.loadTime = 200 // ratio 2 < 16*0.375
	if got := g.lookahead(); got != 4 {
		t.Errorf("clear decrease gave %d, want 4", got)
	}
}

func TestEWMATrainsOnRealFillsOnly(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	a := f.arena.AllocWords("A", 1<<14)
	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		addi  r1, r1, 64
		pf    r1
		halt
	`))
	f.pf.SetRange(0, RangeConfig{Lo: a.Base, Hi: a.End(),
		LoadKernel: 1, PFKernel: NoKernel,
		EWMAGroup: 0, Interval: true, TimedStart: true})

	// First load: the prefetched line misses → real fill → trains.
	f.demandLoad(a.Base)
	f.eng.Run()
	trained := f.pf.ewma[0].loadTime
	if trained <= 0 {
		t.Fatal("real fill did not train the load-time EWMA")
	}
	// Second load to the same line: its prefetch target is now resident →
	// the chain closes via a hit and must NOT train.
	f.demandLoad(a.Base + 8)
	f.eng.Run()
	if f.pf.ewma[0].loadTime != trained {
		t.Errorf("resident-hit chain changed loadTime %v → %v", trained, f.pf.ewma[0].loadTime)
	}
}

func TestPumpOverlapsTranslations(t *testing.T) {
	cfg := DefaultConfig()
	f := newFixture(t, cfg)
	arr := f.arena.AllocWords("A", 1<<18)
	// A kernel that fans out 8 prefetches to distinct far-apart pages,
	// forcing L2-TLB latency on each.
	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		movi  r2, 0
		movi  r3, 8
	loop:
		movi  r4, 8192
		add   r1, r1, r4
		pf    r1
		addi  r2, r2, 1
		blt   r2, r3, loop
		halt
	`))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})
	f.demandLoad(arr.Base)
	f.eng.Run()
	if f.pf.Stats.Issued != 8 {
		t.Errorf("issued = %d, want 8", f.pf.Stats.Issued)
	}
	if f.pf.Stats.PumpBusy == 0 {
		t.Log("pump never saturated; acceptable but unexpected with 8 distinct pages")
	}
	p := f.pf
	if o, q, r, n := p.obsQueue.Len(), p.reqQueue.Len(), p.pumpRecs.Live(), p.pending.liveCount(); o+q+r+n+p.pumping+p.inFlight != 0 {
		t.Errorf("drained prefetcher holds %d observations, %d requests, %d pump records, %d pending, %d pumping, %d in flight",
			o, q, r, n, p.pumping, p.inFlight)
	}
}

func TestMSHRHeadroomReservedForDemand(t *testing.T) {
	cfg := DefaultConfig()
	f := newFixture(t, cfg)
	arr := f.arena.AllocWords("A", 1<<20)
	// Fan out many prefetches at once; the pump must keep `mshrHeadroom`
	// MSHRs free for demand traffic.
	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		movi  r2, 0
		movi  r3, 32
	loop:
		movi  r4, 4096
		add   r1, r1, r4
		pf    r1
		addi  r2, r2, 1
		blt   r2, r3, loop
		halt
	`))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})
	f.demandLoad(arr.Base)
	// Drain partially, then check the invariant while prefetches are in flight.
	for i := 0; i < 200 && f.eng.Pending() > 0; i++ {
		f.eng.Step()
		if f.l1.FreeMSHRs() < 0 {
			t.Fatal("MSHR accounting went negative")
		}
	}
	f.eng.Run()
	if f.pf.Stats.PumpGated == 0 {
		t.Error("headroom gate never engaged despite 32-wide fan-out")
	}
}

func TestTracerSeesLifecycle(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	tr := trace.NewRing(64)
	f.pf.Bus = trace.NewBus(tr)
	arr := f.arena.AllocWords("A", 1024)
	f.pf.RegisterKernel(1, ppu.MustAssemble("vaddr r1\naddi r1, r1, 64\npf r1\nhalt"))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})
	f.demandLoad(arr.Base)
	f.eng.Run()

	kinds := map[trace.Kind]bool{}
	for _, e := range tr.Events() {
		kinds[e.Kind] = true
	}
	for _, want := range []trace.Kind{trace.PFObserve, trace.PFKernel, trace.PFGenerate, trace.PFIssue, trace.PFFill} {
		if !kinds[want] {
			t.Errorf("trace missing %s events; got %v", want, tr.Events())
		}
	}
}

func TestRingTracerWraps(t *testing.T) {
	tr := trace.NewRing(4)
	for i := 0; i < 10; i++ {
		tr.Event(trace.Event{At: sim.Ticks(i)})
	}
	ev := tr.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if e.At != sim.Ticks(6+i) {
			t.Errorf("event %d at %d, want %d (oldest first)", i, e.At, 6+i)
		}
	}
}

func TestKernelColdStartCostsOnce(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	arr := f.arena.AllocWords("A", 1<<14)
	f.pf.RegisterKernel(1, ppu.MustAssemble("vaddr r1\naddi r1, r1, 64\npf r1\nhalt"))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})
	for i := 0; i < 5; i++ {
		f.demandLoad(arr.Base + uint64(i)*512)
		f.eng.Run()
	}
	if f.pf.Stats.ICacheMisses != 1 {
		t.Errorf("ICacheMisses = %d, want 1 (cold start only once)", f.pf.Stats.ICacheMisses)
	}
	if f.pf.Stats.KernelRuns != 5 {
		t.Errorf("KernelRuns = %d, want 5", f.pf.Stats.KernelRuns)
	}
}

// TestEWMAWeight: after a first sample d0 seeds an average, one more sample
// d moves it by exactly (d − avg)/16 — a weight of 1/16, for both the access
// interval and the chain load time.
func TestEWMAWeight(t *testing.T) {
	for _, tc := range []struct{ d0, d sim.Ticks }{
		{100, 100}, {100, 260}, {1600, 0}, {48, 1024}, {5000, 3400},
	} {
		var g ewmaGroup
		g.init()
		g.observeInterval(0)
		g.observeInterval(tc.d0)
		g.observeInterval(tc.d0 + tc.d)
		g.observeLoadTime(tc.d0)
		g.observeLoadTime(tc.d)
		want := float64(tc.d0) + (float64(tc.d)-float64(tc.d0))/16
		if g.interval != want || g.loadTime != want {
			t.Errorf("d0 %d then %d: interval %v, load time %v; want %v",
				tc.d0, tc.d, g.interval, g.loadTime, want)
		}
	}
}
