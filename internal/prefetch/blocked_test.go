package prefetch

// Regression tests for blocked-mode (Figure 11) PPU accounting: chained and
// resumed kernels must be charged for their cycles and checked for faults,
// the blocked path must emit the same kernel trace events as the event
// path, and a tagged prefetch dropped at any stage of the pipeline —
// request queue, TLB, MSHR — must resume its suspended PPU exactly once.

import (
	"slices"
	"testing"

	"eventpf/internal/ppu"
	"eventpf/internal/sim"
	"eventpf/internal/trace"
)

func blockedConfig() Config {
	cfg := DefaultConfig()
	cfg.NumPPUs = 1
	cfg.Blocked = true
	return cfg
}

func countKind(tr *trace.Ring, k trace.Kind) int {
	n := 0
	for _, e := range tr.Events() {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// assertUnitIdle checks the single PPU ended the run free and was released
// exactly once — a drop that resumed it twice would free it twice, one that
// never resumed it would leave it busy forever.
func assertUnitIdle(t *testing.T, f *fixture, tr *trace.Ring) {
	t.Helper()
	if f.pf.isBusy(0) {
		t.Error("PPU 0 still busy after the run: suspended unit never resumed")
	}
	if got := countKind(tr, trace.PFUnitFree); got != 1 {
		t.Errorf("PPU freed %d times, want exactly 1", got)
	}
	if n := f.pf.pending.liveCount(); n != 0 {
		t.Errorf("%d pending prefetches survive the run", n)
	}
}

// A chained kernel running on the blocked path must have its fault counted,
// exactly as a fresh event-path kernel would.
func TestBlockedChainedKernelFaultCounted(t *testing.T) {
	f := newFixture(t, blockedConfig())
	tr := trace.NewRing(256)
	f.pf.Bus = trace.NewBus(tr)
	arr := f.arena.AllocWords("A", 1024)

	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		addi  r1, r1, 128
		pftag r1, 2
		halt
	`))
	f.pf.RegisterKernel(2, ppu.MustAssemble(`
		movi r1, 1
		movi r2, 0
		div  r3, r1, r2
		halt
	`))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})

	f.demandLoad(arr.Base)
	f.eng.Run()

	if f.pf.Stats.KernelRuns != 2 {
		t.Errorf("KernelRuns = %d, want 2", f.pf.Stats.KernelRuns)
	}
	if f.pf.Stats.KernelFaults != 1 {
		t.Errorf("KernelFaults = %d, want 1 (chained kernel divides by zero)", f.pf.Stats.KernelFaults)
	}
	assertUnitIdle(t, f, tr)
}

// A kernel that faults after being resumed (it blocked on a tagged prefetch
// first) must also be counted: the fault check has to run on the stack-pop
// path, not just on fresh invocations.
func TestBlockedResumedKernelFaultCounted(t *testing.T) {
	f := newFixture(t, blockedConfig())
	tr := trace.NewRing(256)
	f.pf.Bus = trace.NewBus(tr)
	arr := f.arena.AllocWords("A", 1024)

	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		addi  r1, r1, 128
		pftag r1, 2
		halt
	`))
	// Blocks on its own tagged prefetch, then divides by zero on resume.
	f.pf.RegisterKernel(2, ppu.MustAssemble(`
		vaddr r1
		addi  r1, r1, 64
		pftag r1, 3
		movi  r4, 1
		movi  r5, 0
		div   r6, r4, r5
		halt
	`))
	f.pf.RegisterKernel(3, ppu.MustAssemble("halt"))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})

	f.demandLoad(arr.Base)
	f.eng.Run()

	if f.pf.Stats.KernelRuns != 3 {
		t.Errorf("KernelRuns = %d, want 3", f.pf.Stats.KernelRuns)
	}
	if f.pf.Stats.KernelFaults != 1 {
		t.Errorf("KernelFaults = %d, want 1 (resumed kernel divides by zero)", f.pf.Stats.KernelFaults)
	}
	assertUnitIdle(t, f, tr)
}

// A resumed VM burns PPU cycles like a fresh one: a kernel that spins for
// ~2000 cycles after its blocking prefetch returns must push the unit's
// busy time well past the bare fill wait (2000 cycles at the 1 GHz PPU
// clock is 32000 ticks; the stub memory fill is ~2000 ticks).
func TestBlockedResumeChargesPPUCycles(t *testing.T) {
	f := newFixture(t, blockedConfig())
	arr := f.arena.AllocWords("A", 1024)

	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		addi  r1, r1, 128
		pftag r1, 2
		movi  r2, 0
		movi  r3, 1000
	loop:
		addi  r2, r2, 1
		blt   r2, r3, loop
		halt
	`))
	f.pf.RegisterKernel(2, ppu.MustAssemble("halt"))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})

	f.demandLoad(arr.Base)
	f.eng.Run()

	if f.pf.Stats.KernelFaults != 0 {
		t.Fatalf("KernelFaults = %d, want 0", f.pf.Stats.KernelFaults)
	}
	if got := f.pf.units[0].busyTicks; got < sim.Ticks(30000) {
		t.Errorf("busyTicks = %d, want ≥ 30000 (resumed kernel's ~2000 PPU cycles not charged)", got)
	}
}

// The blocked path reports kernel invocations on the trace bus just like
// the event path: a two-kernel chain shows two PFKernel events.
func TestBlockedChainEmitsKernelTrace(t *testing.T) {
	f := newFixture(t, blockedConfig())
	tr := trace.NewRing(256)
	f.pf.Bus = trace.NewBus(tr)
	arr := f.arena.AllocWords("A", 1024)

	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		addi  r1, r1, 128
		pftag r1, 2
		halt
	`))
	f.pf.RegisterKernel(2, ppu.MustAssemble("halt"))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})

	f.demandLoad(arr.Base)
	f.eng.Run()

	if got := countKind(tr, trace.PFKernel); got != 2 {
		t.Fatalf("PFKernel events = %d, want 2 (chained kernel missing from trace)", got)
	}
	kernels := map[int32]bool{}
	for _, e := range tr.Events() {
		if e.Kind == trace.PFKernel {
			kernels[e.A] = true
		}
	}
	if !kernels[1] || !kernels[2] {
		t.Errorf("traced kernel ids = %v, want {1, 2}", kernels)
	}
}

// A tagged prefetch rejected by the full request queue must resume the
// suspended PPU exactly once. The queue is one deep and the pump is gated
// by exhausted MSHRs, so the kernel's second (tagged) request is rejected
// at enqueue.
func TestBlockedDropAtRequestQueueResumesOnce(t *testing.T) {
	cfg := blockedConfig()
	cfg.ReqQueue = 1
	f := newFixture(t, cfg)
	tr := trace.NewRing(256)
	f.pf.Bus = trace.NewBus(tr)
	arr := f.arena.AllocWords("A", 1024)
	fill := f.arena.AllocWords("F", 1024)

	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		addi  r1, r1, 64
		pf    r1
		addi  r1, r1, 64
		pftag r1, 2
		halt
	`))
	f.pf.RegisterKernel(2, ppu.MustAssemble("halt"))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})

	// Occupy 11 of the 12 L1 MSHRs with demand misses outside the filter
	// range; the observed load takes the twelfth, so the pump stays gated
	// and the kernel's untagged request parks in the one queue slot.
	for i := uint64(0); i < 11; i++ {
		f.demandLoad(fill.Base + i*64)
	}
	f.demandLoad(arr.Base)
	f.eng.Run()

	if f.pf.Stats.ReqDropped != 1 {
		t.Fatalf("ReqDropped = %d, want 1; stats = %+v", f.pf.Stats.ReqDropped, f.pf.Stats)
	}
	if f.pf.Stats.KernelRuns != 1 {
		t.Errorf("KernelRuns = %d, want 1 (dropped chain must not run its kernel)", f.pf.Stats.KernelRuns)
	}
	dropped := false
	for _, e := range tr.Events() {
		if e.Kind == trace.PFDrop && e.A == trace.DropQueue {
			dropped = true
		}
	}
	if !dropped {
		t.Error("no PFDrop event with reason DropQueue")
	}
	assertUnitIdle(t, f, tr)
}

// A tagged prefetch to an unmapped page is discarded at translation (§5.3)
// and must resume the suspended PPU exactly once.
func TestBlockedDropAtTLBResumesOnce(t *testing.T) {
	f := newFixture(t, blockedConfig())
	tr := trace.NewRing(256)
	f.pf.Bus = trace.NewBus(tr)
	arr := f.arena.AllocWords("A", 8)

	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		movi  r2, 1048576
		add   r1, r1, r2
		pftag r1, 2
		halt
	`))
	f.pf.RegisterKernel(2, ppu.MustAssemble("halt"))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})

	f.demandLoad(arr.Base)
	f.eng.Run()

	if f.pf.Stats.TLBDrops != 1 {
		t.Fatalf("TLBDrops = %d, want 1", f.pf.Stats.TLBDrops)
	}
	if f.pf.Stats.Issued != 0 {
		t.Errorf("Issued = %d, want 0", f.pf.Stats.Issued)
	}
	if f.pf.Stats.KernelRuns != 1 {
		t.Errorf("KernelRuns = %d, want 1 (chained kernel must not run after a TLB drop)", f.pf.Stats.KernelRuns)
	}
	assertUnitIdle(t, f, tr)
}

// A tagged prefetch whose translation succeeds but finds no free MSHR is
// discarded and must resume the suspended PPU exactly once. The request
// passes the pump gate while MSHRs are free, then demand misses exhaust
// them during the ~300-tick page walk.
func TestBlockedDropAtMSHRResumesOnce(t *testing.T) {
	f := newFixture(t, blockedConfig())
	tr := trace.NewRing(256)
	f.pf.Bus = trace.NewBus(tr)
	arr := f.arena.AllocWords("A", 1024)
	fill := f.arena.AllocWords("F", 1024)

	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		addi  r1, r1, 64
		pftag r1, 2
		halt
	`))
	f.pf.RegisterKernel(2, ppu.MustAssemble("halt"))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(),
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})

	f.demandLoad(arr.Base)
	// The cold-started kernel emits its request at ~900 ticks and the
	// first-touch translation walks the page table for 300 more; fill the
	// remaining 11 MSHRs inside that window so the post-translate check
	// fails.
	f.eng.Schedule(1000, fn(func() {
		for i := uint64(0); i < 11; i++ {
			f.demandLoad(fill.Base + i*64)
		}
	}), 0, 0)
	f.eng.Run()

	if f.pf.Stats.MSHRDrops == 0 {
		t.Fatalf("MSHRDrops = 0, want ≥ 1; stats = %+v", f.pf.Stats)
	}
	if f.pf.Stats.KernelRuns != 1 {
		t.Errorf("KernelRuns = %d, want 1 (chained kernel must not run after an MSHR drop)", f.pf.Stats.KernelRuns)
	}
	dropped := false
	for _, e := range tr.Events() {
		if e.Kind == trace.PFDrop && e.A == trace.DropMSHR {
			dropped = true
		}
	}
	if !dropped {
		t.Error("no PFDrop event with reason DropMSHR")
	}
	assertUnitIdle(t, f, tr)
}

// nestedChainFixture installs a three-kernel chain on one blocked-mode PPU in
// which kernels 1 and 2 both go on after their tagged prefetch returns: while
// kernel 2 waits for kernel 3's line the unit's stack is two deep, and each
// resumed kernel then emits a prefetch of its own and bumps global 0.
func nestedChainFixture(t *testing.T) (*fixture, uint64, *trace.Ring) {
	f := newFixture(t, blockedConfig())
	tr := trace.NewRing(256)
	f.pf.Bus = trace.NewBus(tr)
	a := f.arena.AllocWords("A", 1<<14)
	goOn := "\naddi r1, r1, 4096\npf r1\nldg r2, g0\naddi r2, r2, 1\nstg g0, r2\nhalt"
	f.pf.RegisterKernel(1, ppu.MustAssemble("vaddr r1\naddi r1, r1, 128\npftag r1, 2"+goOn))
	f.pf.RegisterKernel(2, ppu.MustAssemble("vaddr r1\naddi r1, r1, 256\npftag r1, 3"+goOn))
	f.pf.RegisterKernel(3, ppu.MustAssemble("vaddr r1"+goOn))
	f.pf.SetRange(0, RangeConfig{Lo: a.Base, Hi: a.Base + 64, LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})
	return f, a.Base, tr
}

// stepToNestedStall advances f until its PPU is stalled two kernels deep.
func stepToNestedStall(t *testing.T, f *fixture) {
	t.Helper()
	for len(f.pf.units[0].stack) < 2 {
		if !f.eng.Step() {
			t.Fatal("the unit never stalled two kernels deep")
		}
	}
}

// A fork taken while a unit holds two suspended kernels finishes exactly as
// its parent and as a run that never forked; the copied invocations emit into
// the fork, and the parent's into the parent.
func TestForkWithNestedSuspendedKernels(t *testing.T) {
	straight, base, straightTr := nestedChainFixture(t)
	straight.demandLoad(base)
	straight.eng.Run()

	parent, _, parentTr := nestedChainFixture(t)
	parent.demandLoad(base)
	stepToNestedStall(t, parent)
	atFork := len(parentTr.Events())
	var forkTr *trace.Ring
	fork := forkOf(t, parent, func() (f *fixture) { f, _, forkTr = nestedChainFixture(t); return f })

	// The parent resumes both kernels, each emitting a prefetch: none of it
	// may show in the fork.
	idle := fork.pf.Stats
	parent.eng.Run()
	if fork.pf.Stats != idle || fork.pf.reqQueue.Len() != 0 || fork.pf.globals[0] != 0 ||
		fork.eng.Pending() == 0 || len(forkTr.Events()) != 0 {
		t.Fatalf("the parent's run reached its fork: stats %+v (were %+v), %d requests queued, global 0 = %d, %d trace events",
			fork.pf.Stats, idle, fork.pf.reqQueue.Len(), fork.pf.globals[0], len(forkTr.Events()))
	}
	fork.eng.Run()

	if s := straight.pf.Stats; s.KernelRuns != 3 || s.PFGenerated != 5 || s.Issued != 5 {
		t.Errorf("the straight run made %+v, want 3 kernels and 5 prefetches", s)
	}
	if !slices.Equal(parentTr.Events(), straightTr.Events()) {
		t.Errorf("parent trace differs from the straight run's:\n%v\n%v", parentTr.Events(), straightTr.Events())
	}
	if want := straightTr.Events()[atFork:]; !slices.Equal(forkTr.Events(), want) {
		t.Errorf("fork trace differs from the straight run's after the fork point:\n%v\n%v", forkTr.Events(), want)
	}
	for name, f := range map[string]*fixture{"parent": parent, "fork": fork} {
		if f.pf.Stats != straight.pf.Stats || f.l1.Stats != straight.l1.Stats || f.eng.Now() != straight.eng.Now() {
			t.Errorf("%s ends at t=%d with %+v %+v\nstraight   t=%d with %+v %+v", name,
				f.eng.Now(), f.pf.Stats, f.l1.Stats, straight.eng.Now(), straight.pf.Stats, straight.l1.Stats)
		}
		if u, su := f.pf.units[0], straight.pf.units[0]; f.pf.globals != straight.pf.globals ||
			u.busyTicks != su.busyTicks || len(u.stack) != 0 || f.pf.isBusy(0) || len(f.pf.invFree) != 3 {
			t.Errorf("%s: global 0 = %d (want 3), busy %d ticks (want %d), %d kernels still suspended, busy=%v, %d records pooled (want 3)",
				name, f.pf.globals[0], u.busyTicks, su.busyTicks, len(u.stack), f.pf.isBusy(0), len(f.pf.invFree))
		}
	}
}

// A flush drops the suspended kernels of every unit; their records go back
// to the pool, so no number of context switches grows it.
func TestFlushReturnsSuspendedInvocationsToPool(t *testing.T) {
	f, base, _ := nestedChainFixture(t)
	for i := 0; i < 1000; i++ {
		f.demandLoad(base)
		stepToNestedStall(t, f)
		f.pf.Flush()
		if n := len(f.pf.units[0].stack); n != 0 || f.pf.isBusy(0) || len(f.pf.invFree) != 2 {
			t.Fatalf("flush %d left %d kernels suspended, busy=%v, %d records pooled; want 0, false, 2",
				i, n, f.pf.isBusy(0), len(f.pf.invFree))
		}
		f.eng.Run() // what was already past the flush drains, untracked
	}
	if f.pf.Stats.KernelRuns != 2000 || f.pf.globals[0] != 0 {
		t.Errorf("%d kernels begun and %d run to their end, want 2000 and 0", f.pf.Stats.KernelRuns, f.pf.globals[0])
	}
}

// A prefetch whose target is already resident is a fill observation but not a
// fill, and stays out of the fill-latency mean: resident lookups return in the
// cache's hit time and would make real fills look fast.
func TestResidentHitSplitFromRealFills(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	arr := f.arena.AllocWords("A", 1024)

	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		addi  r1, r1, 128
		pf    r1
		halt
	`))
	// Range covers only the first line so the warming load below does not
	// itself trigger the kernel.
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.Base + 64,
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})

	// Warm the kernel's target line with a demand miss…
	f.demandLoad(arr.Base + 128)
	f.eng.Run()
	// …then trigger the kernel: its prefetch hits the resident line.
	f.demandLoad(arr.Base)
	f.eng.Run()

	s := &f.pf.Stats
	if s.Issued != 1 {
		t.Fatalf("Issued = %d, want 1", s.Issued)
	}
	if resident := s.FillObservations - s.FillCount; resident != 1 || s.FillCount != 0 {
		t.Errorf("resident hits (FillObservations − FillCount) = %d, FillCount = %d; want 1, 0", resident, s.FillCount)
	}
	if s.FillLatencySum != 0 {
		t.Errorf("FillLatencySum = %d, want 0 (resident hit leaked into fill stats)", s.FillLatencySum)
	}
}
