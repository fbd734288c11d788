package mem

import (
	"testing"

	"eventpf/internal/sim"
)

func newTestTLB(eng *sim.Engine) (*TLB, *Backing) {
	bk := NewBacking()
	cfg := TLBConfig{L1Entries: 4, L2Entries: 16, L2Ways: 2, L2HitCycles: 8, Walks: 2, WalkCycles: 60}
	return NewTLB(eng, sim.ClockFromMHz(1000), cfg, bk), bk
}

func translate(eng *sim.Engine, t *TLB, addr uint64) (ok bool, delay sim.Ticks) {
	start := eng.Now()
	done := false
	t.TranslateTo(addr, transFn(func(o bool) { ok, done = o, true }), 0)
	eng.Run()
	if !done {
		panic("translate never completed")
	}
	return ok, eng.Now() - start
}

func TestTLBWalkThenHit(t *testing.T) {
	eng := sim.NewEngine()
	tlb, bk := newTestTLB(eng)
	bk.MapPage(0x4000)

	ok, d1 := translate(eng, tlb, 0x4008)
	if !ok || d1 == 0 {
		t.Fatalf("first translation ok=%v delay=%d, want walk latency", ok, d1)
	}
	ok, d2 := translate(eng, tlb, 0x4010)
	if !ok || d2 != 0 {
		t.Errorf("second translation ok=%v delay=%d, want L1 TLB hit (0)", ok, d2)
	}
	if tlb.Stats.Walks != 1 || tlb.Stats.L1Hits != 1 {
		t.Errorf("stats = %+v", tlb.Stats)
	}
}

func TestTLBFault(t *testing.T) {
	eng := sim.NewEngine()
	tlb, _ := newTestTLB(eng)
	ok, _ := translate(eng, tlb, 0xdead000)
	if ok {
		t.Error("translation of unmapped page succeeded")
	}
	if tlb.Stats.Faults != 1 {
		t.Errorf("Faults = %d, want 1", tlb.Stats.Faults)
	}
}

func TestTLBL2HitAfterL1Eviction(t *testing.T) {
	eng := sim.NewEngine()
	tlb, bk := newTestTLB(eng)
	// Fill well past the 4-entry L1 TLB.
	for i := uint64(0); i < 8; i++ {
		bk.MapPage(0x10000 + i*PageSize)
		translate(eng, tlb, 0x10000+i*PageSize)
	}
	walksBefore := tlb.Stats.Walks
	ok, d := translate(eng, tlb, 0x10000) // evicted from L1, should be in L2
	if !ok {
		t.Fatal("translation failed")
	}
	if tlb.Stats.Walks != walksBefore {
		t.Error("required a walk; expected L2 TLB hit")
	}
	if d == 0 {
		t.Error("L2 TLB hit had zero latency; expected L2HitCycles")
	}
}

func TestTLBWalkConcurrencyLimit(t *testing.T) {
	eng := sim.NewEngine()
	tlb, bk := newTestTLB(eng)
	for i := uint64(0); i < 4; i++ {
		bk.MapPage(0x20000 + i*0x10000)
	}
	var doneTimes []sim.Ticks
	for i := uint64(0); i < 4; i++ {
		tlb.TranslateTo(0x20000+i*0x10000, transFn(func(bool) { doneTimes = append(doneTimes, eng.Now()) }), 0)
	}
	eng.Run()
	if tlb.Stats.WalkQueue != 2 {
		t.Errorf("WalkQueue = %d, want 2 (only 2 concurrent walks)", tlb.Stats.WalkQueue)
	}
	if len(doneTimes) != 4 {
		t.Fatalf("completions = %d, want 4", len(doneTimes))
	}
	if doneTimes[3] <= doneTimes[0] {
		t.Error("queued walks completed as fast as concurrent ones")
	}
}
