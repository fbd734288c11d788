package mem

import (
	"math/rand"
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
	if w, q, r := tlb.activeWalks, tlb.walkQueue.Len(), tlb.recs.Live(); w+q+r != 0 {
		t.Errorf("drained TLB holds %d walks, %d queued, %d records", w, q, r)
	}
}

// refL1 is the L1 TLB as a linear scan over its entries, as it was before
// l1TLB: a lookup touches the lowest-indexed copy of the page, an insert
// fills the first never-filled slot, else the least recently used one, and
// never looks for an existing copy.
type refL1 struct {
	ents  []refL1Entry
	clock int64
}

type refL1Entry struct {
	page    uint64
	valid   bool
	lastUse int64
}

func (r *refL1) touch(page uint64) bool {
	for i := range r.ents {
		if r.ents[i].valid && r.ents[i].page == page {
			r.clock++
			r.ents[i].lastUse = r.clock
			return true
		}
	}
	return false
}

func (r *refL1) insert(page uint64) {
	victim := &r.ents[0]
	for i := range r.ents {
		if !r.ents[i].valid {
			victim = &r.ents[i]
			break
		}
		if r.ents[i].lastUse < victim.lastUse {
			victim = &r.ents[i]
		}
	}
	r.clock++
	*victim = refL1Entry{page: page, valid: true, lastUse: r.clock}
}

// TestL1TLBMatchesLinearScan drives l1TLB and the linear scan with the same
// seeded touch/insert streams — working sets either side of the capacity,
// back-to-back inserts of one page (two in-flight L2 hits), and a TLB fork
// partway through after which the abandoned parent keeps changing — and
// requires the same hit or miss at every touch and the same page in every
// slot after every step.
func TestL1TLBMatchesLinearScan(t *testing.T) {
	newTLB := func(entries int) *TLB {
		cfg := TLBConfig{L1Entries: entries, L2Entries: 16, L2Ways: 2, L2HitCycles: 8, Walks: 2, WalkCycles: 60}
		return NewTLB(sim.NewEngine(), sim.ClockFromMHz(1000), cfg, NewBacking())
	}
	for _, entries := range []int{1, 2, 7, 64} {
		for seed := int64(0); seed < 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ref := &refL1{ents: make([]refL1Entry, entries)}
			tlb := newTLB(entries)
			pages := 2*entries + 2
			if seed%2 == 0 {
				pages = entries + entries/2 + 1
			}
			for step := 0; step < 3000; step++ {
				page := uint64(rng.Intn(pages)) * PageSize
				switch r := rng.Intn(100); {
				case r < 50:
					if got, want := tlb.l1.touch(page), ref.touch(page); got != want {
						t.Fatalf("%d entries, seed %d, step %d: touch(%#x) = %v, linear scan %v", entries, seed, step, page, got, want)
					}
				case r < 90:
					tlb.l1.insert(page)
					ref.insert(page)
				case r < 98:
					for i := 0; i < 2; i++ {
						tlb.l1.insert(page)
						ref.insert(page)
					}
				default:
					fork := newTLB(entries)
					if err := fork.CopyStateFrom(tlb); err != nil {
						t.Fatal(err)
					}
					for i := 0; i < 4; i++ {
						tlb.l1.insert(uint64(rng.Intn(pages)) * PageSize)
					}
					tlb = fork
				}
				for i, e := range ref.ents {
					resident := i < int(tlb.l1.filled)
					if resident != e.valid || resident && tlb.l1.ents[i].page != e.page {
						t.Fatalf("%d entries, seed %d, step %d: slot %d holds %#x (resident %v), linear scan %#x (%v)",
							entries, seed, step, i, tlb.l1.ents[i].page, resident, e.page, e.valid)
					}
				}
			}
		}
	}
}

type nopHandler struct{}

func (nopHandler) Handle(sim.Ticks, uint64, uint64) {}

// BenchmarkTLBTranslate measures one translation at Table 1's geometry: an
// L1 hit (48 pages cycled, all resident in the 64-entry L1) and an L2 hit
// (256 pages cycled: each has left the L1 by its next turn, so every
// translation misses it, hits the L2 and completes an event later, refilling
// the L1). Neither may allocate.
func BenchmarkTLBTranslate(b *testing.B) {
	for _, bc := range []struct {
		name  string
		pages uint64
	}{{"l1-hit", 48}, {"l2-hit", 256}} {
		b.Run(bc.name, func(b *testing.B) {
			eng := sim.NewEngine()
			bk := NewBacking()
			tlb := NewTLB(eng, sim.ClockFromMHz(3200), DefaultTLBConfig(), bk)
			reg := NewArena(bk).Alloc("r", bc.pages*PageSize)
			translate := func(i int) {
				tlb.TranslateTo(reg.Base+uint64(i)%bc.pages*PageSize, nopHandler{}, 0)
				eng.Run()
			}
			for i := 0; i < int(2*bc.pages); i++ { // walk every page in
				translate(i)
			}
			before := tlb.Stats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				translate(i)
			}
			b.StopTimer()
			hits := tlb.Stats.L1Hits - before.L1Hits
			if bc.name == "l2-hit" {
				hits = tlb.Stats.L2Hits - before.L2Hits
			}
			if hits != int64(b.N) {
				b.Fatalf("%d of %d translations were %ss", hits, b.N, bc.name)
			}
			if a := testing.AllocsPerRun(100, func() { translate(b.N) }); a != 0 {
				b.Fatalf("%v allocations per translation, want none", a)
			}
		})
	}
}
