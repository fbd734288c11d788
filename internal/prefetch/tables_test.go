package prefetch

import (
	"reflect"
	"testing"

	"eventpf/internal/mem"
	"eventpf/internal/ppu"
	"eventpf/internal/sim"
	"eventpf/internal/trace"
)

// liveCount scans the table for live records.
func (t *pendTable) liveCount() int {
	n := 0
	for i := range t.slots {
		if t.slots[i].live {
			n++
		}
	}
	return n
}

func (t *pendTable) put(id int, addr uint64) {
	*t.insert(id) = pendingPF{id: id, live: true, addr: addr}
}

func TestPendTableGrowsOnLiveCollision(t *testing.T) {
	tab := newPendTable(8)
	tab.put(5, 0x500)
	tab.find(5).live = false
	tab.put(13, 0xd00) // same slot as 5, which is dead: no growth
	if len(tab.slots) != 8 {
		t.Fatalf("table grew to %d slots over a dead record", len(tab.slots))
	}
	// 3 and 8003 share a slot until the table has 128 of them (8000 = 64·125).
	tab.put(3, 0x300)
	tab.put(8003, 0x8003)
	if len(tab.slots) != 128 {
		t.Errorf("table has %d slots, want 128", len(tab.slots))
	}
	for id, addr := range map[int]uint64{3: 0x300, 13: 0xd00, 8003: 0x8003} {
		if e := tab.find(id); e == nil || e.addr != addr {
			t.Errorf("find(%d) = %+v, want the record of %#x", id, e, addr)
		}
	}
	if tab.find(5) != nil || tab.find(3+128) != nil {
		t.Error("find matched a dead id, or an id that only shares a slot")
	}
	if n := tab.liveCount(); n != 3 {
		t.Errorf("%d live records, want 3", n)
	}
}

// chainFixture installs kernel 1 (on a load of A: prefetch two lines ahead,
// tagged to kernel 2) and kernel 2 (a counter in global 0).
func chainFixture(t *testing.T, cfg Config) (*fixture, mem.Region, *trace.Ring) {
	f := newFixture(t, cfg)
	tr := trace.NewRing(256)
	f.pf.Bus = trace.NewBus(tr)
	a := f.arena.AllocWords("A", 1<<14)
	f.pf.RegisterKernel(1, ppu.MustAssemble("vaddr r1\naddi r1, r1, 128\npftag r1, 2\nhalt"))
	f.pf.RegisterKernel(2, ppu.MustAssemble("ldg r1, g0\naddi r1, r1, 1\nstg g0, r1\nhalt"))
	f.pf.SetRange(0, RangeConfig{Lo: a.Base, Hi: a.End(), LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})
	return f, a, tr
}

// A tag whose record a flush (or a drop) removed must stay dead when a later
// id takes the same slot: the stale fill of the first must not be taken for
// the second.
func TestStaleTagDoesNotMatchLaterIDInSameSlot(t *testing.T) {
	for _, how := range []string{"flush", "drop"} {
		t.Run(how, func(t *testing.T) {
			f, a, tr := chainFixture(t, DefaultConfig())
			f.demandLoad(a.Base)
			for f.l1.InFlightMSHRs() < 2 { // the demand miss and tagged prefetch 0
				if !f.eng.Step() {
					t.Fatal("prefetch 0 never reached an MSHR")
				}
			}
			if how == "flush" {
				f.pf.Flush()
			} else {
				f.pf.dropPending(0, trace.DropQueue)
			}
			later := len(f.pf.pending.slots)
			f.pf.nextObs = later // the next id lands in slot 0 again
			f.demandLoad(a.Base + 4096)
			f.eng.Run()

			var fills []int64
			for _, e := range tr.Events() {
				if e.Kind == trace.PFFill {
					fills = append(fills, e.ID)
				}
			}
			if len(fills) != 1 || fills[0] != int64(later) {
				t.Errorf("fills seen for ids %v, want only %d", fills, later)
			}
			if f.pf.globals[0] != 1 {
				t.Errorf("chained kernel ran %d times, want 1", f.pf.globals[0])
			}
			if len(f.pf.pending.slots) != later {
				t.Errorf("table grew to %d slots over a dead record", len(f.pf.pending.slots))
			}
		})
	}
}

// A flush frees a busy unit at once, but the unit's own free event is still
// armed; it must not free the unit again while a kernel started after the
// flush is running on it.
func TestFlushIgnoresStaleUnitFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPPUs = 1
	f := newFixture(t, cfg)
	tr := trace.NewRing(64)
	f.pf.Bus = trace.NewBus(tr)
	arr := f.arena.AllocWords("A", 1024)
	// About 400 PPU cycles; the cold first run adds the fetch on top.
	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		movi r1, 0
		movi r2, 200
	loop:
		addi r1, r1, 1
		blt  r1, r2, loop
		halt
	`))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.End(), LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})

	cycle := cfg.PPUClock.Period
	f.pf.Observe(arr.Base, -1, false) // runs until about cycle 460
	f.eng.Schedule(100*cycle, fn(func() {
		f.pf.Flush()
		f.pf.Observe(arr.Base+64, -1, false) // warm: cycles 100 to 503
	}), 0, 0)
	busy := map[sim.Ticks]bool{}
	for _, at := range []sim.Ticks{480 * cycle, 500 * cycle, 510 * cycle} {
		f.eng.Schedule(at, fn(func() { busy[at] = f.pf.isBusy(0) }), 0, 0)
	}
	f.eng.Run()

	if f.pf.Stats.KernelRuns != 2 {
		t.Fatalf("KernelRuns = %d, want 2", f.pf.Stats.KernelRuns)
	}
	if !busy[480*cycle] || !busy[500*cycle] || busy[510*cycle] {
		t.Errorf("unit busy at cycles 480/500/510 = %v/%v/%v, want true/true/false: the first kernel's free event freed it mid-kernel",
			busy[480*cycle], busy[500*cycle], busy[510*cycle])
	}
	if got := countKind(tr, trace.PFUnitFree); got != 1 {
		t.Errorf("unit freed by %d events, want 1", got)
	}
	if af := f.pf.ActivityFactors()[0]; af > 1 {
		t.Errorf("activity factor %.3f > 1: busy time counted twice", af)
	}
}

// The depth histograms and the drop decisions of both queues on a fixed
// script — bursts of six loads into a 3-entry observation queue in front of
// one PPU, each kernel fanning seven prefetches into a 5-entry request queue.
// The expected values were recorded with the copy-shift slices the rings
// replaced.
func TestQueueDropsAndDepthSamplesPinned(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumPPUs = 1
	cfg.ObsQueue = 3
	cfg.ReqQueue = 5
	f := newFixture(t, cfg)
	reg := trace.NewRegistry()
	f.pf.AttachMetrics(reg)
	tr := trace.NewRing(4096)
	f.pf.Bus = trace.NewBus(tr)
	arr := f.arena.AllocWords("A", 1<<16)
	f.pf.RegisterKernel(1, ppu.MustAssemble(`
		vaddr r1
		movi  r2, 0
		movi  r3, 7
	loop:
		addi  r1, r1, 4096
		pf    r1
		addi  r2, r2, 1
		blt   r2, r3, loop
		halt
	`))
	f.pf.SetRange(0, RangeConfig{Lo: arr.Base, Hi: arr.Base + 4096,
		LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})
	for i := 0; i < 24; i++ {
		addr := arr.Base + uint64(i)*64
		f.eng.Schedule(sim.Ticks(i/6)*30000+sim.Ticks(i%6)*10, fn(func() { f.pf.Observe(addr, -1, false) }), 0, 0)
	}
	f.eng.Run()

	var obsDrops, reqDrops []int64
	for _, e := range tr.Events() {
		switch {
		case e.Kind == trace.PFObsDrop:
			obsDrops = append(obsDrops, int64(e.Addr-arr.Base)/64)
		case e.Kind == trace.PFDrop && e.A == trace.DropQueue:
			reqDrops = append(reqDrops, e.ID)
		}
	}
	// The two oldest observations of every burst; the tail of every fan-out
	// that found the request queue full.
	if want := []int64{1, 2, 7, 8, 13, 14, 19, 20}; !reflect.DeepEqual(obsDrops, want) {
		t.Errorf("observations dropped = %v, want %v", obsDrops, want)
	}
	var wantReq []int64
	for _, r := range [][2]int64{{15, 27}, {43, 55}, {71, 83}, {99, 111}} {
		for id := r[0]; id <= r[1]; id++ {
			wantReq = append(wantReq, id)
		}
	}
	if !reflect.DeepEqual(reqDrops, wantReq) {
		t.Errorf("requests rejected = %v, want %v", reqDrops, wantReq)
	}
	if got, want := reg.Hist("pf/obs-queue-depth", 0).Buckets, []int64{8, 12, 16, 12}; !reflect.DeepEqual(got, want) {
		t.Errorf("observation-queue depth samples = %v, want %v", got, want)
	}
	if got, want := reg.Hist("pf/req-queue-depth", 0).Buckets, []int64{43, 48, 9, 8, 8, 4}; !reflect.DeepEqual(got, want) {
		t.Errorf("request-queue depth samples = %v, want %v", got, want)
	}
	if s := f.pf.Stats; s.ObsDropped != 8 || s.ReqDropped != 52 || s.Issued != 60 || s.QueueDepthSum != 41 {
		t.Errorf("stats = %+v", s)
	}
	// Both rings went round: more pushes than the 8 slots (sim.Queue's
	// smallest ring) that depths of 3 and 5 grow them to.
	if pushes := f.pf.Stats.LoadObservations; cfg.ObsQueue > 8 || pushes <= 8 {
		t.Errorf("observation ring (depth %d) never wrapped in %d pushes", cfg.ObsQueue, pushes)
	}
	if pushes := f.pf.Stats.Issued; cfg.ReqQueue > 8 || pushes <= 8 {
		t.Errorf("request ring (depth %d) never wrapped in %d pushes", cfg.ReqQueue, pushes)
	}
}

// forkOf builds a second fixture and copies parent's state into it component
// by component, the way a machine fork does.
func forkOf(t *testing.T, parent *fixture, build func() *fixture) *fixture {
	t.Helper()
	fork := build()
	fork.bk.CopyFrom(parent.bk)
	fork.next.reads = parent.next.reads
	for _, err := range []error{
		fork.l1.CopyStateFrom(parent.l1),
		fork.tlb.CopyStateFrom(parent.tlb),
		fork.pf.CopyStateFrom(parent.pf),
		fork.eng.CopyFrom(parent.eng),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return fork
}

// A fork taken with prefetches in every stage of the request path — emitted
// but not yet enqueued, queued, translating, looking up and holding an MSHR —
// finishes exactly as its parent does.
func TestCopyStateFromMidFlight(t *testing.T) {
	build := func() (*fixture, mem.Region) {
		f := newFixture(t, DefaultConfig())
		a := f.arena.AllocWords("A", 1<<16)
		// One load fans 40 tagged prefetches out to distinct pages; each
		// fill chains to an untagged prefetch of the next line.
		f.pf.RegisterKernel(1, ppu.MustAssemble(`
			vaddr r1
			movi  r2, 0
			movi  r3, 40
		loop:
			addi  r1, r1, 4096
			pftag r1, 2
			addi  r2, r2, 1
			blt   r2, r3, loop
			halt
		`))
		f.pf.RegisterKernel(2, ppu.MustAssemble("vaddr r1\naddi r1, r1, 64\npf r1\nhalt"))
		f.pf.SetRange(0, RangeConfig{Lo: a.Base, Hi: a.Base + 64, LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})
		return f, a
	}
	parent, a := build()
	parent.demandLoad(a.Base)
	for {
		p := parent.pf
		queued, inMSHR := p.reqQueue.Len(), parent.l1.InFlightMSHRs()
		emitted := p.pending.liveCount() - queued - p.pumping - p.inFlight - inMSHR
		if emitted > 0 && queued > 0 && p.pumping > 0 && p.inFlight > 0 && inMSHR > 1 {
			break
		}
		if !parent.eng.Step() {
			t.Fatal("the run never had a prefetch in every stage at once")
		}
	}

	fork := forkOf(t, parent, func() *fixture { f, _ := build(); return f })
	parent.eng.Run()
	fork.eng.Run()

	if parent.pf.Stats.FillObservations != 80 {
		t.Errorf("parent saw %d fills, want 80 (40 tagged, 40 chained)", parent.pf.Stats.FillObservations)
	}
	if fork.pf.Stats != parent.pf.Stats {
		t.Errorf("prefetcher stats differ:\nfork   %+v\nparent %+v", fork.pf.Stats, parent.pf.Stats)
	}
	if fork.l1.Stats != parent.l1.Stats || fork.next.reads != parent.next.reads || fork.eng.Now() != parent.eng.Now() {
		t.Errorf("fork ends at t=%d after %d reads with %+v\nparent    t=%d after %d reads with %+v",
			fork.eng.Now(), fork.next.reads, fork.l1.Stats, parent.eng.Now(), parent.next.reads, parent.l1.Stats)
	}
	if n := fork.pf.pending.liveCount() + parent.pf.pending.liveCount(); n != 0 {
		t.Errorf("%d records still live after both runs", n)
	}
}
