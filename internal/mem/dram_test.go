package mem

import (
	"testing"

	"eventpf/internal/sim"
)

func dramRead(eng *sim.Engine, d *DRAM, line uint64) sim.Ticks {
	var at sim.Ticks = -1
	d.Access(&Request{Addr: line, Line: line, Kind: Load, PC: -1, Tag: NoTag, TimedAt: -1,
		Comp: doneFn(func(t sim.Ticks) { at = t })})
	eng.Run()
	return at
}

func TestDRAMRowHitFasterThanMiss(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDRAM(eng, DefaultDRAMConfig())

	first := dramRead(eng, d, 0x0) // row empty
	base := eng.Now()
	hit := dramRead(eng, d, 0x40) - base // same row: row hit
	base = eng.Now()
	miss := dramRead(eng, d, 0x100000) - base // same bank, different row

	if first <= 0 {
		t.Fatalf("first access latency %d", first)
	}
	if hit >= miss {
		t.Errorf("row hit (%d ticks) not faster than row miss (%d ticks)", hit, miss)
	}
	if d.Stats.RowHits != 1 || d.Stats.RowMisses != 1 || d.Stats.RowEmpties != 1 {
		t.Errorf("row stats = %+v", d.Stats)
	}
}

func TestDRAMBankParallelism(t *testing.T) {
	cfg := DefaultDRAMConfig()
	// Serial: two accesses to the same bank & row region but different rows.
	engA := sim.NewEngine()
	dA := NewDRAM(engA, cfg)
	var lastA sim.Ticks
	dA.Access(&Request{Line: 0, Kind: Load, Comp: doneFn(func(t sim.Ticks) { lastA = t })})
	dA.Access(&Request{Line: cfg.RowBytes * uint64(cfg.Banks), Kind: Load, Comp: doneFn(func(t sim.Ticks) { lastA = maxTicks(lastA, t) })})
	engA.Run()

	// Parallel: two accesses to different banks.
	engB := sim.NewEngine()
	dB := NewDRAM(engB, cfg)
	var lastB sim.Ticks
	dB.Access(&Request{Line: 0, Kind: Load, Comp: doneFn(func(t sim.Ticks) { lastB = t })})
	dB.Access(&Request{Line: cfg.RowBytes, Kind: Load, Comp: doneFn(func(t sim.Ticks) { lastB = maxTicks(lastB, t) })})
	engB.Run()

	if lastB >= lastA {
		t.Errorf("bank-parallel pair (%d) not faster than same-bank pair (%d)", lastB, lastA)
	}
}

func maxTicks(a, b sim.Ticks) sim.Ticks {
	if a > b {
		return a
	}
	return b
}

func TestDRAMBusSerialisesBursts(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultDRAMConfig()
	d := NewDRAM(eng, cfg)
	var times []sim.Ticks
	for b := 0; b < 4; b++ {
		d.Access(&Request{Line: cfg.RowBytes * uint64(b), Kind: Load,
			Comp: doneFn(func(t sim.Ticks) { times = append(times, t) })})
	}
	eng.Run()
	burst := sim.ClockFromMHz(cfg.BusMHz).Cycles(int64(cfg.BurstCycles))
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] < burst {
			t.Errorf("bursts %d and %d overlap on the bus: %v", i-1, i, times)
		}
	}
}

func TestDRAMWritePosted(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDRAM(eng, DefaultDRAMConfig())
	d.Access(&Request{Line: 0x40, Kind: Writeback})
	eng.Run()
	if d.Stats.Writes != 1 || d.Stats.Reads != 0 {
		t.Errorf("stats = %+v, want 1 write", d.Stats)
	}
}

func TestDRAMSequentialFasterThanRandom(t *testing.T) {
	cfg := DefaultDRAMConfig()

	run := func(stride uint64) sim.Ticks {
		eng := sim.NewEngine()
		d := NewDRAM(eng, cfg)
		var last sim.Ticks
		for i := uint64(0); i < 64; i++ {
			d.Access(&Request{Line: i * stride, Kind: Load,
				Comp: doneFn(func(t sim.Ticks) { last = maxTicks(last, t) })})
		}
		eng.Run()
		return last
	}

	seq := run(LineSize)                                  // walks one row at a time
	rnd := run(cfg.RowBytes*uint64(cfg.Banks) + LineSize) // new row in same bank every time
	if seq >= rnd {
		t.Errorf("sequential (%d ticks) not faster than row-thrashing (%d ticks)", seq, rnd)
	}
}

// BenchmarkDRAMAccess measures one line read through the controller at
// Table 1's timing, completion event included: a row hit (lines of one open
// row), a row miss (two rows of one bank, alternating, the engine run after
// each read) and a bank conflict (the same two rows, eight reads issued
// before the engine runs, so each waits for the bank the one before holds).
// None may allocate.
func BenchmarkDRAMAccess(b *testing.B) {
	cfg := DefaultDRAMConfig()
	sameBank := cfg.RowBytes * uint64(cfg.Banks) // the next row of bank 0
	for _, bc := range []struct {
		name  string
		line  func(i int) uint64
		batch int // reads issued before the engine runs
	}{
		{"row-hit", func(i int) uint64 { return uint64(i%int(cfg.RowBytes/LineSize)) * LineSize }, 1},
		{"row-miss", func(i int) uint64 { return uint64(i%2) * sameBank }, 1},
		{"bank-conflict", func(i int) uint64 { return uint64(i%2) * sameBank }, 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng := sim.NewEngine()
			pool := NewPool()
			d := NewDRAM(eng, cfg)
			d.Pool = pool
			i := 0
			read := func() {
				req := pool.Get()
				req.Line, req.Addr, req.Kind, req.PC = bc.line(i), bc.line(i), Load, -1
				req.Tag, req.TimedAt = NoTag, -1
				req.Comp = nopHandler{}
				d.Access(req)
				if i++; i%bc.batch == 0 {
					eng.Run()
				}
			}
			for i < 2*bc.batch { // open the rows, fill the pools
				read()
			}
			before := d.Stats
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				read()
			}
			eng.Run()
			b.StopTimer()
			s := d.Stats
			reads, hits, misses := s.Reads-before.Reads, s.RowHits-before.RowHits, s.RowMisses-before.RowMisses
			waited := s.BankWaitSum - before.BankWaitSum
			switch {
			case reads != int64(b.N):
				b.Fatalf("%d reads serviced, want %d", reads, b.N)
			case bc.name == "row-hit" && hits != reads, bc.name != "row-hit" && misses != reads:
				b.Fatalf("%d row hits and %d row misses in %d %ss", hits, misses, reads, bc.name)
			case bc.batch == 1 && waited != 0, bc.batch > 1 && b.N >= bc.batch && waited == 0:
				b.Fatalf("reads waited %d ticks for a busy bank in %s", waited, bc.name)
			}
			if a := testing.AllocsPerRun(100, read); a != 0 {
				b.Fatalf("%v allocations per read, want none", a)
			}
		})
	}
}
