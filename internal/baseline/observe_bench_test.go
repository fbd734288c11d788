package baseline

import (
	"runtime"
	"testing"

	"eventpf/internal/mem"
)

// BenchmarkUnitObserve gives each hardware prefetcher's demand path a
// number: host ns per demand load through the fixture's L1, whose snoop
// calls the unit's Observe, the prefetches it issues included (translated,
// looked up and filled before the next load). The no-pf row is the same
// loads with no unit attached: the floor to subtract. The stream
// alternates blocks of 256 loads: an index walk A[k] (PC 1) interleaved
// with the array it names, B[k] (PC 2), a line a step each; then a pointer
// chase (PC 3) round a fixed cycle of 512 lines. So the stride units, the
// delta correlator, the timing prefetcher's trigger→target pair and the
// Markov GHB's recurring misses each have something to learn. Each
// sub-benchmark fails on an allocation, as none made one at the parent.
func BenchmarkUnitObserve(b *testing.B) {
	const lo, mib = 0x100000, 1 << 20
	for _, c := range []struct {
		name string
		unit func(*fixture) Unit
	}{
		{"no-pf", func(*fixture) Unit { return nil }},
		{"stride", func(f *fixture) Unit { return NewStride(f.eng, DefaultStrideConfig(), f.l1, f.tlb) }},
		{"ghb", func(f *fixture) Unit { return NewGHB(f.eng, RegularGHBConfig(), f.l1, f.tlb) }},
		{"ghb-delta", func(f *fixture) Unit { return NewGHBDelta(f.eng, DefaultDeltaConfig(), f.l1, f.tlb) }},
		{"rpt", func(f *fixture) Unit { return NewRPT(f.eng, DefaultRPTConfig(), f.l1, f.tlb) }},
		{"tskid", func(f *fixture) Unit { return NewTSKID(f.eng, DefaultTSKIDConfig(), f.l1, f.tlb) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			f := newFixture(b)
			f.mapRange(lo, lo+5*mib)
			f.l1.Pool = mem.NewPool()
			f.next.pool = f.l1.Pool
			u := c.unit(f)
			if u != nil {
				f.l1.OnDemandAccess = u.Observe
			}
			var chase uint64
			load := func(i int) {
				k := uint64(i/512*128 + i%256/2)
				addr, pc := lo+k*mem.LineSize%(2*mib), 1+i%2
				switch {
				case i/256%2 == 1:
					chase = (5*chase + 1) % 512 // a full cycle
					addr, pc = lo+4*mib+chase*4*mem.LineSize, 3
				case pc == 2:
					addr += 2 * mib
				}
				req := f.l1.Pool.Get()
				req.Addr, req.Kind, req.PC, req.Tag, req.TimedAt = addr, mem.Load, pc, mem.NoTag, -1
				f.l1.Access(req)
				f.eng.Run()
			}
			// Tables, issue queues and the request pool reach their working
			// size.
			const warm = 1 << 16
			for i := 0; i < warm; i++ {
				load(i)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				load(warm + i)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if u != nil && u.Stats().Issued == 0 {
				b.Fatalf("%s issued nothing: %+v", c.name, u.Stats())
			}
			if grew := after.Mallocs - before.Mallocs; grew > 16 {
				b.Fatalf("%d allocations over %d accesses, want none per access", grew, b.N)
			}
		})
	}
}
