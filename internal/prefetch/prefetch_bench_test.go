package prefetch

import (
	"runtime"
	"testing"

	"eventpf/internal/mem"
	"eventpf/internal/ppu"
)

// The programmable prefetcher's share of a simulated second is its
// bookkeeping per observation: queue, unit, kernel, record, request queue,
// translation, lookup, fill. These benchmarks give that path a number — host
// ns and engine events per observed load — with the memory below the L1
// reduced to a fixed latency, and fail if the path allocates.

// benchObserve feeds b.N load observations, one every drain of the engine,
// walking region a line at a time.
func benchObserve(b *testing.B, f *fixture, region mem.Region) {
	pool := mem.NewPool()
	f.l1.Pool, f.next.pool = pool, pool
	lines := region.Size / mem.LineSize
	observe := func(i int) {
		f.pf.Observe(region.Base+uint64(i)%lines*mem.LineSize, -1, false)
		f.eng.Run()
	}
	// Rings, record tables and the request pool reach their working size.
	const warm = 4096
	for i := 0; i < warm; i++ {
		observe(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events := f.eng.Seq()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		observe(warm + i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(f.eng.Seq()-events)/float64(b.N), "events/op")
	if f.pf.Stats.KernelFaults+f.pf.Stats.TLBDrops+f.pf.Stats.ReqDropped != 0 {
		b.Fatalf("the path under test dropped work: %+v", f.pf.Stats)
	}
	if grew := after.Mallocs - before.Mallocs; grew > 16 {
		b.Fatalf("%d allocations over %d observations, want none per observation", grew, b.N)
	}
}

// BenchmarkPrefetcherStride: load observation → kernel → one untagged
// prefetch two lines ahead → fill.
func BenchmarkPrefetcherStride(b *testing.B) {
	f := newFixture(b, DefaultConfig())
	a := f.arena.AllocWords("A", 1<<19)
	f.pf.RegisterKernel(1, ppu.MustAssemble("vaddr r1\naddi r1, r1, 128\npf r1\nhalt"))
	f.pf.SetRange(0, RangeConfig{Lo: a.Base, Hi: a.End() - 128, LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})
	benchObserve(b, f, mem.Region{Base: a.Base, Size: a.Size - 128})
	if want := int64(b.N) + 4096; f.pf.Stats.FillObservations != want {
		b.Fatalf("%d fills, want %d", f.pf.Stats.FillObservations, want)
	}
}

// BenchmarkPrefetcherChain: the §4.7 path of Figure 4 — a load of A[i]
// prefetches A two lines ahead tagged to a kernel that reads the index there
// and prefetches B[A[x]], tagged in turn to a kernel that prefetches
// C[B[A[x]]]: three kernels and three fills an observation.
func BenchmarkPrefetcherChain(b *testing.B) { benchChain(b, DefaultConfig()) }

// BenchmarkPrefetcherBlockedChain: the same chain under Figure 11's other
// policy — the unit stalls on each tagged prefetch, so an observation has
// three invocations live at its deepest and takes them from the pool.
func BenchmarkPrefetcherBlockedChain(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Blocked = true
	benchChain(b, cfg)
}

func benchChain(b *testing.B, cfg Config) {
	f := newFixture(b, cfg)
	const words = 1 << 17
	a := f.arena.AllocWords("A", words)
	bb := f.arena.AllocWords("B", words)
	c := f.arena.AllocWords("C", words)
	for i := uint64(0); i < words; i++ {
		f.bk.Write64(a.Base+i*8, i*40503%words)
		f.bk.Write64(bb.Base+i*8, i*30011%words)
	}
	f.pf.RegisterKernel(1, ppu.MustAssemble("vaddr r1\naddi r1, r1, 128\npftag r1, 2\nhalt"))
	f.pf.RegisterKernel(2, ppu.MustAssemble("lddata r1\nshli r1, r1, 3\nldg r2, g1\nadd r1, r1, r2\npftag r1, 3\nhalt"))
	f.pf.RegisterKernel(3, ppu.MustAssemble("lddata r1\nshli r1, r1, 3\nldg r2, g2\nadd r1, r1, r2\npf r1\nhalt"))
	f.pf.SetGlobal(1, bb.Base)
	f.pf.SetGlobal(2, c.Base)
	f.pf.SetRange(0, RangeConfig{Lo: a.Base, Hi: a.End() - 128, LoadKernel: 1, PFKernel: NoKernel, EWMAGroup: -1})
	benchObserve(b, f, mem.Region{Base: a.Base, Size: a.Size - 128})
	if want := 3 * (int64(b.N) + 4096); f.pf.Stats.KernelRuns != want {
		b.Fatalf("%d kernel runs, want %d", f.pf.Stats.KernelRuns, want)
	}
	records := 1 // event mode runs every kernel to its halt in the one record
	if cfg.Blocked {
		records = 3
	}
	if len(f.pf.invFree) != records {
		b.Fatalf("%d invocation records made, want %d", len(f.pf.invFree), records)
	}
}
