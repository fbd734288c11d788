package sim

import (
	"runtime"
	"testing"
)

// The engine sits under every load, store, cache fill and PPU cycle of the
// simulator, so its per-event cost bounds whole-suite wall clock. These
// benchmarks pin the two properties the queue is built for: zero allocations
// per schedule/dispatch in steady state, and a cost that does not depend on
// how many events are pending. Measured depths at Schedule are 2–15 on a
// trace replay and 16–127 on a programmable-prefetcher run (8–127 at 89 % of
// calls over the ppf-detail pairs); 8192 is far beyond both and is here to
// show the wheel does not care.

func prefilled(n int) (*Engine, Handler) {
	e := NewEngine()
	h := fn(func() {})
	for i := 0; i < n; i++ {
		e.Schedule(Ticks(i), h, 0, 0)
	}
	return e, h
}

// benchSteady times b.N calls of op on a warm engine and fails if they
// allocate: one malloc per call would show as b.N of them, whereas slab or
// overflow growth is a handful over the whole run.
func benchSteady(b *testing.B, op func(i int)) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if grew := after.Mallocs - before.Mallocs; grew > 16 {
		b.Fatalf("%d allocations over %d ops, want none per op", grew, b.N)
	}
}

// BenchmarkEnginePushPop measures one schedule + one dispatch with the queue
// held at a steady depth.
func BenchmarkEnginePushPop(b *testing.B) {
	e, h := prefilled(1024)
	benchSteady(b, func(int) {
		e.ScheduleAfter(100, h, 0, 0)
		e.Step()
	})
}

// BenchmarkEngineChurn sweeps queue depth from what a replay holds to far
// more than any run does; the per-op time should stay flat.
func BenchmarkEngineChurn(b *testing.B) {
	for _, depth := range []int{8, 64, 512, 8192} {
		b.Run(itoa(depth), func(b *testing.B) {
			e, h := prefilled(depth)
			benchSteady(b, func(i int) {
				e.ScheduleAfter(Ticks(1+i%97), h, 0, 0)
				e.Step()
			})
		})
	}
}

// BenchmarkEngineCascade models the simulator's real pattern: every
// dispatched event schedules its successor (a cache fill scheduling the
// response, a PPU cycle scheduling the next).
func BenchmarkEngineCascade(b *testing.B) {
	e := NewEngine()
	var kick fn
	kick = func() { e.ScheduleAfter(7, kick, 0, 0) }
	for i := 0; i < 32; i++ {
		e.ScheduleAfter(Ticks(i), kick, 0, 0)
	}
	benchSteady(b, func(int) { e.Step() })
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestEngineSteadyStateZeroAllocs enforces the benchmark's headline property
// in the ordinary test run, so an accidental reintroduction of boxing fails
// `go test` rather than waiting for someone to read benchmark output.
func TestEngineSteadyStateZeroAllocs(t *testing.T) {
	e, h := prefilled(1024)
	for i := 0; i < 512; i++ {
		e.Step()
	}
	allocs := testing.AllocsPerRun(2000, func() {
		e.ScheduleAfter(100, h, 0, 0)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("steady-state push+pop allocates %v allocs/op, want 0", allocs)
	}
}
