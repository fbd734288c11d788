package sim

import "testing"

// The engine sits under every load, store, cache fill and PPU cycle of the
// simulator, so its per-event cost bounds whole-suite wall clock. These
// benchmarks pin the two properties the typed heap was introduced for:
// zero allocations per Push/Pop in steady state, and cheap churn at the
// queue depths the machine actually reaches (tens to a few thousand
// in-flight events).

func prefilled(n int) (*Engine, Handler) {
	e := NewEngine()
	h := fn(func() {})
	for i := 0; i < n; i++ {
		e.Schedule(Ticks(i), h, 0, 0)
	}
	return e, h
}

// BenchmarkEnginePushPop measures one schedule + one dispatch with the queue
// held at a steady depth. It must report 0 allocs/op: the backing slice is
// warm, so push appends into retained capacity and pop only shrinks it.
func BenchmarkEnginePushPop(b *testing.B) {
	e, h := prefilled(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleAfter(100, h, 0, 0)
		e.Step()
	}
}

// BenchmarkEngineChurn sweeps queue depth: sift cost is logarithmic, so the
// per-op time should grow gently from 64 to 8192 pending events.
func BenchmarkEngineChurn(b *testing.B) {
	for _, depth := range []int{64, 512, 8192} {
		b.Run(itoa(depth), func(b *testing.B) {
			e, h := prefilled(depth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.ScheduleAfter(Ticks(1+i%97), h, 0, 0)
				e.Step()
			}
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
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
