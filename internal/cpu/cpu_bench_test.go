package cpu

import (
	"runtime"
	"testing"

	"eventpf/internal/sim"
	"eventpf/internal/trace"
)

// The core's share of a simulated second depends on what it is doing: a busy
// core pays for the window scans of every cycle, a stalled one should pay
// only for the events that end the stall. These benchmarks give each case a
// number — host ns and engine events per micro-op — so a change to the tick
// path is located here before it shows in a figure's wall clock.

// aluStream yields n independent 1-cycle ops: the core never stalls.
type aluStream struct{ n int }

func (s *aluStream) Fill(op *MicroOp) bool {
	if s.n == 0 {
		return false
	}
	s.n--
	*op = MicroOp{Kind: OpInt, Deps: [2]int64{NoDep, NoDep}}
	return true
}

func (s *aluStream) Next() (op MicroOp, ok bool) {
	ok = s.Fill(&op)
	return op, ok
}

// chainStream yields a hash-chain walk of n ops: a load of the next pointer
// followed by two ALU ops (compare, mask), every op consuming the one before
// it, so the core is stalled for the whole of every load. At three ops a
// node a 40-entry window holds fewer loads than the load queue, so the
// window is what fills.
type chainStream struct{ id, n int64 }

func (s *chainStream) Fill(op *MicroOp) bool {
	if s.id == s.n {
		return false
	}
	*op = MicroOp{Kind: OpInt, Deps: [2]int64{s.id - 1, NoDep}}
	if s.id%3 == 0 {
		op.Kind, op.Addr = OpLoad, uint64(s.id)*64
	}
	s.id++
	return true
}

func (s *chainStream) Next() (op MicroOp, ok bool) {
	ok = s.Fill(&op)
	return op, ok
}

// stallMem completes every load after a fixed latency, scheduling the
// core's own completion handler: no closure, no allocation.
type stallMem struct {
	eng     *sim.Engine
	latency sim.Ticks
}

func (m *stallMem) load(_ uint64, _ int, h sim.Handler, a uint64) {
	m.eng.ScheduleAfter(m.latency, h, a, 0)
}

type countSink struct{ n int }

func (s *countSink) Event(trace.Event) { s.n++ }

// benchCore runs b.N micro-ops of stream against a 300-cycle memory and
// reports engine events per op beside the ns/op. It fails if the run
// allocates per op: the tick path must stay off the heap.
func benchCore(b *testing.B, stream Stream, traced bool) {
	eng := sim.NewEngine()
	cfg := testConfig()
	mem := &stallMem{eng: eng, latency: cfg.Clock.Cycles(300)}
	core := New(eng, cfg, Ports{Load: mem.load})
	if traced {
		core.Bus = trace.NewBus(&countSink{})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	core.Run(stream, nil)
	eng.Run()
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if core.Stats.Ops != int64(b.N) {
		b.Fatalf("retired %d ops, want %d", core.Stats.Ops, b.N)
	}
	b.ReportMetric(float64(eng.Seq())/float64(b.N), "events/op")
	// The engine queue's first few doublings are the only allocations.
	if grew := after.Mallocs - before.Mallocs; grew > 16 {
		b.Fatalf("%d allocations over %d ops, want none per op", grew, b.N)
	}
}

func BenchmarkCoreBusy(b *testing.B) { benchCore(b, &aluStream{n: b.N}, false) }

func BenchmarkCoreStalledChain(b *testing.B) { benchCore(b, &chainStream{n: int64(b.N)}, false) }

func BenchmarkCoreStalledChainTraced(b *testing.B) {
	benchCore(b, &chainStream{n: int64(b.N)}, true)
}
