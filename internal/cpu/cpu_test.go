package cpu

import (
	"testing"

	"eventpf/internal/sim"
)

type sliceStream struct {
	ops []MicroOp
	i   int
}

func (s *sliceStream) Next() (MicroOp, bool) {
	if s.i >= len(s.ops) {
		return MicroOp{}, false
	}
	op := s.ops[s.i]
	s.i++
	return op, true
}

func intOp(deps ...int64) MicroOp {
	op := MicroOp{Kind: OpInt, Deps: [2]int64{NoDep, NoDep}}
	for i, d := range deps {
		op.Deps[i] = d
	}
	return op
}

func loadOp(addr uint64, deps ...int64) MicroOp {
	op := MicroOp{Kind: OpLoad, Addr: addr, Deps: [2]int64{NoDep, NoDep}}
	for i, d := range deps {
		op.Deps[i] = d
	}
	return op
}

// fixedMem services loads with constant latency.
// fn is the tests' event handler: a closure scheduled through the typed path.
type fn func()

func (f fn) Handle(sim.Ticks, uint64, uint64) { f() }

type fixedMem struct {
	eng      *sim.Engine
	latency  sim.Ticks
	issued   int
	maxInFly int
	inFlight int
}

func (m *fixedMem) ports() Ports {
	return Ports{Load: func(addr uint64, pc int, h sim.Handler, a uint64) {
		m.issued++
		m.inFlight++
		if m.inFlight > m.maxInFly {
			m.maxInFly = m.inFlight
		}
		m.eng.ScheduleAfter(m.latency, fn(func() {
			m.inFlight--
			h.Handle(m.eng.Now(), a, 0)
		}), 0, 0)
	}}
}

func testConfig() Config {
	return Config{
		Clock: sim.ClockFromMHz(3200), Width: 3, ROB: 40, LQ: 16, SQ: 32,
		MispredictPenalty: 10,
	}
}

func runOps(t *testing.T, cfg Config, latency sim.Ticks, ops []MicroOp) (*Core, *fixedMem) {
	t.Helper()
	return runStream(t, cfg, latency, &sliceStream{ops: ops})
}

func runStream(t *testing.T, cfg Config, latency sim.Ticks, s Stream) (*Core, *fixedMem) {
	t.Helper()
	eng := sim.NewEngine()
	mem := &fixedMem{eng: eng, latency: latency}
	core := New(eng, cfg, mem.ports())
	finished := false
	core.Run(s, func() { finished = true })
	eng.Run()
	if !finished {
		t.Fatal("core never finished")
	}
	return core, mem
}

// TestNewValidatesConfig: the completion ring must be able to tell a window
// entry from an op a ring's length younger. depCompletion reads slots for ids
// back to ROB+retiredSlack behind the newest, so 248 is the largest window a
// 256-slot ring serves; 249–255 used to pass and alias.
func TestNewValidatesConfig(t *testing.T) {
	cases := []struct {
		name       string
		width, rob int
		ok         bool
	}{
		{"table 1", 3, 40, true},
		{"zero width", 0, 40, false},
		{"zero window", 3, 0, false},
		{"largest window the ring serves", 3, completionRing - retiredSlack, true},
		{"window whose slack wraps the ring", 3, completionRing - retiredSlack + 1, false},
		{"window one short of the ring", 3, completionRing - 1, false},
		{"window as large as the ring", 3, completionRing, false},
	}
	for _, tc := range cases {
		cfg := testConfig()
		cfg.Width, cfg.ROB = tc.width, tc.rob
		func() {
			defer func() {
				if panicked := recover() != nil; panicked == tc.ok {
					t.Errorf("%s (width %d, ROB %d): panicked = %v, want %v", tc.name, tc.width, tc.rob, panicked, !tc.ok)
				}
			}()
			New(sim.NewEngine(), cfg, Ports{})
		}()
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	const n = 8
	var ops []MicroOp
	for i := 0; i < n; i++ {
		ops = append(ops, loadOp(uint64(i*64)))
	}
	core, mem := runOps(t, testConfig(), 1000, ops)
	if mem.maxInFly < 4 {
		t.Errorf("max loads in flight = %d, want ≥4 (MLP)", mem.maxInFly)
	}
	// Overlapped: total ≪ n × latency.
	if core.Stats.FinishTick > 3*1000 {
		t.Errorf("finish at %d ticks; %d independent loads should overlap", core.Stats.FinishTick, n)
	}
}

func TestDependentLoadsSerialise(t *testing.T) {
	const n = 8
	var ops []MicroOp
	for i := 0; i < n; i++ {
		if i == 0 {
			ops = append(ops, loadOp(0))
		} else {
			ops = append(ops, loadOp(uint64(i*64), int64(i-1)))
		}
	}
	core, mem := runOps(t, testConfig(), 1000, ops)
	if mem.maxInFly != 1 {
		t.Errorf("max loads in flight = %d, want 1 (dependent chain)", mem.maxInFly)
	}
	if core.Stats.FinishTick < n*1000 {
		t.Errorf("finish at %d ticks, want ≥ %d (serialised)", core.Stats.FinishTick, n*1000)
	}
}

func TestROBLimitsMLP(t *testing.T) {
	// One load at the head blocks retirement; int ops fill the small window,
	// so the trailing loads cannot dispatch until the head load completes.
	// Total time is therefore ≥ two serialised memory latencies.
	cfg := testConfig()
	cfg.ROB = 8
	var ops []MicroOp
	ops = append(ops, loadOp(0))
	for i := 0; i < 7; i++ {
		ops = append(ops, intOp())
	}
	for i := 0; i < 4; i++ {
		ops = append(ops, loadOp(uint64(64+i*64)))
	}
	const lat = 10000
	core, mem := runOps(t, cfg, lat, ops)
	if core.Stats.FinishTick < 2*lat {
		t.Errorf("finish at %d, want ≥ %d: full ROB must serialise the load groups",
			core.Stats.FinishTick, 2*lat)
	}
	if mem.maxInFly > 4 {
		t.Errorf("max in flight = %d, want ≤ 4", mem.maxInFly)
	}

	// Control: with a large ROB all five loads overlap.
	cfg.ROB = 40
	core2, _ := runOps(t, cfg, lat, ops)
	if core2.Stats.FinishTick >= 2*lat {
		t.Errorf("large-ROB finish at %d, want < %d (all loads overlap)",
			core2.Stats.FinishTick, 2*lat)
	}
}

func TestLQLimitsOutstandingLoads(t *testing.T) {
	cfg := testConfig()
	cfg.LQ = 2
	var ops []MicroOp
	for i := 0; i < 10; i++ {
		ops = append(ops, loadOp(uint64(i*64)))
	}
	_, mem := runOps(t, cfg, 5000, ops)
	if mem.maxInFly > 2 {
		t.Errorf("max in flight = %d, want ≤ LQ=2", mem.maxInFly)
	}
}

func TestIntChainLatency(t *testing.T) {
	// A chain of n dependent 1-cycle int ops takes at least n cycles.
	const n = 20
	var ops []MicroOp
	for i := 0; i < n; i++ {
		if i == 0 {
			ops = append(ops, intOp())
		} else {
			ops = append(ops, intOp(int64(i-1)))
		}
	}
	core, _ := runOps(t, testConfig(), 0, ops)
	if core.Stats.Cycles < n {
		t.Errorf("cycles = %d, want ≥ %d for dependent int chain", core.Stats.Cycles, n)
	}
	if core.Stats.Ops != n {
		t.Errorf("ops retired = %d, want %d", core.Stats.Ops, n)
	}
}

func TestWidthLimitsThroughput(t *testing.T) {
	// 300 independent int ops on a 3-wide machine need ≥100 cycles.
	var ops []MicroOp
	for i := 0; i < 300; i++ {
		ops = append(ops, intOp())
	}
	core, _ := runOps(t, testConfig(), 0, ops)
	if core.Stats.Cycles < 100 {
		t.Errorf("cycles = %d, want ≥ 100 (3-wide)", core.Stats.Cycles)
	}
	if core.Stats.Cycles > 130 {
		t.Errorf("cycles = %d, want ≈100 for independent ops", core.Stats.Cycles)
	}
}

func TestMispredictPenalty(t *testing.T) {
	// Alternating taken/not-taken branches confound the predictor at first;
	// compare against always-taken branches, which it learns quickly.
	mk := func(pattern func(i int) bool) []MicroOp {
		var ops []MicroOp
		for i := 0; i < 400; i++ {
			ops = append(ops, MicroOp{Kind: OpBranch, PC: 1, Taken: pattern(i),
				Deps: [2]int64{NoDep, NoDep}})
		}
		return ops
	}
	// An LCG-driven direction sequence is unlearnable by gshare; a constant
	// direction is learnt after a few cold mispredictions.
	lcg := uint64(12345)
	random := func(i int) bool {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return lcg>>63 == 1
	}
	steady, _ := runOps(t, testConfig(), 0, mk(func(i int) bool { return true }))
	noisy, _ := runOps(t, testConfig(), 0, mk(random))
	if noisy.Stats.Mispredicts <= steady.Stats.Mispredicts {
		t.Errorf("mispredicts: noisy=%d steady=%d", noisy.Stats.Mispredicts, steady.Stats.Mispredicts)
	}
	if noisy.Stats.Cycles <= steady.Stats.Cycles {
		t.Errorf("cycles: noisy=%d steady=%d; mispredicts should cost time",
			noisy.Stats.Cycles, steady.Stats.Cycles)
	}
}

func TestConfigOpSideEffect(t *testing.T) {
	ran := false
	ops := []MicroOp{
		{Kind: OpConfig, Deps: [2]int64{NoDep, NoDep}, Do: func() { ran = true }},
		intOp(),
	}
	runOps(t, testConfig(), 0, ops)
	if !ran {
		t.Error("config op side effect did not run")
	}
}

// dirtyEnd is an in-place stream of n configuration ops that, as the Fill
// contract allows, leaves rubbish in the slot when it reports the end.
type dirtyEnd struct{ n, ran int }

func (s *dirtyEnd) Fill(op *MicroOp) bool {
	*op = MicroOp{Kind: OpConfig, Deps: [2]int64{NoDep, NoDep}, Do: func() { s.ran++ }}
	s.n--
	return s.n >= 0
}

func (s *dirtyEnd) Next() (op MicroOp, ok bool) {
	ok = s.Fill(&op)
	return op, ok
}

// TestSlotHoldsNoFuncAfterDispatch: a configuration op's effect runs once, at
// dispatch, and is then dropped from the slot — as is whatever a stream left
// there on reporting its end — so a fork that copies the slot copies nothing
// bound to this core. A stream that fills in place is used as it is; a plain
// one goes through the adapter.
func TestSlotHoldsNoFuncAfterDispatch(t *testing.T) {
	s := &dirtyEnd{n: 5}
	if AsFiller(s) != Filler(s) {
		t.Error("AsFiller wrapped a stream that fills in place")
	}
	if AsFiller(nil) != nil {
		t.Error("AsFiller(nil) is not nil")
	}
	core, _ := runStream(t, testConfig(), 0, s)
	if s.ran != 5 || core.Stats.Ops != 5 {
		t.Errorf("%d effects ran over %d ops, want 5 and 5", s.ran, core.Stats.Ops)
	}
	if op, parked := core.Slot(); op.Do != nil || parked {
		t.Errorf("after the run the slot holds a func (%v) or a parked op (%v)", op.Do != nil, parked)
	}
	ops := []MicroOp{{Kind: OpConfig, Deps: [2]int64{NoDep, NoDep}, Do: func() {}}, intOp()}
	plain := &sliceStream{ops: ops}
	if _, wrapped := AsFiller(plain).(nextFiller); !wrapped {
		t.Error("AsFiller did not adapt a plain stream")
	}
	core, _ = runStream(t, testConfig(), 0, plain)
	if op, _ := core.Slot(); op.Do != nil || core.Stats.Ops != 2 {
		t.Errorf("plain stream: slot holds a func (%v) after %d ops, want none after 2", op.Do != nil, core.Stats.Ops)
	}
}

func TestSWPrefetchPort(t *testing.T) {
	eng := sim.NewEngine()
	var pfAddrs []uint64
	ports := Ports{
		Load:       func(addr uint64, pc int, h sim.Handler, a uint64) { h.Handle(eng.Now(), a, 0) },
		SWPrefetch: func(addr uint64) { pfAddrs = append(pfAddrs, addr) },
	}
	core := New(eng, testConfig(), ports)
	ops := []MicroOp{{Kind: OpSWPf, Addr: 0xbeef0, Deps: [2]int64{NoDep, NoDep}}}
	core.Run(&sliceStream{ops: ops}, nil)
	eng.Run()
	if len(pfAddrs) != 1 || pfAddrs[0] != 0xbeef0 {
		t.Errorf("software prefetches issued: %#x", pfAddrs)
	}
	if core.Stats.SWPrefetch != 1 {
		t.Errorf("SWPrefetch stat = %d, want 1", core.Stats.SWPrefetch)
	}
}

func TestStorePort(t *testing.T) {
	eng := sim.NewEngine()
	stores := 0
	ports := Ports{
		Load:  func(addr uint64, pc int, h sim.Handler, a uint64) { h.Handle(eng.Now(), a, 0) },
		Store: func(addr uint64, pc int) { stores++ },
	}
	core := New(eng, testConfig(), ports)
	ops := []MicroOp{{Kind: OpStore, Addr: 0x100, Deps: [2]int64{NoDep, NoDep}}}
	core.Run(&sliceStream{ops: ops}, nil)
	eng.Run()
	if stores != 1 || core.Stats.Stores != 1 {
		t.Errorf("stores seen=%d stat=%d, want 1", stores, core.Stats.Stores)
	}
}

func TestLoadDependentComputeWaits(t *testing.T) {
	// int op depending on a slow load must not complete before the load.
	ops := []MicroOp{
		loadOp(0),
		intOp(0),
	}
	core, _ := runOps(t, testConfig(), 2000, ops)
	if core.Stats.FinishTick < 2000 {
		t.Errorf("finished at %d, want ≥ load latency 2000", core.Stats.FinishTick)
	}
}

func TestStatsCountKinds(t *testing.T) {
	ops := []MicroOp{
		intOp(), loadOp(0),
		{Kind: OpStore, Addr: 8, Deps: [2]int64{NoDep, NoDep}},
		{Kind: OpBranch, Taken: true, Deps: [2]int64{NoDep, NoDep}},
		{Kind: OpMul, Deps: [2]int64{NoDep, NoDep}},
		{Kind: OpDiv, Deps: [2]int64{NoDep, NoDep}},
	}
	core, _ := runOps(t, testConfig(), 100, ops)
	s := core.Stats
	if s.Ops != 6 || s.Loads != 1 || s.Stores != 1 || s.Branches != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSQLimitsOutstandingStores(t *testing.T) {
	cfg := testConfig()
	cfg.SQ = 2
	var ops []MicroOp
	// A long-latency load at the head keeps stores from retiring, so the
	// 2-entry store queue must throttle dispatch.
	ops = append(ops, loadOp(0))
	for i := 0; i < 6; i++ {
		ops = append(ops, MicroOp{Kind: OpStore, Addr: uint64(64 + i*64),
			Deps: [2]int64{NoDep, NoDep}})
	}
	eng := sim.NewEngine()
	mem := &fixedMem{eng: eng, latency: 5000}
	stores := 0
	ports := mem.ports()
	ports.Store = func(addr uint64, pc int) { stores++ }
	core := New(eng, cfg, ports)
	core.Run(&sliceStream{ops: ops}, nil)
	eng.RunUntil(2500)
	if stores > 2 {
		t.Errorf("%d stores issued while head load blocks retirement, want ≤ SQ=2", stores)
	}
	eng.Run()
	if core.Stats.Stores != 6 {
		t.Errorf("stores retired = %d, want 6", core.Stats.Stores)
	}
}

func TestMulDivLatencies(t *testing.T) {
	// A dependent chain of n multiplies takes ≈3n cycles; divides ≈12n.
	mk := func(kind OpKind, n int) []MicroOp {
		var ops []MicroOp
		for i := 0; i < n; i++ {
			op := MicroOp{Kind: kind, Deps: [2]int64{NoDep, NoDep}}
			if i > 0 {
				op.Deps[0] = int64(i - 1)
			}
			ops = append(ops, op)
		}
		return ops
	}
	mul, _ := runOps(t, testConfig(), 0, mk(OpMul, 20))
	div, _ := runOps(t, testConfig(), 0, mk(OpDiv, 20))
	if mul.Stats.Cycles < 60 {
		t.Errorf("mul chain = %d cycles, want ≥ 60", mul.Stats.Cycles)
	}
	if div.Stats.Cycles < 240 {
		t.Errorf("div chain = %d cycles, want ≥ 240", div.Stats.Cycles)
	}
	if div.Stats.Cycles <= mul.Stats.Cycles {
		t.Error("div chain not slower than mul chain")
	}
}

func TestPredictableBranchesLearnt(t *testing.T) {
	// A loop-closing branch pattern (taken, taken, ..., not-taken) repeated:
	// gshare should reach high accuracy after warmup.
	var ops []MicroOp
	for rep := 0; rep < 50; rep++ {
		for i := 0; i < 8; i++ {
			ops = append(ops, MicroOp{Kind: OpBranch, PC: 3, Taken: i != 7,
				Deps: [2]int64{NoDep, NoDep}})
		}
	}
	core, _ := runOps(t, testConfig(), 0, ops)
	rate := float64(core.Stats.Mispredicts) / float64(core.Stats.Branches)
	if rate > 0.10 {
		t.Errorf("mispredict rate %.2f on a periodic pattern, want < 0.10", rate)
	}
}

func TestIdleHorizon(t *testing.T) {
	const now, none = 100, -1 // period is 5 ticks, so 100 is an edge
	for _, tc := range []struct {
		name       string
		nextEvent  sim.Ticks // none: empty queue
		stallUntil sim.Ticks
		noStream   bool
		want       sim.Ticks // none: no horizon
	}{
		{name: "event at now", nextEvent: 100, want: 105},
		{name: "event inside the next cycle", nextEvent: 103, want: 105},
		{name: "event on the next edge", nextEvent: 105, want: 105},
		{name: "event on a later edge", nextEvent: 150, want: 150},
		{name: "event between later edges", nextEvent: 152, want: 155},
		{name: "stall ends off-edge before the event", nextEvent: 200, stallUntil: 123, want: 125},
		{name: "stall ends on an edge before the event", nextEvent: 200, stallUntil: 120, want: 120},
		{name: "stall ends inside the next cycle", nextEvent: 200, stallUntil: 101, want: 105},
		{name: "stall ends after the event", nextEvent: 152, stallUntil: 300, want: 155},
		{name: "stall already over", nextEvent: 200, stallUntil: 100, want: 200},
		{name: "stall without a stream", nextEvent: 200, stallUntil: 123, noStream: true, want: 200},
		{name: "empty queue", nextEvent: none, want: none},
		{name: "empty queue, stall ahead", nextEvent: none, stallUntil: 123, want: 125},
		{name: "empty queue, stall without a stream", nextEvent: none, stallUntil: 123, noStream: true, want: none},
	} {
		eng := sim.NewEngine()
		eng.RunUntil(now)
		if tc.nextEvent != none {
			eng.Schedule(tc.nextEvent, fn(func() {}), 0, 0)
		}
		c := New(eng, testConfig(), Ports{})
		c.stallUntil = tc.stallUntil
		if !tc.noStream {
			c.stream = AsFiller(&sliceStream{})
		}
		at, ok := c.idleHorizon(now)
		if !ok {
			at = none
		}
		if at != tc.want {
			t.Errorf("%s: horizon = %d, want %d", tc.name, at, tc.want)
		}
	}
}

// TestStuckLoadDrainsEngine: a core whose head load never completes, with an
// op still unissued behind it, has nothing left that could wake it. It must
// stop ticking so the engine drains and the run driver can report the
// deadlock, instead of ticking through empty cycles forever.
func TestStuckLoadDrainsEngine(t *testing.T) {
	eng := sim.NewEngine()
	core := New(eng, testConfig(), Ports{Load: func(uint64, int, sim.Handler, uint64) {}})
	finished := false
	core.Run(&sliceStream{ops: []MicroOp{loadOp(0), intOp(0)}}, func() { finished = true })
	eng.Run()
	if finished {
		t.Fatal("core finished although its load never completed")
	}
	rob, loads, headComplete, headKind := core.Window()
	if rob != 2 || loads != 1 || headComplete || headKind != OpLoad {
		t.Errorf("window = (rob %d, loads %d, head complete %v, head kind %d), want the stuck load at the head of 2",
			rob, loads, headComplete, headKind)
	}
}

// TestStalledChainEventBudget pins the cost of a stalled core in engine
// events, which is deterministic where host time is not. Each node of the
// benchmarks' dependent chain (chainStream) at 300 cycles a load needs its
// completion event, one tick per op it retires and issues, and one tick that
// finds nothing more to do and jumps the stall: at most three events an op.
// A tick chain kept alive through the stall costs one event per stalled
// cycle, a hundred an op.
func TestStalledChainEventBudget(t *testing.T) {
	const nodes = 1000
	core, _ := runStream(t, testConfig(), testConfig().Clock.Cycles(300), &chainStream{n: 3 * nodes})
	if core.Stats.Ops != 3*nodes || core.Stats.Cycles < 300*nodes {
		t.Fatalf("chain retired %d ops in %d cycles, want %d ops in ≥ %d", core.Stats.Ops, core.Stats.Cycles, 3*nodes, 300*nodes)
	}
	if perOp := float64(core.eng.Seq()) / float64(core.Stats.Ops); perOp > 3 {
		t.Errorf("%.2f engine events per op, want ≤ 3", perOp)
	}
}

// TestLoadPCSameHoweverIssued: a load whose operands are ready launches at
// issue, one that waits for an operand launches later, by its op id alone.
// Both must carry the PC at full width: were the delayed path's copy narrower
// (int32), one static load with bit 31 set in its PC would train a prefetch
// unit under two PCs, one of them negative and so ignored.
func TestLoadPCSameHoweverIssued(t *testing.T) {
	pc := int(uint32(0x80001000))
	first, waits := loadOp(0x1000), loadOp(0x2000, 1)
	first.PC, waits.PC = pc, pc
	div := MicroOp{Kind: OpDiv, Deps: [2]int64{NoDep, NoDep}}

	eng := sim.NewEngine()
	var seen []int
	core := New(eng, testConfig(), Ports{Load: func(_ uint64, pc int, h sim.Handler, a uint64) {
		seen = append(seen, pc)
		eng.ScheduleAfter(10, h, a, 0)
	}})
	core.Run(&sliceStream{ops: []MicroOp{first, div, waits}}, func() {})
	eng.Run()
	if len(seen) != 2 || seen[0] != pc || seen[1] != pc {
		t.Errorf("the two loads of PC %#x reached the load port as %#x", pc, seen)
	}
}
