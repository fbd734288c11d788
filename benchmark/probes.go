package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"eventpf/internal/compiler"
	"eventpf/internal/cpu"
	"eventpf/internal/harness"
	"eventpf/internal/ir"
	"eventpf/internal/mem"
	"eventpf/internal/ppu"
	"eventpf/internal/serve"
	"eventpf/internal/sim"
	"eventpf/internal/system"
	"eventpf/internal/trace"
	"eventpf/internal/tracein"
	"eventpf/internal/workloads"
)

// A probe is the host time of an isolated call sequence into one layer's
// public API, with the layers below it real. Probes are driven by inputs
// recorded from the benchmarks themselves (a captured PPFT trace's load
// stream, the benchmarks' own kernels), not by synthetic patterns, and are
// the same whatever workload the traced run belongs to.

// probeBench and probeScale choose the recorded input: small enough that
// building a machine per sample is cheap, large enough to miss in the L1.
const (
	probeBench = "HJ-2"
	probeScale = 0.02
)

// prober runs the probes. budget is the host time each one may spend.
type prober struct {
	budget time.Duration
	m      map[string]float64

	trace  []byte        // probeBench captured under no-pf, PPFT bytes
	events []trace.Event // the CoreDispatch events that produced it
	loads  []traceLoad   // its demand loads
	ops    int64
	result harness.Result
}

type traceLoad struct {
	pc   int
	addr uint64
}

type nopHandler struct{}

func (nopHandler) Handle(sim.Ticks, uint64, uint64) {}

// sample calls fn until the budget is spent (at least three times) and
// returns the median host nanoseconds per unit. fn reports how many units it
// did and how long the timed part took, so it can set up untimed.
func (p *prober) sample(fn func() (units int, d time.Duration)) float64 {
	var per []float64
	for spent := time.Duration(0); len(per) < 3 || spent < p.budget; {
		n, d := fn()
		spent += d
		per = append(per, ratio(float64(d.Nanoseconds()), float64(n)))
		if len(per) >= 200 {
			break
		}
	}
	return median(per)
}

// loop is sample for work that needs no set-up: n calls of fn, timed.
func (p *prober) loop(n int, fn func(i int)) float64 {
	return p.sample(func() (int, time.Duration) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		return n, time.Since(t0)
	})
}

// tee feeds one op stream to the PPFT writer and to a collector, so the same
// capture gives the bytes to decode and the events to encode.
type tee struct {
	w *tracein.Writer
	c *trace.Collector
}

func (t tee) Event(e trace.Event)               { t.w.Event(e); t.c.Event(e) }
func (t tee) BeginCapture(regions []mem.Region) { t.w.BeginCapture(regions) }

func runProbes(budget time.Duration) (map[string]float64, error) {
	p := &prober{budget: budget, m: map[string]float64{}}
	if err := p.capture(); err != nil {
		return nil, err
	}
	p.simProbe()
	p.cpuProbes()
	p.irProbe()
	p.memProbes()
	p.prefetchProbes()
	p.ppuProbes()
	p.traceinProbes()
	p.compilerProbes()
	if err := p.systemProbes(); err != nil {
		return nil, err
	}
	if err := p.harnessProbes(); err != nil {
		return nil, err
	}
	if err := p.serveProbes(); err != nil {
		return nil, err
	}
	if err := p.traceProbes(); err != nil {
		return nil, err
	}
	return p.m, nil
}

func (p *prober) capture() error {
	b, noPF, err := resolve(probeBench, "no-pf")
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	sink := tee{w: tracein.NewWriter(&buf, tracein.Meta{Bench: b.Name, Scheme: "no-pf", Scale: probeScale, Tool: "benchmark"}), c: trace.NewCollector()}
	p.result, err = harness.Run(b, noPF, harness.Options{Scale: probeScale, OpSink: sink})
	if err == nil {
		err = sink.w.Close()
	}
	if err != nil {
		return fmt.Errorf("probe capture: %w", err)
	}
	p.trace, p.events = buf.Bytes(), sink.c.Events()
	dec, err := tracein.Open(bytes.NewReader(p.trace))
	if err != nil {
		return err
	}
	for {
		op, err := dec.Next()
		if err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		p.ops++
		if op.Kind == cpu.OpLoad && len(p.loads) < 20000 {
			p.loads = append(p.loads, traceLoad{pc: op.PC, addr: op.Addr})
		}
	}
	return nil
}

// simProbe: typed-handler Schedule/Step churn with 8 events pending. The
// issue asked for depth 64, but sampling Engine.Pending every 1000 ops over
// five bench×scheme pairs gave mean depths of 2 to 20, and at 64 the heap's
// sift cost alone made sim.est_share exceed 1 on hwpf-replay.
func (p *prober) simProbe() {
	eng := sim.NewEngine()
	for i := 0; i < 8; i++ {
		eng.Schedule(sim.Ticks(i), nopHandler{}, 0, 0)
	}
	p.m["sim.ns_per_event"] = p.loop(20000, func(i int) {
		eng.ScheduleAfter(sim.Ticks(1+i%97), nopHandler{}, 0, 0)
		eng.Step()
	})
}

type opSlice struct {
	ops []cpu.MicroOp
	i   int
}

func (s *opSlice) Next() (cpu.MicroOp, bool) {
	if s.i >= len(s.ops) {
		return cpu.MicroOp{}, false
	}
	s.i++
	return s.ops[s.i-1], true
}

// cpuProbes time the core model alone over stub ports: an all-ALU stream
// (every tick dispatches and retires) and a chain of dependent loads that
// each complete after a fixed 300 cycles (the core is stalled and takes the
// idle-tick path).
func (p *prober) cpuProbes() {
	def := system.DefaultConfig()
	clk := sim.ClockFromMHz(def.CoreMHz)
	cfg := cpu.Config{Clock: clk, Width: def.Width, ROB: def.ROB, LQ: def.LQ, SQ: def.SQ, MispredictPenalty: def.MispredictPenalty}
	run := func(ops []cpu.MicroOp) (int, time.Duration) {
		eng := sim.NewEngine()
		core := cpu.New(eng, cfg, cpu.Ports{
			Load: func(_ uint64, _ int, h sim.Handler, a uint64) { eng.ScheduleAfter(clk.Cycles(300), h, a, 0) },
		})
		t0 := time.Now()
		core.Run(&opSlice{ops: ops}, func() {})
		eng.Run()
		return len(ops), time.Since(t0)
	}
	alu := make([]cpu.MicroOp, 20000)
	for i := range alu {
		alu[i] = cpu.MicroOp{Kind: cpu.OpInt, Deps: [2]int64{cpu.NoDep, cpu.NoDep}}
	}
	chain := make([]cpu.MicroOp, 2000)
	for i := range chain {
		chain[i] = cpu.MicroOp{Kind: cpu.OpLoad, Addr: uint64(i) * mem.LineSize, Deps: [2]int64{int64(i) - 1, cpu.NoDep}}
	}
	p.m["cpu.busy_ns_per_op"] = p.sample(func() (int, time.Duration) { return run(alu) })
	p.m["cpu.stalled_ns_per_op"] = p.sample(func() (int, time.Duration) { return run(chain) })
}

// irProbe drains three benchmarks' interpreters functionally: the cost of
// producing a micro-op, with no timing model behind it.
func (p *prober) irProbe() {
	p.m["ir.ns_per_op"] = p.sample(func() (int, time.Duration) {
		ops, d := 0, time.Duration(0)
		for _, name := range []string{"HJ-2", "G500-CSR", "ConjGrad"} {
			b, _ := workloads.ByName(name)
			m := system.New(system.DefaultConfig(), system.NoPF)
			inst := b.Build(m, probeScale)
			fn := inst.BuildFn(workloads.Plain)
			t0 := time.Now()
			for _, r := range inst.Runs {
				if r.Before != nil {
					r.Before(m)
				}
				it := m.NewInterp(fn, r.Args...)
				for {
					if _, ok := it.Next(); !ok {
						break
					}
					ops++
				}
			}
			d += time.Since(t0)
		}
		return ops, d
	})
}

// memProbes time single transactions through a real L1→L2→DRAM stack and
// TLB, one at a time with the engine drained after each, so the figure is a
// whole round trip including its events. The TLB is shrunk so that a 4 MiB
// region thrashes it.
func (p *prober) memProbes() {
	cfg := system.DefaultConfig()
	cfg.TLB.L2Entries = 256
	m := system.New(cfg, system.NoPF)
	reg := m.Arena.Alloc("probe", 4<<20)
	lines := reg.Size / mem.LineSize
	pages := reg.Size / mem.PageSize
	access := func(level mem.Level, addr uint64) {
		req := m.L1.Pool.Get()
		req.Addr, req.Line, req.Kind, req.PC = addr, mem.LineAddr(addr), mem.Load, -1
		req.Tag, req.TimedAt = mem.NoTag, -1
		req.Comp = nopHandler{}
		level.Access(req)
		m.Eng.Run()
	}
	access(m.L1, reg.Base)
	p.m["mem.l1_hit_ns"] = p.loop(5000, func(int) { access(m.L1, reg.Base) })
	// A 65-line stride walks all 65536 lines before repeating: every access
	// misses the 32 KiB L1 and the 1 MiB L2 and goes to DRAM.
	var n uint64
	p.m["mem.l1_miss_ns"] = p.loop(3000, func(int) {
		n++
		access(m.L1, reg.Base+(n*65%lines)*mem.LineSize)
	})
	p.m["mem.dram_ns_per_access"] = p.loop(5000, func(int) {
		n++
		access(m.DRAM, reg.Base+(n*65%lines)*mem.LineSize)
	})
	m.TLB.TranslateTo(reg.Base, nopHandler{}, 0)
	m.Eng.Run() // the first translation walks; the rest hit the L1 TLB
	p.m["mem.tlb_hit_ns"] = p.loop(20000, func(int) { m.TLB.TranslateTo(reg.Base, nopHandler{}, 0) })
	p.m["mem.tlb_walk_ns"] = p.loop(2000, func(int) {
		n++
		m.TLB.TranslateTo(reg.Base+(n%pages)*mem.PageSize, nopHandler{}, 0)
		m.Eng.Run()
	})
	pool := mem.NewPool()
	pool.Put(pool.Get())
	p.m["mem.pool_get_put_ns"] = p.loop(100000, func(int) { pool.Put(pool.Get()) })
}

// drive replays the recorded demand loads into a machine's L1, one at a time
// with the engine drained after each, and returns the host time it took.
// Whatever prefetcher the machine hosts snoops them exactly as in a run.
func (p *prober) drive(scheme string) (*system.Machine, time.Duration) {
	b, s, _ := resolve(probeBench, scheme)
	info, _ := s.Info()
	m := system.New(system.DefaultConfig(), info.Machine)
	inst := b.Build(m, probeScale)
	if info.Manual && inst.Manual != nil {
		inst.Manual(m)
	}
	t0 := time.Now()
	for _, ld := range p.loads {
		req := m.L1.Pool.Get()
		req.Addr, req.Kind, req.PC = ld.addr, mem.Load, ld.pc
		req.Tag, req.TimedAt = mem.NoTag, -1
		req.Comp = nopHandler{}
		m.L1.Access(req)
		m.Eng.Run()
	}
	return m, time.Since(t0)
}

// prefetchProbes: the same load replay with and without each prefetcher;
// the difference is what the prefetcher cost the host.
func (p *prober) prefetchProbes() {
	total := func(scheme string) (float64, *system.Machine) {
		var last *system.Machine
		ns := p.sample(func() (int, time.Duration) {
			m, d := p.drive(scheme)
			last = m
			return 1, d
		})
		return ns, last
	}
	bare, _ := total("no-pf")
	withPF, m := total("manual")
	obs := m.PF.Stats.LoadObservations + m.PF.Stats.FillObservations
	p.m["prefetch.ns_per_observation"] = ratio(withPF-bare, float64(obs))
	for _, s := range hwpfSchemes[1:] {
		ns, _ := total(s)
		p.m["baseline."+s+"_ns_per_access"] = ratio(ns-bare, float64(len(p.loads)))
	}
}

// ppuProbes run the compiler-generated event kernels of the four convertible
// benchmarks on the PPU VM (the hand-written kernels are private to
// internal/workloads), and time assembling their source.
func (p *prober) ppuProbes() {
	var progs [][]ppu.Instr
	var srcs []string
	for _, name := range []string{"HJ-2", "IntSort", "RandAcc", "ConjGrad"} {
		b, _ := workloads.ByName(name)
		inst := b.Build(system.New(system.DefaultConfig(), system.NoPF), probeScale)
		res, err := compiler.ConvertSoftwarePrefetches(inst.BuildFn(workloads.SWPf), compiler.NewAlloc())
		if err != nil {
			continue
		}
		for id := 1; id <= len(res.Kernels); id++ {
			prog := res.Kernels[id]
			var sb strings.Builder
			for _, in := range prog {
				sb.WriteString(in.String() + "\n")
			}
			progs, srcs = append(progs, prog), append(srcs, sb.String())
		}
	}
	var globals [ppu.NumGlobals]uint64
	for i := range globals {
		globals[i] = uint64(i+1) << 12
	}
	env := ppu.Env{VAddr: 1 << 20, Globals: &globals,
		Lookahead: func(int) uint64 { return 4 },
		EmitPF:    func(uint64, int, int64) bool { return false }}
	for i := range env.Line {
		env.Line[i] = uint64(i+1) << 8
	}
	var vm ppu.VM
	p.m["ppu.ns_per_instr"] = p.sample(func() (int, time.Duration) {
		instrs := int64(0)
		t0 := time.Now()
		for rep := 0; rep < 200; rep++ {
			for _, prog := range progs {
				vm.Reset(prog, &env)
				vm.Run()
				instrs += vm.Cycles()
			}
		}
		return int(instrs), time.Since(t0)
	})
	p.m["ppu.assemble_us"] = p.loop(len(srcs), func(i int) {
		if _, err := ppu.Assemble(srcs[i]); err != nil {
			panic(fmt.Sprintf("probe: generated kernel does not re-assemble: %v", err))
		}
	}) / 1e3
}

func (p *prober) traceinProbes() {
	nsDecode := p.sample(func() (int, time.Duration) {
		t0 := time.Now()
		dec, err := tracein.Open(bytes.NewReader(p.trace))
		n := 0
		for err == nil {
			if _, err = dec.Next(); err == nil {
				n++
			}
		}
		return n, time.Since(t0)
	})
	p.m["tracein.decode_mops_per_s"] = ratio(1e3, nsDecode)
	p.m["tracein.decode_mb_per_s"] = ratio(float64(len(p.trace))/float64(p.ops)*1e3, nsDecode)
	nsEncode := p.sample(func() (int, time.Duration) {
		t0 := time.Now()
		w := tracein.NewWriter(io.Discard, tracein.Meta{})
		for _, e := range p.events {
			w.Event(e)
		}
		_ = w.Close() // io.Discard cannot fail
		return len(p.events), time.Since(t0)
	})
	p.m["tracein.encode_mops_per_s"] = ratio(1e3, nsEncode)
}

// compilerProbes run each pass over every Table 2 kernel that has the
// variant the pass takes; the figure is host microseconds per function.
func (p *prober) compilerProbes() {
	var insts []*workloads.Instance
	for _, b := range workloads.All {
		insts = append(insts, b.Build(system.New(system.DefaultConfig(), system.NoPF), 0.01))
	}
	pass := func(v workloads.Variant, run func(fn *ir.Fn)) float64 {
		return p.sample(func() (int, time.Duration) {
			n, d := 0, time.Duration(0)
			for _, inst := range insts {
				fn := inst.BuildFn(v) // the passes mutate IR: a fresh copy each time
				if fn == nil {
					continue
				}
				t0 := time.Now()
				run(fn)
				d += time.Since(t0)
				n++
			}
			return n, d
		}) / 1e3
	}
	p.m["compiler.convert_us"] = pass(workloads.SWPf, func(fn *ir.Fn) { _, _ = compiler.ConvertSoftwarePrefetches(fn, compiler.NewAlloc()) })
	p.m["compiler.pragma_us"] = pass(workloads.Pragma, func(fn *ir.Fn) { _, _ = compiler.GeneratePragmaEvents(fn, compiler.NewAlloc()) })
	p.m["compiler.autoswpf_us"] = pass(workloads.Plain, func(fn *ir.Fn) { compiler.InsertSoftwarePrefetches(fn, 16) })
}

func (p *prober) systemProbes() error {
	b, manual, err := resolve(probeBench, "manual")
	if err != nil {
		return err
	}
	info, _ := manual.Info()
	p.m["system.new_us"] = p.loop(20, func(int) { system.New(system.DefaultConfig(), info.Machine) }) / 1e3
	opt := harness.Options{Scale: probeScale}
	w, err := harness.Warm(b, manual, opt, p.ops/2)
	if err != nil {
		return fmt.Errorf("probe warm: %w", err)
	}
	cfg, err := harness.ConfigFor(opt, manual)
	if err != nil {
		return err
	}
	var forkErr error
	p.m["system.fork_ms"] = p.loop(1, func(int) {
		if _, err := w.Fork(cfg); err != nil {
			forkErr = err
		}
	}) / 1e6
	p.m["system.digest_ms"] = p.loop(100, func(int) { w.Machine().Digest() }) / 1e6
	return forkErr
}

func (p *prober) harnessProbes() error {
	b, noPF, _ := resolve(probeBench, "no-pf")
	suite := harness.NewSuite(harness.Options{Scale: probeScale, Parallel: 1})
	pr := harness.Pair{Bench: b, Scheme: noPF}
	if _, err := suite.Run(pr); err != nil {
		return err
	}
	p.m["harness.memo_hit_ns"] = p.loop(20000, func(int) { _, _ = suite.Run(pr) })
	p.m["harness.encode_us"] = p.loop(200, func(int) { _ = harness.EncodeResult(io.Discard, p.result) }) / 1e3
	spec := harness.JobSpec{Bench: "hj2", Scheme: "manual", Scale: probeScale, PPUs: 12}
	p.m["harness.resolve_key_us"] = p.loop(2000, func(int) {
		if job, err := spec.Resolve(); err == nil {
			job.Key()
		}
	}) / 1e3
	return nil
}

// serveProbes time the cache-hit request path and a /metrics scrape through
// the handler directly: no socket, no client.
func (p *prober) serveProbes() error {
	srv := serve.NewServer(serve.Config{Workers: 1})
	defer drain(srv)
	spec := harness.JobSpec{Bench: probeBench, Scheme: "no-pf", Scale: probeScale}
	job, err := spec.Resolve()
	if err != nil {
		return err
	}
	var enc bytes.Buffer
	if err := harness.EncodeResult(&enc, p.result); err != nil {
		return err
	}
	srv.CachePut(job.Key(), enc.Bytes())
	body := fmt.Sprintf(`{"bench":%q,"scheme":"no-pf","scale":%g}`, probeBench, probeScale)
	call := func(method, target, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		return rec
	}
	if rec := call("POST", "/jobs?wait=1", body); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cached": true`) {
		return fmt.Errorf("probe: cache-hit request answered %d %.80s", rec.Code, rec.Body.String())
	}
	p.m["serve.hit_handler_us"] = p.loop(500, func(int) { call("POST", "/jobs?wait=1", body) }) / 1e3
	p.m["serve.metrics_scrape_us"] = p.loop(500, func(int) { call("GET", "/metrics", "") }) / 1e3
	return nil
}

type countingSink struct{ n int64 }

func (c *countingSink) Event(trace.Event) { c.n++ }

// traceProbes: what attaching the machine-wide trace bus costs one run, and
// what one of this benchmark's own spans costs.
func (p *prober) traceProbes() error {
	b, manual, _ := resolve(probeBench, "manual")
	var runErr error
	timeRun := func(sink trace.Sink) float64 {
		return p.sample(func() (int, time.Duration) {
			t0 := time.Now()
			if _, err := harness.Run(b, manual, harness.Options{Scale: probeScale, TraceSink: sink}); err != nil {
				runErr = err
			}
			return 1, time.Since(t0)
		})
	}
	off := timeRun(nil)
	on := timeRun(&countingSink{})
	p.m["trace.bus_overhead_pct"] = 100 * ratio(on-off, off)
	log := newSpanLog("probe")
	p.m["trace.span_ns"] = p.loop(10000, func(int) { log.end(log.begin("probe", 0)) })
	return runErr
}

// buildProbe times workloads.Build for every distinct (benchmark, scale) of
// a plan and returns the mean per Build in ms and the total over the items in
// seconds.
func buildProbe(items []item) (meanMS, totalS float64) {
	type key struct {
		bench string
		scale float64
	}
	cost := map[key]float64{}
	for _, it := range items {
		k := key{it.Bench, it.Scale}
		if _, done := cost[k]; !done {
			b, err := workloads.ByName(it.Bench)
			if err != nil {
				continue
			}
			m := system.New(system.DefaultConfig(), system.NoPF)
			t0 := time.Now()
			b.Build(m, it.Scale)
			cost[k] = time.Since(t0).Seconds()
		}
		totalS += cost[k]
	}
	sum := 0.0
	for _, c := range cost {
		sum += c
	}
	return ratio(1e3*sum, float64(len(cost))), totalS
}
