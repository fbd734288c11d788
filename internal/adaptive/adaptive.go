// Package adaptive implements online adaptive prefetcher control: a
// controller that hosts several candidate prefetch units ("arms") on one
// machine and, at a fixed decision interval, picks which arm observes the
// L1 demand stream and issues prefetches. Retired micro-ops per interval are
// the reward, in the manner of Pythia's reward-driven online selection; the
// policy is plain explore-then-exploit, as in the POWER7 prefetch-tuning
// study: one sweep trials every arm, then the best-reward arm runs, and a
// rival that later looks better must win a trial of its own.
//
// The policy is the engine-free Policy.Step — one interval's sensors in, the
// arm to run next and the reason out — so it is table-tested without a
// machine. Unit wraps it as a baseline.Unit like any other hardware
// prefetcher: the system package builds it from the scheme registry, so no
// machine field or switch is adaptive-specific, and a machine fork works
// unchanged (the pending decision tick is a typed handler its engine owns,
// the policy is plain value state).
//
// Gating is the controller's Observe: the system package points the L1's
// demand snoop at it, like at any unit's, and it passes the access to the
// active arm alone — the hosted unit's Observe, or the programmable
// prefetcher's for the "pf" arm. Inactive table arms neither train nor
// issue — but their issue queues keep draining (in-flight prefetches
// complete, as they would in hardware) because every issuer stays subscribed
// to the L1's OnMSHRFree pump chain. The gate withholds only load events
// from the pf arm: kernels its own prefetch fills trigger keep chaining.
package adaptive

import (
	"fmt"

	"eventpf/internal/baseline"
	"eventpf/internal/mem"
	"eventpf/internal/prefetch"
	"eventpf/internal/sim"
	"eventpf/internal/stats"
	"eventpf/internal/trace"
)

// The arm menu, by index. "off" prefetches nothing, "pf" is the machine's
// programmable prefetcher, and the others are units the system package's
// Builder constructs by name ("stride-d2" is the stride unit at degree 2).
const (
	ArmOff = iota
	ArmStride
	ArmStrideD2
	ArmGHBDelta
	ArmPF
	NumArms
)

// armNames is the menu: the name of each arm, by index.
var armNames = [NumArms]string{"off", "stride", "stride-d2", "ghb-delta", "pf"}

// The policy's constants: what Figure 12's ablation (DESIGN §18.4) kept.
const (
	// IntervalTicks is the decision interval in engine ticks: 4000 core
	// cycles (a core cycle is sim.ClockFromMHz(3200) = 5 ticks).
	IntervalTicks sim.Ticks = 20000
	// TrialIntervals is how many intervals a trial of an arm lasts, in a
	// sweep or when it challenges the active arm.
	TrialIntervals = 3
	// PfIdleIntervals demotes a steady pf arm after this many consecutive
	// intervals of heavy demand traffic (IdleMinDemands or more) with zero
	// prefetcher fills. The programmable prefetcher's kernels are range
	// filtered: when the program leaves the covered data structures the arm
	// goes structurally blind, which the reward does not tell apart from
	// "working fine". Zero fills under load is unambiguous.
	PfIdleIntervals = 4
	// IdleMinDemands is the demand-access floor below which an interval
	// says nothing about the pf arm being idle: a quiet core produces no
	// fills from any prefetcher.
	IdleMinDemands = 64
)

// Sensors is one decision interval's reading of the host's counters.
type Sensors struct {
	Ops     int64 // micro-ops the core retired (the active arm's reward)
	Demands int64 // L1 demand accesses
	Fills   int64 // programmable-prefetcher fills
}

// Reason says why a step changed the active arm.
type Reason int8

// Step outcomes.
const (
	Stay       Reason = iota // the active arm keeps running
	Sweep                    // the next arm of a sweep begins its trial
	Exploit                  // the best-reward arm takes over
	IdleDemote               // the pf arm went blind: a sweep begins again at arm 0
)

// Policy is the controller's decision automaton, with no engine or machine
// behind it: Step folds one interval's sensors in and says which arm runs
// next. It is a plain value; copying it copies the whole policy.
//
// A run opens with a sweep: every arm in menu order runs one trial, and
// the best arm then takes over. At every steady interval the best arm by
// reward is recomputed; a different best starts a trial of that arm, which
// must win again on its fresh measurement before it stays.
type Policy struct {
	active int
	// reward holds one ops-per-interval EWMA per arm. An arm's reward moves
	// only while that arm is active; the opening sweep measures every arm
	// before the first decision reads them.
	reward [NumArms]stats.EWMA
	// sweeping marks a sweep, trial a verification trial of the active arm
	// outside one; meas counts the trial's intervals so far.
	sweeping, trial bool
	meas            int
	// idle counts consecutive steady intervals the active pf arm spent
	// blind: heavy demand traffic, zero fills.
	idle int
}

// NewPolicy returns a policy about to sweep the menu from arm 0.
func NewPolicy() Policy {
	p := Policy{sweeping: true}
	for i := range p.reward {
		p.reward[i] = stats.NewEWMA(2)
	}
	return p
}

// Active is the arm currently running.
func (p *Policy) Active() int { return p.active }

// Step takes one interval's sensors, credited to the active arm, and
// returns the arm to run next and why it changed (Stay when it did not).
func (p *Policy) Step(s Sensors) (int, Reason) {
	p.reward[p.active].Observe(s.Ops)
	if p.active == ArmPF && !p.sweeping && !p.trial && s.Demands >= IdleMinDemands && s.Fills == 0 {
		p.idle++
	} else {
		p.idle = 0
	}
	switch {
	case p.idle >= PfIdleIntervals:
		// The phase changed under a blind pf arm: measure every arm again.
		p.active, p.idle = 0, 0
		p.sweeping, p.trial, p.meas = true, false, 0
		return p.active, IdleDemote
	case (p.sweeping || p.trial) && p.meas+1 < TrialIntervals:
		p.meas++
		return p.active, Stay // keep measuring the arm under trial
	case p.sweeping && p.active+1 < NumArms:
		p.active, p.meas = p.active+1, 0
		return p.active, Sweep
	case p.sweeping:
		// The sweep's winner runs without a further trial: it was just
		// measured.
		p.sweeping, p.meas = false, 0
		if b := p.decide(); b != p.active {
			p.active = b
			return b, Exploit
		}
		return p.active, Stay
	}
	p.trial, p.meas = false, 0
	if b := p.decide(); b != p.active {
		p.active, p.trial = b, true
		return b, Exploit
	}
	return p.active, Stay
}

// decide picks the arm to run: the best-reward arm, except that the pf arm
// wins whenever it is within 25% of that best. The tenure bias encodes an
// asymmetry a per-trial reward cannot see: the programmable prefetcher's
// benefit compounds with tenure — its chained kernels run further ahead of
// the core the longer it stays active — so a trial understates it, while the
// table prefetchers show their steady state almost at once.
func (p *Policy) decide() int {
	b := 0
	for i := range p.reward {
		if p.reward[i].Value() > p.reward[b].Value() {
			b = i // ties go to the lowest menu index
		}
	}
	if p.reward[ArmPF].Value()*5 >= p.reward[b].Value()*4 {
		return ArmPF
	}
	return b
}

// Builder constructs one named candidate unit against the host machine's
// L1/TLB, sized from the machine configuration. It returns nil for an
// unknown name. The system scheme registration supplies it, so this package
// does not depend on the system package's Config.
type Builder func(name string) baseline.Unit

// ArmIntervals reports how many decision intervals one arm was active.
type ArmIntervals struct {
	Arm       string
	Intervals int64
}

// Stats summarises a run of the controller for the Result record.
type Stats struct {
	Intervals   int64 // decision ticks taken
	Switches    int64 // active-arm changes
	IdleDemotes int64 // pf-arm demotions for issuing nothing under load
	// FinalArm is the arm active when the run finished.
	FinalArm string
	// MissPerMille, AccuracyPerMille and ChainLatTicks are the final sensor
	// EWMA values (L1 demand miss rate and prefetch accuracy in per-mille,
	// mean generation-to-fill latency in ticks). The policy does not read
	// them; they say what the active arm was doing.
	MissPerMille     int64
	AccuracyPerMille int64
	ChainLatTicks    int64
	// ArmIntervals breaks Intervals down per arm, menu order.
	ArmIntervals []ArmIntervals
}

// Add returns the statistics of a run made of s's chunk followed by next's:
// counters and the per-arm interval breakdown sum, while the end-of-run
// values — FinalArm and the sensor EWMAs — are next's.
func (s Stats) Add(next Stats) Stats {
	next.Intervals += s.Intervals
	next.Switches += s.Switches
	next.IdleDemotes += s.IdleDemotes
	arms := make([]ArmIntervals, len(next.ArmIntervals))
	for i, a := range next.ArmIntervals {
		if i < len(s.ArmIntervals) {
			a.Intervals += s.ArmIntervals[i].Intervals
		}
		arms[i] = a
	}
	next.ArmIntervals = arms
	return next
}

// Unit is the adaptive controller: a baseline.Unit hosting the candidate
// arms and running the Policy on the host's counters.
type Unit struct {
	eng *sim.Engine
	l1  *mem.Cache
	pf  *prefetch.Prefetcher
	bus *trace.Bus

	// units holds each arm's hosted unit, nil for "off" and "pf".
	units [NumArms]baseline.Unit

	// Host taps, bound by BindHost: the retired-op counter (reward) and
	// the run-finished predicate (stops the tick re-arming).
	ops  func() int64
	done func() bool

	tickH  tickHandler
	record func(Sensors, int, Reason)

	state
	mIntervals, mSwitches, mIdle *trace.Counter
}

// state is the controller's value state — the policy, the counter readings
// its sensors are deltas of, the observability EWMAs and the run counters —
// copied to a fork by one assignment.
type state struct {
	Policy
	lastOps               int64
	lastDemands, lastHits int64
	lastUsed, lastDead    int64
	lastFillSum           sim.Ticks
	lastFillCount         int64
	miss, acc, lat        stats.EWMA
	// Run counters: decision ticks, switches and idle demotions, and the
	// decision ticks spent on each arm.
	intervals, switches, idleDemotes int64
	armIvals                         [NumArms]int64
}

// tickHandler fires the periodic decision tick. A typed pointer-shaped
// handler (like the machine's context-switch flush) the engine owns, so the
// pending tick survives a machine fork.
type tickHandler struct{ u *Unit }

// Handle implements sim.Handler.
func (h tickHandler) Handle(at sim.Ticks, _, _ uint64) { h.u.tick(at) }

// New builds the controller and, through build, the units on its menu; the
// caller feeds it the L1 demand stream through Observe. pf is the machine's
// programmable prefetcher, which the "pf" arm runs. A nil pf or a menu name
// build does not know panics: both are wiring errors of the system package.
func New(eng *sim.Engine, l1 *mem.Cache, pf *prefetch.Prefetcher, build Builder) *Unit {
	if pf == nil {
		panic("adaptive: the \"pf\" arm requires the programmable prefetcher")
	}
	u := &Unit{eng: eng, l1: l1, pf: pf}
	u.Policy = NewPolicy()
	u.miss, u.acc, u.lat = stats.NewEWMA(8), stats.NewEWMA(4), stats.NewEWMA(4)
	u.tickH.u = u
	eng.Own(u.tickH)
	for i, name := range armNames {
		if i == ArmOff || i == ArmPF {
			continue
		}
		if u.units[i] = build(name); u.units[i] == nil {
			panic(fmt.Sprintf("adaptive: no unit for arm %q", name))
		}
	}
	return u
}

// BindHost connects the controller to its host machine — ops reads the
// core's retired micro-op counter (the reward signal), done reports whether
// the run has finished (so the tick stops re-arming and the engine can
// drain) — and arms the first decision tick. The system package calls it
// once the core exists.
func (u *Unit) BindHost(ops func() int64, done func() bool) {
	u.ops = ops
	u.done = done
	u.eng.ScheduleAfter(IntervalTicks, u.tickH, 0, 0)
}

// Record makes every later decision tick call f with the interval's sensors
// and the step's outcome, e.g. to capture a sensor trace for replaying
// through a Policy. Like the trace bus it is an observer: a fork does not
// inherit it.
func (u *Unit) Record(f func(s Sensors, arm int, why Reason)) { u.record = f }

// Observe implements baseline.Unit: it forwards the access to the active arm
// only.
func (u *Unit) Observe(addr uint64, pc int, hit bool) {
	if unit := u.units[u.active]; unit != nil {
		unit.Observe(addr, pc, hit)
	} else if u.active == ArmPF {
		u.pf.Observe(addr, pc, hit)
	}
}

// tick is one controller decision: read the counters, step the policy,
// re-arm.
func (u *Unit) tick(at sim.Ticks) {
	if u.done() {
		return // run over: let the engine drain
	}
	u.intervals++
	u.mIntervals.Inc()
	u.armIvals[u.active]++

	s := u.readSensors()
	from := u.active
	arm, why := u.Step(s)
	if u.record != nil {
		u.record(s, arm, why)
	}
	if why == IdleDemote {
		u.idleDemotes++
		u.mIdle.Inc()
		u.bus.Emit(trace.Event{At: at, Kind: trace.AdaptiveIdleDemote, A: int32(from), B: int32(s.Demands)})
	}
	if why != Stay {
		u.switches++
		u.mSwitches.Inc()
		reason := trace.SwitchExploit
		if why != Exploit {
			reason = trace.SwitchSweep
		}
		u.bus.Emit(trace.Event{At: at, Kind: trace.AdaptiveSwitch, A: int32(from), B: int32(arm), C: reason})
	}
	u.eng.ScheduleAfter(IntervalTicks, u.tickH, 0, 0)
}

// readSensors returns the interval's deltas of the core, L1 and PF counters
// and folds the observability sensors — demand miss rate, prefetch
// accuracy, chain latency — into their EWMAs. The L1 counts a demand lookup
// exactly where it calls the demand snoop, so the miss rate is that of the
// accesses Observe saw.
func (u *Unit) readSensors() Sensors {
	cur := u.ops()
	s := Sensors{Ops: cur - u.lastOps}
	u.lastOps = cur

	l1 := &u.l1.Stats
	total, hits := l1.DemandLoads+l1.DemandStores, l1.DemandHits+l1.StoreHits
	s.Demands = total - u.lastDemands
	if s.Demands > 0 {
		u.miss.Observe((s.Demands - (hits - u.lastHits)) * 1000 / s.Demands)
	}
	u.lastDemands, u.lastHits = total, hits

	used := l1.PrefetchUsed - u.lastUsed
	dead := l1.PrefetchDead - u.lastDead
	u.lastUsed, u.lastDead = l1.PrefetchUsed, l1.PrefetchDead
	if used+dead > 0 {
		u.acc.Observe(used * 1000 / (used + dead))
	}

	pf := &u.pf.Stats
	s.Fills = pf.FillCount - u.lastFillCount
	lat := pf.FillLatencySum - u.lastFillSum
	u.lastFillCount, u.lastFillSum = pf.FillCount, pf.FillLatencySum
	if s.Fills > 0 {
		u.lat.Observe(int64(lat) / s.Fills)
	}
	return s
}

// Stats implements baseline.Unit: the hosted arms' issue counters, summed.
func (u *Unit) Stats() baseline.IssuerStats {
	var t baseline.IssuerStats
	for _, unit := range u.units {
		if unit != nil {
			t.Add(unit.Stats())
		}
	}
	return t
}

// Release implements baseline.Unit: it releases every hosted arm. The
// programmable prefetcher is the machine's, released with it.
func (u *Unit) Release() {
	for _, unit := range u.units {
		if unit != nil {
			unit.Release()
		}
	}
}

// ControllerStats snapshots the controller's run summary for the Result.
func (u *Unit) ControllerStats() Stats {
	s := Stats{
		Intervals: u.intervals, Switches: u.switches, IdleDemotes: u.idleDemotes,
		FinalArm:         armNames[u.active],
		MissPerMille:     u.miss.Value(),
		AccuracyPerMille: u.acc.Value(),
		ChainLatTicks:    u.lat.Value(),
		ArmIntervals:     make([]ArmIntervals, NumArms),
	}
	for i, name := range armNames {
		s.ArmIntervals[i] = ArmIntervals{Arm: name, Intervals: u.armIvals[i]}
	}
	return s
}

// AttachTrace points decision-event emission at bus (nil-safe, like every
// component's bus).
func (u *Unit) AttachTrace(bus *trace.Bus) { u.bus = bus }

// AttachMetrics registers the adaptive_* counters with reg.
func (u *Unit) AttachMetrics(reg *trace.Registry) {
	u.mIntervals = reg.Counter("adaptive_intervals")
	u.mSwitches = reg.Counter("adaptive_switches")
	u.mIdle = reg.Counter("adaptive_idle_demotions")
}
