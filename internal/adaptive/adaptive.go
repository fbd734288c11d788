// Package adaptive implements online adaptive prefetcher control: a
// controller that hosts several candidate prefetch units ("arms") on one
// machine and, at a fixed decision interval, picks which arm observes the
// L1 demand stream and issues prefetches. The mechanism follows Pythia's
// reward-driven online knob selection and Puppeteer's per-phase prefetcher
// manager: retired micro-ops per interval are the reward, an epsilon-greedy
// bandit with a deterministic seeded RNG exploits the best-reward arm, and
// a two-speed EWMA pair over the L1 miss rate detects phase changes, each
// of which triggers a fresh sweep trialling every arm for one interval.
//
// Structurally the controller is a baseline.Unit like any other hardware
// prefetcher: the system package builds it from the scheme registry, so no
// machine field or switch is adaptive-specific, and a machine fork works
// unchanged (the controller's pending decision tick is a typed handler its
// engine owns, its policy state is plain value state).
//
// Gating is the controller's Observe: the system package points the L1's
// demand snoop at it, like at any unit's, and it passes the access to the
// active arm alone — the hosted unit's Observe, or the programmable
// prefetcher's for the "pf" arm. Inactive arms neither train nor issue — but
// their issue queues keep draining (in-flight prefetches complete, as they
// would in hardware) because every issuer stays subscribed to the L1's
// OnMSHRFree pump chain.
package adaptive

import (
	"fmt"
	"strings"

	"eventpf/internal/baseline"
	"eventpf/internal/mem"
	"eventpf/internal/prefetch"
	"eventpf/internal/sim"
	"eventpf/internal/stats"
	"eventpf/internal/trace"
)

// Config sizes the adaptive controller. It is comparable (plain scalars and
// a string), so fork compatibility can reject controller changes with a
// simple inequality, and it rides inside system.Config without making that
// struct uncomparable.
type Config struct {
	// Arms is the comma-separated candidate menu. Recognised names are
	// "off" (no prefetching), "pf" (the machine's programmable prefetcher)
	// and whatever the scheme registration's builder accepts — the default
	// system menu offers "stride", "stride-d2" (degree-2 stride),
	// "ghb-delta", "rpt" and "tskid".
	Arms string
	// IntervalTicks is the decision interval in engine ticks (a core cycle
	// is sim.ClockFromMHz(3200) = 5 ticks).
	IntervalTicks sim.Ticks
	// Epsilon explores a random arm for one interval in every Epsilon
	// decisions (0 disables exploration).
	Epsilon int
	// Seed seeds the exploration RNG; runs with equal seeds are
	// byte-identical.
	Seed uint64
	// TrialIntervals is how many intervals a sweep measures each arm for
	// (after the settle interval).
	TrialIntervals int
	// PfTrialIntervals is the trial length for the "pf" arm. The
	// programmable prefetcher warms up far more slowly than the table
	// prefetchers: its chained kernels must run a full lookahead distance
	// ahead of the core before any benefit shows, which on list-walk
	// workloads is a delayed step ~10 intervals out, invisible to a short
	// trial.
	PfTrialIntervals int
	// PhasePerMille is the fast-over-slow miss-rate EWMA gap (in
	// per-mille of demand accesses) that declares a phase change. The
	// signal is directional: only a rising miss rate fires.
	PhasePerMille int64
	// Cooldown is how many intervals phase detection holds off after a
	// phase change — it must outlast the sweep the change triggers
	// (1 settle + the trial length per arm), so the wildly different miss
	// rates of the arms under trial are not themselves read as phase
	// changes.
	Cooldown int
	// PfIdleIntervals demotes an active "pf" arm after this many
	// consecutive steady-state intervals with heavy demand traffic but zero
	// prefetcher fills (0 disables). The programmable prefetcher's event
	// kernels are range-filtered: when the program leaves the covered data
	// structures the unit goes structurally blind, which no reward or
	// miss-rate signal distinguishes from "working fine" — the miss rate
	// may even fall (the uncovered phase can be cache-friendlier). Zero
	// fills under load is unambiguous, so it triggers a sweep of the other
	// arms; the pf arm sits that sweep out and its provably-stale reward is
	// forgotten.
	PfIdleIntervals int
}

// DefaultConfig returns the default controller: a five-arm menu, a 4000
// core-cycle interval, 1-in-64 exploration, and a 200-per-mille phase
// threshold.
func DefaultConfig() Config {
	return Config{
		Arms:             "off,stride,stride-d2,ghb-delta,pf",
		IntervalTicks:    20000,
		Epsilon:          128,
		Seed:             1,
		TrialIntervals:   3,
		PfTrialIntervals: 24,
		PhasePerMille:    200,
		Cooldown:         40,
		PfIdleIntervals:  4,
	}
}

// ArmNames splits the configured menu.
func (c Config) ArmNames() []string {
	parts := strings.Split(c.Arms, ",")
	names := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			names = append(names, p)
		}
	}
	return names
}

// Validate rejects configurations the controller cannot run.
func (c Config) Validate() error {
	if len(c.ArmNames()) < 2 {
		return fmt.Errorf("adaptive: menu %q needs at least two arms", c.Arms)
	}
	if c.IntervalTicks <= 0 {
		return fmt.Errorf("adaptive: interval %d must be positive", c.IntervalTicks)
	}
	if c.Epsilon < 0 {
		return fmt.Errorf("adaptive: epsilon %d must not be negative", c.Epsilon)
	}
	if c.TrialIntervals < 1 {
		return fmt.Errorf("adaptive: trial length %d must be at least one interval", c.TrialIntervals)
	}
	if c.PfTrialIntervals < 1 {
		return fmt.Errorf("adaptive: pf trial length %d must be at least one interval", c.PfTrialIntervals)
	}
	if c.PhasePerMille <= 0 {
		return fmt.Errorf("adaptive: phase threshold %d must be positive", c.PhasePerMille)
	}
	if c.Cooldown < 0 {
		return fmt.Errorf("adaptive: cooldown %d must not be negative", c.Cooldown)
	}
	if c.PfIdleIntervals < 0 {
		return fmt.Errorf("adaptive: pf idle threshold %d must not be negative", c.PfIdleIntervals)
	}
	return nil
}

// Builder constructs one named candidate unit against the host machine's
// L1/TLB, sized from the machine configuration. It returns nil for an
// unknown name. The system scheme registration supplies it, so this package
// does not depend on the system package's Config.
type Builder func(name string) baseline.Unit

// arm is one hosted candidate: its menu name and its unit (nil for "off" and
// for "pf", whose unit is the machine's programmable prefetcher).
type arm struct {
	name string
	unit baseline.Unit
}

// ArmIntervals reports how many decision intervals one arm was active.
type ArmIntervals struct {
	Arm       string
	Intervals int64
}

// Stats summarises a run of the controller for the Result record.
type Stats struct {
	Intervals    int64 // decision ticks taken
	Switches     int64 // active-arm changes
	Sweeps       int64 // phase-triggered re-sweeps (the initial sweep is not counted)
	Explores     int64 // epsilon-greedy exploration intervals
	PhaseChanges int64 // phase-detector firings
	IdleDemotes  int64 // pf-arm demotions for issuing nothing under load
	// FinalArm is the arm active when the run finished.
	FinalArm string
	// MissPerMille, AccuracyPerMille and ChainLatTicks are the final sensor
	// EWMA values (miss rate and prefetch accuracy in per-mille, mean
	// generation-to-fill latency in ticks).
	MissPerMille     int64
	AccuracyPerMille int64
	ChainLatTicks    int64
	// ArmIntervals breaks Intervals down per arm, menu order.
	ArmIntervals []ArmIntervals
}

// Add returns the statistics of a run made of s's chunk followed by next's
// (same menu): counters and the per-arm interval breakdown sum, while the
// end-of-run values — FinalArm and the sensor EWMAs — are next's.
func (s Stats) Add(next Stats) Stats {
	next.Intervals += s.Intervals
	next.Switches += s.Switches
	next.Sweeps += s.Sweeps
	next.Explores += s.Explores
	next.PhaseChanges += s.PhaseChanges
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
// arms and the decision policy.
type Unit struct {
	eng *sim.Engine
	cfg Config
	l1  *mem.Cache
	pf  *prefetch.Prefetcher
	bus *trace.Bus

	arms []arm
	// pfArm is the menu index of the "pf" arm, -1 if absent.
	pfArm int

	// Host taps, bound by BindHost: the retired-op counter (reward) and
	// the run-finished predicate (stops the tick re-arming).
	ops  func() int64
	done func() bool

	tickH tickHandler

	policy
	// reward holds one ops-per-interval EWMA per arm; Reset on each sweep
	// so stale phases cannot outvote fresh trials.
	reward   []stats.EWMA
	armIvals []int64
	stats    Stats

	mIntervals, mSwitches, mSweeps, mExplores, mPhases, mIdle *trace.Counter
}

// policy is the controller's scalar state — the active arm, the sensors and
// the decision automaton — copied to a fork by one assignment (the per-arm
// reward and interval slices, the run counters and the hosted units are
// copied beside it).
type policy struct {
	active int

	// The sensors are deltas of the core, L1 and PF counters since the
	// previous tick; these are the values read then.
	lastOps               int64
	lastDemands, lastHits int64
	lastUsed, lastDead    int64
	lastFillSum           sim.Ticks
	lastFillCount         int64

	// Phase detector: fast and slow EWMAs over the per-interval miss rate.
	fast, slow stats.EWMA
	// Sensor EWMAs exported for observability (accuracy, chain latency).
	acc, lat stats.EWMA

	sweeping bool
	trial    int
	// lastSteady is the active arm's reward EWMA at the previous
	// steady-state decision, 0 right after a switch. While the reward is
	// still rising the arm is protected from challenges: a ramping
	// prefetcher's measured reward understates its eventual steady state,
	// and the compounding arms (pf) ramp for a long time.
	lastSteady int64
	// trialMid snapshots the arm-under-trial's reward EWMA at the trial
	// midpoint; trialExt counts extensions granted because the end value
	// was still above it. Only the pf arm earns extensions: it is the one
	// arm whose warm-up outlasts any fixed trial, while for the table
	// prefetchers a mid-vs-end comparison over a short trial is noise.
	trialMid int64
	trialExt int
	// inTrial marks a measured trial of the active arm outside a sweep.
	// Every non-sweep arm change starts one — epsilon-greedy explores and
	// exploit switches alike — so a stale rival reward is always verified
	// by a fresh measurement before it can govern, and can lose the
	// controller at most one trial per program phase.
	inTrial bool
	// meas counts the measured intervals of the current trial (settle
	// intervals excluded).
	meas int
	// settleLeft counts intervals to skip after an arm switch: the
	// pipeline still carries the previous arm's in-flight prefetches, so
	// reward attribution and policy decisions wait them out. Leaving the
	// pf arm needs a longer settle — its chained kernels keep completing
	// (and helping the successor) until the launched chains die out.
	settleLeft int
	// idleIvals counts consecutive steady-state intervals the active pf arm
	// spent blind: heavy demand traffic, zero fills (see PfIdleIntervals).
	idleIvals int
	// skip is the menu index a sweep leaves out (-1 none): an idle-demoted
	// pf arm has just proven it cannot see the current phase, so trialling
	// it again would only waste the longest trial in the sweep.
	skip int
	cool int
	rng  uint64
}

// tickHandler fires the periodic decision tick. A typed pointer-shaped
// handler (like the machine's context-switch flush) the engine owns, so the
// pending tick survives a machine fork.
type tickHandler struct{ u *Unit }

// Handle implements sim.Handler.
func (h tickHandler) Handle(at sim.Ticks, _, _ uint64) { h.u.tick(at) }

// New builds the controller and, through build, the units on its menu; the
// caller feeds it the L1 demand stream through Observe. pf is the machine's
// programmable prefetcher, which the "pf" arm needs. Invalid configurations
// and unknown arm names panic: the menu is machine configuration, validated
// by CLIs before construction.
func New(eng *sim.Engine, cfg Config, l1 *mem.Cache, pf *prefetch.Prefetcher, build Builder) *Unit {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	u := &Unit{eng: eng, cfg: cfg, l1: l1, pf: pf, pfArm: -1}
	u.policy = policy{
		fast: stats.NewEWMA(2),
		slow: stats.NewEWMA(8),
		acc:  stats.NewEWMA(4),
		lat:  stats.NewEWMA(4),
		rng:  cfg.Seed,
		// The run opens with a sweep (every arm gets one trial), under
		// cooldown so the sweep's own miss-rate churn cannot fire the
		// phase detector.
		sweeping: true,
		cool:     cfg.Cooldown,
		skip:     -1,
	}
	u.tickH.u = u
	eng.Own(u.tickH)

	for _, name := range cfg.ArmNames() {
		switch name {
		case "off":
			u.arms = append(u.arms, arm{name: name})
		case "pf":
			if pf == nil {
				panic("adaptive: \"pf\" arm requires the programmable prefetcher")
			}
			if u.pfArm < 0 {
				u.pfArm = len(u.arms)
			}
			u.arms = append(u.arms, arm{name: name})
		default:
			unit := build(name)
			if unit == nil {
				panic(fmt.Sprintf("adaptive: unknown arm %q in menu %q", name, cfg.Arms))
			}
			u.arms = append(u.arms, arm{name: name, unit: unit})
		}
	}
	u.reward = make([]stats.EWMA, len(u.arms))
	for i := range u.reward {
		u.reward[i] = stats.NewEWMA(2)
	}
	u.armIvals = make([]int64, len(u.arms))
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
	u.eng.ScheduleAfter(u.cfg.IntervalTicks, u.tickH, 0, 0)
}

// Observe implements baseline.Unit: it forwards the access to the active arm
// only.
func (u *Unit) Observe(addr uint64, pc int, hit bool) {
	if a := &u.arms[u.active]; a.unit != nil {
		a.unit.Observe(addr, pc, hit)
	} else if a.name == "pf" {
		u.pf.Observe(addr, pc, hit)
	}
}

// tick is one controller decision.
func (u *Unit) tick(at sim.Ticks) {
	if u.done() {
		return // run over: let the engine drain
	}
	u.stats.Intervals++
	u.mIntervals.Inc()
	u.armIvals[u.active]++

	cur := u.ops()
	gained := cur - u.lastOps
	u.lastOps = cur

	demands, fills := u.observeSensors()
	if u.cool > 0 {
		u.cool--
	}
	if u.settleLeft > 0 {
		// Mixed-pipeline interval after a switch: measure nothing, decide
		// nothing; the next interval is attributed cleanly.
		u.settleLeft--
		u.eng.ScheduleAfter(u.cfg.IntervalTicks, u.tickH, 0, 0)
		return
	}
	u.observeReward(u.active, gained)

	if u.cfg.PfIdleIntervals > 0 && u.active == u.pfArm && !u.sweeping && !u.inTrial &&
		demands >= idleMinDemands && fills == 0 {
		u.idleIvals++
	} else {
		u.idleIvals = 0
	}

	// Directional phase signal: the detector fires only when the miss
	// rate is rising — the program entered territory the active arm
	// handles worse, so everything should be re-trialled. A falling miss
	// rate is the active arm doing its job (prefetcher ramp-up looks
	// exactly like that) and is no reason to abandon it; switches toward
	// arms that merely look better elsewhere go through challenger().
	delta := u.fast.Value() - u.slow.Value()
	switch {
	// The phase EWMAs reset on every switch (a different arm means a
	// different miss-rate baseline, not a different program phase), so the
	// detector additionally waits for the slow EWMA to re-warm.
	case u.cool == 0 && u.slow.Samples() >= phaseWarm && delta >= u.cfg.PhasePerMille:
		u.stats.PhaseChanges++
		u.mPhases.Inc()
		u.bus.Emit(trace.Event{At: at, Kind: trace.AdaptivePhase,
			A: int32(u.fast.Value()), B: int32(u.slow.Value()), C: -1})
		u.cool = u.cfg.Cooldown
		u.startSweep(at, -1)
	case u.cool == 0 && u.idleIvals >= u.cfg.PfIdleIntervals:
		// The pf arm is structurally blind to this phase: demand traffic is
		// heavy and it has issued nothing for PfIdleIntervals straight.
		// Re-trial everything else; its stale reward is meaningless here.
		u.stats.IdleDemotes++
		u.mIdle.Inc()
		u.bus.Emit(trace.Event{At: at, Kind: trace.AdaptivePhase,
			A: int32(u.fast.Value()), B: int32(u.slow.Value()), C: 1})
		u.cool = u.cfg.Cooldown
		u.idleIvals = 0
		u.startSweep(at, u.pfArm)
	case u.sweeping:
		u.meas++
		if u.meas < u.trialLen(u.active) {
			break // keep measuring this arm
		}
		u.meas = 0
		u.trial++
		if u.trial == u.skip {
			u.trial++
		}
		if u.trial < len(u.arms) {
			u.activate(at, u.trial, trace.SwitchSweep)
		} else {
			u.sweeping = false
			u.activate(at, u.decide(), trace.SwitchExploit)
		}
	case u.inTrial:
		u.meas++
		if u.meas == (u.trialLen(u.active)+1)/2 {
			u.trialMid = u.reward[u.active].Value()
		}
		if u.meas < u.trialLen(u.active) {
			break // keep measuring the arm under trial
		}
		if u.active == u.pfArm && u.trialExt < maxTrialExt && u.reward[u.active].Value() > u.trialMid {
			// Still climbing at the end of the trial: a verdict now would
			// understate the arm. Grant another trial length.
			u.trialExt++
			u.meas = 0
			break
		}
		u.inTrial, u.meas = false, 0
		if b := u.decide(); b != u.active {
			u.startTrial(at, b, trace.SwitchExploit)
		}
	case u.cfg.Epsilon > 0 && u.rnd()%uint64(u.cfg.Epsilon) == 0:
		u.stats.Explores++
		u.mExplores.Inc()
		u.startTrial(at, int(u.rnd()%uint64(len(u.arms))), trace.SwitchExplore)
	default:
		v := u.reward[u.active].Value()
		rising := v > u.lastSteady
		u.lastSteady = v
		if rising {
			break // still ramping: hold the arm, re-decide once it plateaus
		}
		if b := u.challenger(); b != u.active {
			u.startTrial(at, b, trace.SwitchExploit)
		}
	}
	u.eng.ScheduleAfter(u.cfg.IntervalTicks, u.tickH, 0, 0)
}

// idleMinDemands is the demand-access floor below which an interval says
// nothing about the pf arm being idle: a quiet core produces no fills from
// any prefetcher.
const idleMinDemands = 64

// observeSensors folds the interval's L1/PF counter deltas into the EWMAs:
// the demand miss rate (phase signal), prefetch accuracy and chain latency.
// The L1 counts a demand lookup exactly where it calls the demand snoop, so
// the miss rate is that of the accesses Observe saw. It returns the
// interval's demand and prefetcher-fill counts for the idle detector.
func (u *Unit) observeSensors() (demands, fills int64) {
	l1 := &u.l1.Stats
	total, hits := l1.DemandLoads+l1.DemandStores, l1.DemandHits+l1.StoreHits
	demands = total - u.lastDemands
	var mr int64
	if demands > 0 {
		mr = (demands - (hits - u.lastHits)) * 1000 / demands
	}
	u.lastDemands, u.lastHits = total, hits
	u.fast.Observe(mr)
	u.slow.Observe(mr)

	used := l1.PrefetchUsed - u.lastUsed
	dead := l1.PrefetchDead - u.lastDead
	u.lastUsed, u.lastDead = l1.PrefetchUsed, l1.PrefetchDead
	if used+dead > 0 {
		u.acc.Observe(used * 1000 / (used + dead))
	}
	if u.pf != nil {
		fills = u.pf.Stats.FillCount - u.lastFillCount
		lat := u.pf.Stats.FillLatencySum - u.lastFillSum
		u.lastFillCount, u.lastFillSum = u.pf.Stats.FillCount, u.pf.Stats.FillLatencySum
		if fills > 0 {
			u.lat.Observe(int64(lat) / fills)
		}
	}
	return demands, fills
}

// phaseWarm is how many post-switch miss-rate samples the slow EWMA needs
// before the phase detector trusts the fast/slow gap again.
const phaseWarm = 8

// observeReward folds one interval's retired-op count into arm i's reward
// EWMA, winsorised at twice the current average: single-interval spikes
// (invocation boundaries retire queued work in a burst) must not freeze an
// inflated reward onto an arm, while a genuine sustained improvement still
// gets through — consecutive high samples raise the cap geometrically.
func (u *Unit) observeReward(i int, gained int64) {
	e := &u.reward[i]
	if e.Warm() {
		if m := e.Value() * 2; m > 0 && gained > m {
			gained = m
		}
	}
	e.Observe(gained)
}

// maxTrialExt bounds how many times a trial extends while the arm's reward
// is still rising, so a noisy plateau cannot stretch a trial unboundedly.
const maxTrialExt = 4

// startTrial switches to arm i and measures it for its trial length before
// the next decision, extending while the reward still climbs.
func (u *Unit) startTrial(at sim.Ticks, i int, reason int32) {
	u.inTrial = true
	u.meas = 0
	u.trialMid = 0
	u.trialExt = 0
	u.activate(at, i, reason)
}

// decide picks the arm a decision point should run: the best-reward arm,
// except that the "pf" arm wins whenever it is within 25% of that best.
// The bias encodes a real asymmetry a per-trial reward cannot see: the
// programmable prefetcher's benefit compounds with tenure — its chained
// kernels run further and further ahead of the core the longer it stays
// active — so a trial-length measurement systematically understates it,
// while the table prefetchers show their steady state almost immediately.
// An arm that beats pf by more than the margin still wins.
func (u *Unit) decide() int {
	b := u.best()
	if u.pfArm >= 0 && b != u.pfArm && u.reward[u.pfArm].Warm() &&
		u.reward[u.pfArm].Value()*5 >= u.reward[b].Value()*4 {
		return u.pfArm
	}
	return b
}

// challenger returns the arm that should displace the steady-state active
// arm. A rival's (possibly stale) reward must beat the active arm's fresh
// one by more than 12.5% — steady state should not flap on noise — except
// for the pf arm, whose challenge rides the decide() tenure bias; either
// way the switch starts a verification trial, so a spurious challenge
// costs one trial and refreshes the rival's reward.
func (u *Unit) challenger() int {
	c := u.decide()
	if c == u.active {
		return u.active
	}
	if c == u.pfArm || u.reward[c].Value()*8 > u.reward[u.active].Value()*9 {
		return c
	}
	return u.active
}

// trialLen is the measured length of a trial of arm i.
func (u *Unit) trialLen(i int) int {
	if u.arms[i].name == "pf" {
		return u.cfg.PfTrialIntervals
	}
	return u.cfg.TrialIntervals
}

// startSweep begins trialling every arm in turn, forgetting the previous
// phase's rewards. A non-negative skip leaves that arm out of the sweep
// entirely: with its reward reset and never re-warmed, best() and decide()
// cannot return to it until a later sweep or exploration re-measures it.
func (u *Unit) startSweep(at sim.Ticks, skip int) {
	u.stats.Sweeps++
	u.mSweeps.Inc()
	u.sweeping = true
	u.inTrial = false
	u.skip = skip
	u.trial = 0
	u.meas = 0
	for i := range u.reward {
		u.reward[i].Reset()
	}
	if u.trial == u.skip {
		u.trial++
	}
	u.activate(at, u.trial, trace.SwitchSweep)
}

// best returns the warmed arm with the highest reward EWMA, ties broken to
// the lowest menu index (deterministic).
func (u *Unit) best() int {
	bi, bv := 0, int64(-1)
	for i := range u.reward {
		if !u.reward[i].Warm() {
			continue
		}
		if v := u.reward[i].Value(); v > bv {
			bv, bi = v, i
		}
	}
	return bi
}

// activate switches the active arm, emitting the decision as a trace event
// and counting it.
func (u *Unit) activate(at sim.Ticks, i int, reason int32) {
	if i == u.active {
		return
	}
	u.stats.Switches++
	u.mSwitches.Inc()
	u.bus.Emit(trace.Event{At: at, Kind: trace.AdaptiveSwitch,
		A: int32(u.active), B: int32(i), C: reason})
	u.settleLeft = 1
	if u.arms[u.active].name == "pf" && u.arms[i].name != "pf" {
		u.settleLeft = 3
	}
	u.active = i
	u.lastSteady = 0
	// The miss-rate baseline belongs to the outgoing arm; re-warm the
	// phase detector against the incoming one.
	u.fast.Reset()
	u.slow.Reset()
}

// rnd steps the seeded splitmix64 exploration RNG.
func (u *Unit) rnd() uint64 {
	u.rng += 0x9E3779B97F4A7C15
	z := u.rng
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Stats implements baseline.Unit: the hosted arms' issue counters, summed.
func (u *Unit) Stats() baseline.IssuerStats {
	var t baseline.IssuerStats
	for _, a := range u.arms {
		if a.unit != nil {
			t.Add(a.unit.Stats())
		}
	}
	return t
}

// ControllerStats snapshots the controller's run summary for the Result.
func (u *Unit) ControllerStats() Stats {
	s := u.stats
	s.FinalArm = u.arms[u.active].name
	s.MissPerMille = u.slow.Value()
	s.AccuracyPerMille = u.acc.Value()
	s.ChainLatTicks = u.lat.Value()
	s.ArmIntervals = make([]ArmIntervals, len(u.arms))
	for i, a := range u.arms {
		s.ArmIntervals[i] = ArmIntervals{Arm: a.name, Intervals: u.armIvals[i]}
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
	u.mSweeps = reg.Counter("adaptive_sweeps")
	u.mExplores = reg.Counter("adaptive_explores")
	u.mPhases = reg.Counter("adaptive_phase_changes")
	u.mIdle = reg.Counter("adaptive_idle_demotions")
}
