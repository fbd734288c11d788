package baseline

import (
	"eventpf/internal/mem"
	"eventpf/internal/sim"
)

// TSKIDConfig sizes the timing (T-SKID-style) prefetcher.
type TSKIDConfig struct {
	Trackers  int       // per-PC stride trackers (target-address prediction)
	Targets   int       // trigger→target association table entries
	RecentPCs int       // recently-accessed-PC ring scanned for trigger candidates
	LeadTicks sim.Ticks // margin subtracted from the learned delay so the line lands early
	MaxDelay  sim.Ticks // trigger→target distances beyond this are not learned
	Queue     int
}

// DefaultTSKIDConfig: 256-entry tables, an 8-deep trigger window, and a
// 2000-tick (125 ns) lead margin — roughly an L2 miss ahead of the target.
func DefaultTSKIDConfig() TSKIDConfig {
	return TSKIDConfig{Trackers: 256, Targets: 256, RecentPCs: 8,
		LeadTicks: 2000, MaxDelay: 1 << 20, Queue: 64}
}

// tskidTracker is one per-PC stride tracker: last line address and the last
// observed stride, used to extrapolate the target PC's next address.
type tskidTracker struct {
	pc       int
	lastAddr uint64
	stride   int64
}

// tskidTarget is one learned trigger→target association: accesses by
// trigger predict that target will miss `delay` ticks later.
type tskidTarget struct {
	trigger int
	target  int
	delay   sim.Ticks
	valid   bool
}

// tskidRecent is one slot of the recently-accessed-PC ring.
type tskidRecent struct {
	pc   int
	tick sim.Ticks
}

// TSKID is a timing prefetcher in the spirit of T-SKID (DPC3): instead of
// issuing a predicted address immediately — where it can land so early it is
// evicted, or so late it saves nothing — it learns *when* to issue. A miss
// at a target PC is linked back to the oldest recent access by another PC
// (the trigger) together with the observed trigger→target distance; from
// then on, every access by the trigger schedules a prefetch of the target
// PC's extrapolated next line, delayed until the learned distance minus a
// lead margin has elapsed. Address prediction itself is a plain per-PC
// stride tracker — the novelty carried here is the decoupled timing, which
// is what the paper's evaluation isolates.
type TSKID struct {
	cfg      TSKIDConfig
	eng      *sim.Engine
	trackers []tskidTracker
	targets  []tskidTarget
	recent   []tskidRecent
	recentN  int // total pushes; ring head is recentN % len(recent)
	issueH   tskidIssueHandler
	is       *issuer
}

// tskidIssueHandler fires a delayed prefetch: a is the target address. A
// typed handler (not a closure) the engine owns, so pending delayed issues
// survive a machine fork.
type tskidIssueHandler struct{ u *TSKID }

// Handle implements sim.Handler.
func (h tskidIssueHandler) Handle(_ sim.Ticks, a, _ uint64) { h.u.is.push(a) }

// NewTSKID builds a timing prefetcher issuing into l1.
func NewTSKID(eng *sim.Engine, cfg TSKIDConfig, l1 *mem.Cache, tlb *mem.TLB) *TSKID {
	t := &TSKID{
		cfg:      cfg,
		eng:      eng,
		trackers: make([]tskidTracker, cfg.Trackers),
		targets:  make([]tskidTarget, cfg.Targets),
		recent:   make([]tskidRecent, cfg.RecentPCs),
		is:       newIssuer(eng, l1, tlb, cfg.Queue),
	}
	t.issueH.u = t
	eng.Own(t.issueH)
	return t
}

// Stats returns issue counters.
func (t *TSKID) Stats() IssuerStats { return t.is.stats }

// Observe trains the trackers on every demand access that carries a PC, fires
// learned triggers, and learns a new trigger→target pair on a miss.
func (t *TSKID) Observe(addr uint64, pc int, hit bool) {
	if pc < 0 {
		return
	}
	now := t.eng.Now()
	line := mem.LineAddr(addr)

	// Train the per-PC stride tracker.
	tr := &t.trackers[pc%len(t.trackers)]
	if tr.pc != pc {
		*tr = tskidTracker{pc: pc, lastAddr: line}
	} else if line != tr.lastAddr {
		tr.stride = int64(line) - int64(tr.lastAddr)
		tr.lastAddr = line
	}

	// Trigger side: an access by a learned trigger PC schedules the target
	// PC's next line for the learned time.
	tg := &t.targets[pc%len(t.targets)]
	if tg.valid && tg.trigger == pc {
		if pred, ok := t.predict(tg.target); ok {
			if delay := tg.delay - t.cfg.LeadTicks; delay > 0 {
				t.eng.ScheduleAfter(delay, t.issueH, pred, 0)
			} else {
				t.is.push(pred)
			}
		}
	}

	// Target side: a miss links back to the oldest in-window recent access
	// by another PC, learning the trigger and the trigger→target distance.
	if !hit {
		if trig, dist, ok := t.findTrigger(pc, now); ok {
			t.targets[trig%len(t.targets)] = tskidTarget{
				trigger: trig, target: pc, delay: dist, valid: true,
			}
		}
	}

	t.recent[t.recentN%len(t.recent)] = tskidRecent{pc: pc, tick: now}
	t.recentN++
}

// predict extrapolates the target PC's next line from its stride tracker.
func (t *TSKID) predict(targetPC int) (uint64, bool) {
	tr := &t.trackers[targetPC%len(t.trackers)]
	if tr.pc != targetPC || tr.stride == 0 {
		return 0, false
	}
	return uint64(int64(tr.lastAddr) + tr.stride), true
}

// findTrigger scans the recent-PC ring oldest-first for the earliest access
// by a different PC within the learning window.
func (t *TSKID) findTrigger(targetPC int, now sim.Ticks) (int, sim.Ticks, bool) {
	n := len(t.recent)
	start := t.recentN - n
	if start < 0 {
		start = 0
	}
	for i := start; i < t.recentN; i++ {
		r := t.recent[i%n]
		if r.pc == targetPC {
			continue
		}
		if dist := now - r.tick; dist > 0 && dist <= t.cfg.MaxDelay {
			return r.pc, dist, true
		}
	}
	return 0, 0, false
}
