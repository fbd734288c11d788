package system

import (
	"fmt"

	"eventpf/internal/cpu"
)

// Forking a machine builds a complete second machine with New (so every
// component, handler adapter and callback chain is wired exactly as the
// constructor wires it) and then copies the parent's state into it,
// component by component and the event queue last. New under a
// fork-compatible configuration hands the fork's engine the same handler
// adapters in the same order as the parent's, so the engine pairs them by
// position and translates any captured handler — in the event queue, in MSHR
// waiter lists, in TLB translation records, in the load-record table —
// itself (sim.Engine.Counterpart). The fork owns all of its pooled objects:
// parked requests are cloned through the fork's own pool, never aliased, so
// parent and fork can run concurrently.

// ForkableStream is a micro-op stream that can clone itself for a forked
// machine. ForkStream must return a stream positioned at exactly the same
// dynamic op, re-bound to the fork's backing store, config sink and micro-op
// counter. Machines running a plain stream cannot be forked mid-run.
type ForkableStream interface {
	cpu.Stream
	// ForkStream clones the stream for machine f.
	ForkStream(f *Machine) (cpu.Stream, error)
}

// StreamCloner is a leaf micro-op stream that can open a second cursor over
// its source for a forked machine — e.g. a trace replayer re-opening its
// file. Composite streams (the harness's run sequence) implement
// ForkableStream directly and delegate member cloning to this interface.
type StreamCloner interface {
	cpu.Stream
	// CloneStream returns an independent stream positioned at the same
	// dynamic op, bound to f's backing store.
	CloneStream(f *Machine) (cpu.Stream, error)
}

// Fork returns a deep copy of the machine: same configuration, same point in
// simulated time, same pending events, independent state. See ForkWith.
func (m *Machine) Fork() (*Machine, error) { return m.ForkWith(m.Cfg) }

// Stream returns the machine's current micro-op stream: the one Start was
// given, or on a fork the clone ForkWith produced (nil if the parent's
// stream was already exhausted). Callers use it to reach their own stream
// wrappers — e.g. the harness's final interpreter for oracle checks.
func (m *Machine) Stream() cpu.Stream { return m.stream }

// ForkWith returns a deep copy of the machine built under cfg, which may
// change the programmable prefetcher's clock, queue limits and the
// context-switch period (the sweep fan-out case) but no structural sizing —
// state copied slot-for-slot must land in identically-shaped components.
// With cfg identical to m.Cfg, running the fork produces byte-identical
// results to running the parent.
func (m *Machine) ForkWith(cfg Config) (*Machine, error) {
	if m.released {
		return nil, fmt.Errorf("system: fork of a released machine")
	}
	if err := forkCompatible(m.Cfg, cfg); err != nil {
		return nil, err
	}
	f := New(cfg, m.Scheme)
	if err := f.copyFrom(m); err != nil {
		f.Release()
		return nil, fmt.Errorf("system: fork: %w", err)
	}
	return f, nil
}

// copyFrom copies m's state into f, a machine New just built for the same
// scheme under a fork-compatible configuration: the components, then the
// micro-op stream, then the event queue.
func (f *Machine) copyFrom(m *Machine) error {
	// Functional memory first: stream cloning below needs the fork's
	// backing store populated.
	f.Backing.CopyFrom(m.Backing)
	f.Arena.CopyFrom(m.Arena)
	if err := f.DRAM.CopyStateFrom(m.DRAM); err != nil {
		return err
	}
	if err := f.L2.CopyStateFrom(m.L2); err != nil {
		return err
	}
	if err := f.L1.CopyStateFrom(m.L1); err != nil {
		return err
	}
	if err := f.TLB.CopyStateFrom(m.TLB); err != nil {
		return err
	}
	if err := f.glue.copyStateFrom(m.glue); err != nil {
		return err
	}
	if m.PF != nil {
		if err := f.PF.CopyStateFrom(m.PF); err != nil {
			return err
		}
	}
	if m.Baseline != nil {
		if err := f.Baseline.CopyStateFrom(m.Baseline); err != nil {
			return err
		}
	}
	*f.Counter = *m.Counter
	f.coreDone = m.coreDone
	f.runDone = m.runDone

	if m.Core.StreamActive() {
		fs, ok := m.stream.(ForkableStream)
		if !ok {
			return fmt.Errorf("stream %T does not support forking", m.stream)
		}
		var err error
		if f.stream, err = fs.ForkStream(f); err != nil {
			return err
		}
	}
	f.Core.CopyStateFrom(m.Core, f.stream, f.onCoreDone)

	return f.Eng.CopyFrom(m.Eng)
}

// forkCompatible rejects configuration changes that would alter the shape of
// state a fork copies slot-for-slot.
func forkCompatible(old, new Config) error {
	switch {
	case new.CoreMHz != old.CoreMHz, new.Width != old.Width, new.ROB != old.ROB,
		new.LQ != old.LQ, new.SQ != old.SQ, new.MispredictPenalty != old.MispredictPenalty:
		return fmt.Errorf("system: fork cannot change core sizing")
	case new.L1 != old.L1, new.L2 != old.L2:
		return fmt.Errorf("system: fork cannot change cache geometry")
	case new.TLB != old.TLB:
		return fmt.Errorf("system: fork cannot change TLB geometry")
	case new.DRAM != old.DRAM:
		return fmt.Errorf("system: fork cannot change DRAM geometry")
	case new.Stride != old.Stride, new.GHB != old.GHB, new.RPT != old.RPT,
		new.Delta != old.Delta, new.TSKID != old.TSKID:
		return fmt.Errorf("system: fork cannot change baseline prefetcher sizing")
	case new.Prefetcher.NumPPUs != old.Prefetcher.NumPPUs:
		return fmt.Errorf("system: fork cannot change the PPU count")
	case new.Prefetcher.Blocked != old.Prefetcher.Blocked:
		return fmt.Errorf("system: fork cannot change blocked-mode execution")
	case new.ContextSwitchTicks != old.ContextSwitchTicks:
		// The pending flush event was armed under the parent's period; a
		// different period would neither honour the old schedule nor the new.
		return fmt.Errorf("system: fork cannot change the context-switch period")
	}
	return nil
}

// copyStateFrom copies the in-flight demand-load record table; each record's
// completion handler (a core adapter) is translated into the fork's.
func (g *portGlue) copyStateFrom(src *portGlue) error {
	err := g.recs.CopyFrom(&src.recs, func(r loadRec) (loadRec, error) {
		var err error
		r.h, err = g.eng.Counterpart(src.eng, r.h)
		return r, err
	})
	if err != nil {
		// The records before the failing one were copied, so Live names it.
		return fmt.Errorf("load record %d: %w", g.recs.Live(), err)
	}
	return nil
}

// Digest returns a cheap deterministic fingerprint of the machine's
// execution state (FNV-1a over the event-engine clocks and the major
// component counters): two machines that replayed the same run to the same
// point share it.
func (m *Machine) Digest() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mix(uint64(m.Eng.Now()))
	mix(m.Eng.Seq())
	mix(uint64(m.Eng.Pending()))
	mix(uint64(*m.Counter))
	cs := m.Core.Stats
	mix(uint64(cs.Ops))
	mix(uint64(cs.Loads))
	mix(uint64(cs.Stores))
	mix(uint64(cs.Branches))
	mix(uint64(cs.Mispredicts))
	mix(uint64(m.L1.Stats.DemandLoads))
	mix(uint64(m.L1.Stats.Misses))
	mix(uint64(m.L2.Stats.Misses))
	mix(uint64(m.DRAM.Stats.Reads))
	mix(uint64(m.DRAM.Stats.Writes))
	mix(uint64(m.TLB.Stats.Accesses))
	mix(uint64(m.TLB.Stats.Walks))
	return h
}
