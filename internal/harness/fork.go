package harness

import (
	"fmt"

	"eventpf/internal/system"
	"eventpf/internal/workloads"
)

// WarmRun is a run paused at a retired-micro-op boundary: the warmup
// executed exactly once, ready to be forked into many sweep continuations
// (Figure 9's clock points, ablation cells) or resumed to completion.
//
// Calls on a WarmRun must not overlap: forking reads the paused parent and
// Resume advances it, so a caller forking from several goroutines serialises
// its forks (Suite.sweep holds a lock), and resumes the parent, or releases
// its Machine, after the last one. A RunCont finishes on any goroutine, even
// while the parent is forked again: forked machines share nothing mutable.
type WarmRun struct{ rs *runSetup }

// Warm prepares b×scheme under opt and advances the simulation until the
// core has retired warmupOps micro-ops (or the program finished, if it is
// shorter — check Done).
func Warm(b *workloads.Benchmark, scheme Scheme, opt Options, warmupOps int64) (*WarmRun, error) {
	rs, err := prepare(b, scheme, opt)
	if err != nil {
		return nil, err
	}
	rs.m.Start(rs.stream)
	rs.m.RunUntilOps(warmupOps)
	return &WarmRun{rs: rs}, nil
}

// Done reports whether the program already completed during warmup (no fork
// point left — sweep callers should fall back to full runs).
func (w *WarmRun) Done() bool { return w.rs.m.Done() }

// Machine exposes the paused machine, e.g. for checkpoint digests.
func (w *WarmRun) Machine() *system.Machine { return w.rs.m }

// Fork clones the warmed run under cfg (same structural sizing; PPU clock,
// queue limits and context-switch period may differ) without advancing
// either copy. With cfg equal to the parent's, completing the fork yields
// byte-identical results to completing the parent.
func (w *WarmRun) Fork(cfg system.Config) (*RunCont, error) {
	f, err := w.rs.m.ForkWith(cfg)
	if err != nil {
		return nil, err
	}
	fs, ok := f.Stream().(*seq)
	if !ok {
		return nil, fmt.Errorf("harness: forked machine lost its stream (program finished during warmup?)")
	}
	return &RunCont{rs: &runSetup{
		b: w.rs.b, scheme: w.rs.scheme, m: f, stream: fs,
		inst: w.rs.inst, pass: w.rs.pass,
	}}, nil
}

// Resume completes the parent run itself. The WarmRun must not be forked or
// resumed again afterwards.
func (w *WarmRun) Resume() (Result, error) {
	return (&RunCont{rs: w.rs}).Finish()
}

// RunCont is a forked (or resumed) continuation ready to complete.
type RunCont struct{ rs *runSetup }

// Finish drains the simulation to completion, validates the benchmark's
// oracle against this machine's memory, assembles the Result and releases the
// machine (system.Machine.Release): its engine and statistics stay readable.
func (c *RunCont) Finish() (Result, error) {
	c.rs.m.Drain()
	res, err := c.rs.collect(c.rs.m.Finish())
	c.rs.m.Release()
	return res, err
}
