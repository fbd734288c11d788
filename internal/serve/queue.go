package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"eventpf/internal/harness"
	"eventpf/internal/trace"
)

// startWorkers launches the bounded pool. The pool is the only place
// simulations run, so goroutine growth is bounded by Workers regardless of
// request volume — saturation turns into 429s at admission, never into
// unbounded concurrency.
func (s *Server) startWorkers() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.workerWG.Add(1)
		go func() {
			defer s.workerWG.Done()
			for jb := range s.queue {
				s.dispatch(jb)
			}
		}()
	}
}

// dispatch runs one popped job, or rejects it if the server is draining
// (drain semantics: in-flight jobs finish, queued jobs are rejected). Its
// Running publish is the claim: a job cancelled while queued refuses it.
func (s *Server) dispatch(jb *Job) {
	if s.m.draining.Load() {
		s.finishJob(jb, StateRejected, "server draining: queued job rejected")
		return
	}
	if !jb.publish(ProgressEvent{State: StateRunning, Phase: "starting"}) {
		return
	}
	s.m.inflight.Add(1)
	s.m.simulations.Add(1)
	start := time.Now()

	result, err := s.runJob(jb)

	s.observeRunDuration(time.Since(start))
	s.m.inflight.Add(-1)

	switch {
	case err != nil && errors.Is(err, harness.ErrUnsupported):
		s.finishJob(jb, StateFailed, fmt.Sprintf("scheme %s is not applicable to %s (the paper's missing bars)",
			jb.resolved.Scheme, jb.resolved.Bench.Name))
	case err != nil:
		s.finishJob(jb, StateFailed, err.Error())
	default:
		if err := s.storeResult(jb, result); err != nil {
			s.finishJob(jb, StateFailed, "result is not JSON: "+err.Error())
			return
		}
		jb.setResult(result)
		s.m.completed.Add(1)
		jb.publish(ProgressEvent{State: StateDone, Phase: "oracle-checked"})
	}
}

// finishJob moves a job to a terminal failure/rejection state and, if the
// job took it (see Job.publish), clears its in-flight registration.
func (s *Server) finishJob(jb *Job, st State, msg string) bool {
	if !jb.publish(ProgressEvent{State: st, Error: msg}) {
		return false
	}
	s.mu.Lock()
	if s.byKey[jb.Key] == jb {
		delete(s.byKey, jb.Key)
	}
	s.mu.Unlock()
	if st == StateFailed {
		s.m.failed.Add(1)
	}
	return true
}

// simulate is the production runJob: harness.Run of the job's options — the
// call ppfsim makes for the same config — with the job's own progress sink
// and metrics registry attached. The registry is confined to this goroutine
// until the run finishes, then merged into the server-wide aggregate. A sliced
// job runs unobserved — observers would force it serial
// (harness.Options.Slices) — so it publishes its state transitions but no
// progress and no sim_ metrics.
func (s *Server) simulate(jb *Job) ([]byte, error) {
	opt := jb.resolved.Options()
	if opt.Slices <= 1 {
		opt.TraceSink = &progressSink{job: jb, every: s.cfg.ProgressEvery}
		opt.Metrics = trace.NewRegistry()
	}
	res, err := harness.Run(jb.resolved.Bench, jb.resolved.Scheme, opt)
	if err != nil {
		return nil, err
	}
	s.sim.merge(opt.Metrics)
	var buf bytes.Buffer
	if err := harness.EncodeResult(&buf, res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// observeRunDuration feeds the Retry-After estimator (stats.EWMA, α=1/4).
func (s *Server) observeRunDuration(d time.Duration) {
	s.mu.Lock()
	s.ewmaRun.Observe(d.Nanoseconds())
	s.mu.Unlock()
}

// retryAfterLocked estimates how long a rejected client should wait for a
// queue slot: the queued work divided by the worker pool, clamped to
// [1s, 30s]. Callers hold s.mu.
func (s *Server) retryAfterLocked() int {
	est := time.Duration(s.ewmaRun.Value()) * time.Duration(len(s.queue)+1) / time.Duration(s.cfg.Workers)
	sec := int(est / time.Second)
	if sec < 1 {
		sec = 1
	}
	if sec > 30 {
		sec = 30
	}
	return sec
}

// Drain gracefully shuts the daemon down: new submissions are refused,
// queued jobs are rejected, in-flight jobs run to completion. It returns
// when the workers have drained or ctx expires (a second SIGTERM path
// force-exits without waiting; see HandleSignals).
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		select {
		case <-s.drained:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.draining = true
	s.m.draining.Store(true)
	close(s.queue) // submissions check draining under s.mu before sending
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(s.drained)
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
