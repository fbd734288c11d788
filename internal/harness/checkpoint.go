package harness

import (
	"encoding/json"
	"fmt"
	"io"
)

// A checkpoint is a deterministic-replay descriptor, not a memory image:
// because every simulation is deterministic, "the machine after N retired
// micro-ops of job J" is fully described by (J, N) plus a digest of the
// state reached, which the resume verifies after replaying the warmup. That
// keeps the file format trivially stable across internal state layout
// changes while still catching any divergence (simulator code or inputs
// changed since the save) instead of silently continuing from the wrong
// state.

// CheckpointVersion is the current checkpoint file format version. The file
// layout has not changed since version 1, but what Digest fingerprints has:
// it folds in the engine's schedule counter, and since the core jumps idle
// stretches instead of ticking through them the same state is reached with
// fewer events scheduled. The bump makes a checkpoint written by an older
// build fail as an unsupported version rather than as a digest mismatch that
// blames the inputs.
const CheckpointVersion = 2

// Checkpoint is the on-disk form written by SaveCheckpoint.
type Checkpoint struct {
	Version   int     `json:"version"`
	Job       JobSpec `json:"job"`
	WarmupOps int64   `json:"warmup_ops"`
	// Digest fingerprints the machine state at the checkpoint
	// (system.Machine.Digest).
	Digest uint64 `json:"digest"`
}

// SaveCheckpoint advances the job's simulation until warmupOps micro-ops
// have retired and writes the replay descriptor for the paused state to w.
func SaveCheckpoint(w io.Writer, spec JobSpec, warmupOps int64) (*Checkpoint, error) {
	if warmupOps <= 0 {
		return nil, fmt.Errorf("harness: checkpoint warmup must be positive, got %d", warmupOps)
	}
	job, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	wr, err := warmJob(job, warmupOps)
	if err != nil {
		return nil, err
	}
	cp := &Checkpoint{
		Version: CheckpointVersion,
		Job: JobSpec{Bench: job.Bench.Name, Scheme: job.Scheme.String(),
			Scale: job.Scale, PPUs: job.PPUs, PPUMHz: job.PPUMHz},
		WarmupOps: warmupOps,
		Digest:    wr.Machine().Digest(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(cp); err != nil {
		return nil, err
	}
	return cp, nil
}

// ResumeCheckpoint reads a checkpoint, deterministically replays its warmup,
// verifies the state digest matches the one recorded at save time, and
// completes the run. The result is byte-identical to an uninterrupted run of
// the same job.
func ResumeCheckpoint(r io.Reader) (Result, error) {
	var cp Checkpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return Result{}, fmt.Errorf("harness: reading checkpoint: %w", err)
	}
	if cp.Version != CheckpointVersion {
		return Result{}, fmt.Errorf("harness: checkpoint version %d not supported (want %d)", cp.Version, CheckpointVersion)
	}
	job, err := cp.Job.Resolve()
	if err != nil {
		return Result{}, fmt.Errorf("harness: resolving checkpoint job: %w", err)
	}
	wr, err := warmJob(job, cp.WarmupOps)
	if err != nil {
		return Result{}, err
	}
	if got := wr.Machine().Digest(); got != cp.Digest {
		return Result{}, fmt.Errorf("harness: checkpoint digest mismatch: replay reached %016x, checkpoint recorded %016x (simulator or inputs changed since the save)", got, cp.Digest)
	}
	return wr.Resume()
}

func warmJob(job Job, warmupOps int64) (*WarmRun, error) {
	opt := Options{Scale: job.Scale, PPUs: job.PPUs, PPUMHz: job.PPUMHz}
	return Warm(job.Bench, job.Scheme, opt, warmupOps)
}
