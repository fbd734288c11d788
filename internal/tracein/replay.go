package tracein

import (
	"fmt"
	"io"
	"os"

	"eventpf/internal/cpu"
	"eventpf/internal/mem"
	"eventpf/internal/system"
	"eventpf/internal/workloads"
)

// Replayer adapts a Decoder to cpu.Stream: each decoded record becomes one
// micro-op with freshly assigned sequential ids (matching the core's
// dispatch numbering, which is stream order). Decode errors cannot surface
// through Next — the stream just ends — so they are latched and reported by
// Err, which the replay instance's oracle check consults after the run.
type Replayer struct {
	dec     Decoder
	native  *nativeDecoder // dec, when it is one: Fill decodes through it directly
	backing *mem.Backing
	closer  io.Closer
	path    string // set by OpenReplayer; enables CloneAt
	nextID  int64
	err     error
}

// OpenReplayer opens the trace at path and builds a Replayer that remembers
// where it came from, so the stream can be cloned (CloneAt / CloneStream)
// for machine forks and time-parallel slicing. Prefer this over NewReplayer
// for file-backed traces.
func OpenReplayer(path string, backing *mem.Backing) (*Replayer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tracein: %w", err)
	}
	dec, err := Open(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("tracein: %s: %w", path, err)
	}
	r := NewReplayer(dec, backing, f)
	r.path = path
	return r, nil
}

// NewReplayer builds a replay stream over dec feeding a machine's backing
// store. Every page of every header region is mapped up front, reproducing
// the capture machine's page map exactly (a replayed prefetch must survive
// or fault in translation just as it did live); pages demanded outside the
// regions — ChampSim traces carry no region table — are mapped lazily.
// closer, if non-nil, is closed when the stream is exhausted.
func NewReplayer(dec Decoder, backing *mem.Backing, closer io.Closer) *Replayer {
	for _, r := range dec.Meta().Regions {
		size := r.Size
		if size == 0 {
			size = 8
		}
		pages := (size + mem.PageSize - 1) / mem.PageSize
		for i := uint64(0); i < pages; i++ {
			backing.MapPage(r.Base + i*mem.PageSize)
		}
	}
	native, _ := dec.(*nativeDecoder)
	return &Replayer{dec: dec, native: native, backing: backing, closer: closer}
}

// Next implements cpu.Stream.
func (r *Replayer) Next() (op cpu.MicroOp, ok bool) {
	ok = r.Fill(&op)
	return op, ok
}

// Fill implements cpu.Filler.
func (r *Replayer) Fill(op *cpu.MicroOp) bool {
	if r.err != nil || r.dec == nil {
		return false
	}
	var rec Op
	var err error
	if r.native != nil {
		err = r.native.next(&rec)
	} else {
		rec, err = r.dec.Next()
	}
	if err != nil {
		if err != io.EOF {
			r.err = err
		}
		r.close()
		return false
	}
	id := r.nextID
	r.nextID++
	op.Kind, op.PC, op.Addr, op.Taken, op.Do = rec.Kind, rec.PC, rec.Addr, rec.Taken, nil
	op.Deps = [2]int64{producer(id, rec.Rel[0]), producer(id, rec.Rel[1])}
	if op.Kind == cpu.OpLoad && !r.backing.Mapped(op.Addr) {
		// A demand load to an unmapped page panics in the machine glue;
		// traces without a region table fault pages in as they appear.
		r.backing.MapPage(op.Addr)
	}
	return true
}

// producer resolves op id's dependence distance rel to a producer id. A
// distance of 0 is no dependence; one reaching before op 0 names a producer
// that never ran, which counts as retired, like one older than the window.
func producer(id int64, rel uint64) int64 {
	if rel == 0 || rel > uint64(id) {
		return cpu.NoDep
	}
	return id - int64(rel)
}

func (r *Replayer) close() {
	if rel, ok := r.dec.(interface{ release() }); ok {
		rel.release()
	}
	r.dec, r.native = nil, nil
	if r.closer != nil {
		if cerr := r.closer.Close(); cerr != nil && r.err == nil {
			r.err = cerr
		}
		r.closer = nil
	}
}

// Close implements io.Closer, releasing the trace file of a replayer
// abandoned mid-stream (a non-final time-parallel slice). Safe after a
// natural end of trace, which already closed the file.
func (r *Replayer) Close() error {
	r.close()
	return r.err
}

// CloneAt opens a second decode cursor over the same trace, positioned just
// before dynamic op (the clone's next Next returns the record with id op).
// The prefix is decoded and discarded against backing, so lazily-faulted
// pages exist in the clone's machine exactly as in the original's. Only
// replayers built by OpenReplayer know their source and can clone.
func (r *Replayer) CloneAt(backing *mem.Backing, op int64) (*Replayer, error) {
	if r.path == "" {
		return nil, fmt.Errorf("tracein: replayer has no file path; cannot clone")
	}
	c, err := OpenReplayer(r.path, backing)
	if err != nil {
		return nil, err
	}
	var skipped cpu.MicroOp
	for c.nextID < op {
		if !c.Fill(&skipped) {
			err := c.Err()
			if err == nil {
				err = fmt.Errorf("tracein: %s: trace ends before op %d", r.path, op)
			}
			return nil, err
		}
	}
	return c, nil
}

// CloneStream implements system.StreamCloner: a cursor at the current
// position for a forked machine.
func (r *Replayer) CloneStream(f *system.Machine) (cpu.Stream, error) {
	return r.CloneAt(f.Backing, r.nextID)
}

// Err returns the first decode error hit during replay (nil after a clean
// end of trace, including trailer validation for native traces).
func (r *Replayer) Err() error { return r.err }

// Ops returns how many ops have been replayed so far.
func (r *Replayer) Ops() int64 { return r.nextID }

// Bench wraps a trace file as a workloads.Benchmark, the shape every
// front end (harness.Run, Suite pairs, JobSpec, ppfsim) already consumes, so
// replay needs zero registry changes. The name embeds the path — distinct
// traces stay distinct in memo and content-hash keys.
func Bench(path string) *workloads.Benchmark {
	return &workloads.Benchmark{
		Name:    "trace:" + path,
		Source:  "trace replay",
		Pattern: "Captured demand stream",
		Input:   path,
		Build: func(m *system.Machine, _ float64) *workloads.Instance {
			var rep *Replayer
			return &workloads.Instance{
				StreamFn: func() (cpu.Stream, error) {
					r, err := OpenReplayer(path, m.Backing)
					if err != nil {
						return nil, err
					}
					rep = r
					return rep, nil
				},
				// The oracle of a replayed trace is the trace itself: the run
				// only counts if every record decoded cleanly through the
				// trailer. A mid-stream decode failure otherwise just looks
				// like a short program.
				Check: func(*system.Machine, uint64, bool) error {
					if rep == nil {
						return fmt.Errorf("tracein: %s: replay stream was never built", path)
					}
					return rep.Err()
				},
			}
		},
	}
}
