package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"eventpf/internal/tracein"
	"eventpf/internal/workloads"
)

// JobSpec is one simulation request as the outside world states it: a wire
// format shared by ppfserve's POST /jobs body, ppfload's request generator
// and any future batch front end. All fields except Bench and Scheme are
// optional; zero values take the Table 1 / Table 2 defaults.
type JobSpec struct {
	// Bench is a Table 2 benchmark name; matching ignores case and
	// punctuation (workloads.ByName).
	Bench string `json:"bench"`
	// Trace, if set, is a path to a captured trace file (internal/tracein)
	// replayed in place of a named benchmark; Bench must then be empty. The
	// path is resolved on the machine that simulates, and it becomes part of
	// the content key — note the key does not cover the file's bytes, so a
	// cache shared across machines must only see stable trace paths.
	Trace string `json:"trace,omitempty"`
	// Scheme is a Figure 7 scheme name ("no-pf", "stride", … "manual").
	Scheme string `json:"scheme"`
	// Scale multiplies the benchmark's default reduced input; 0 means 1.0
	// (servers typically substitute their own default before resolving).
	Scale float64 `json:"scale,omitempty"`
	// PPUs and PPUMHz override the prefetcher sizing (0 = default).
	PPUs   int `json:"ppus,omitempty"`
	PPUMHz int `json:"ppu_mhz,omitempty"`
	// Slices, if above 1, runs the simulation time-parallel across that
	// many op-count slices (approximate but deterministic; see
	// harness.Options.Slices). 0 or 1 is the exact serial engine.
	Slices int `json:"slices,omitempty"`
}

// Job is a resolved, canonical JobSpec: the benchmark and scheme exist, and
// every field is folded to its effective value, so two Jobs describe the
// same simulation if and only if they are equal (and hash to the same Key).
type Job struct {
	Bench  *workloads.Benchmark
	Scheme Scheme
	Scale  float64
	PPUs   int
	PPUMHz int
	Slices int
}

// Resolve validates the spec and folds it to canonical form: benchmark and
// scheme names are resolved (an unknown name's error lists the valid ones),
// scale defaults to 1.0, and PPU sizing is folded exactly like the Suite
// memo key — defaults filled in for programmable schemes, zeroed for
// schemes a PPU cannot affect — so the content hash never distinguishes
// requests the simulator cannot. A sizing no machine can be built with
// (ppuSizing) or a scale CheckScale refuses does not resolve, whatever the
// scheme.
func (j JobSpec) Resolve() (Job, error) {
	var b *workloads.Benchmark
	switch {
	case j.Trace != "" && j.Bench != "":
		return Job{}, fmt.Errorf("harness: job names both bench %q and trace %q; pick one", j.Bench, j.Trace)
	case j.Trace != "":
		b = tracein.Bench(j.Trace)
	default:
		var err error
		b, err = workloads.ByName(j.Bench)
		if err != nil {
			return Job{}, err
		}
	}
	scheme, ok := ParseScheme(j.Scheme)
	if !ok {
		return Job{}, &UnknownSchemeError{Name: j.Scheme}
	}
	if err := CheckScale(j.Scale); err != nil {
		return Job{}, err
	}
	scale := j.Scale
	if scale == 0 {
		scale = 1.0
	}
	if j.Slices < 0 {
		return Job{}, fmt.Errorf("harness: slices %d must not be negative", j.Slices)
	}
	slices := j.Slices
	if slices == 1 {
		slices = 0 // one slice is the serial engine: fold to the default spelling
	}
	ppus, mhz, err := foldSizing(scheme, j.PPUs, j.PPUMHz, nil)
	if err != nil {
		return Job{}, err
	}
	return Job{Bench: b, Scheme: scheme, Scale: scale, PPUs: ppus, PPUMHz: mhz, Slices: slices}, nil
}

// Options is the run the job describes, as Run takes it: a served job and a
// ppfsim command line with the same fields are the same call.
func (j Job) Options() Options {
	return Options{Scale: j.Scale, PPUs: j.PPUs, PPUMHz: j.PPUMHz, Slices: j.Slices}
}

// Canonical renders the resolved config in the fixed textual form the
// content hash covers. The field order is part of the cache format; the
// slices term appears only on sliced jobs, so every serial job's key is
// unchanged from before time-parallel execution existed.
func (j Job) Canonical() string {
	c := fmt.Sprintf("bench=%s;scheme=%s;scale=%g;ppus=%d;mhz=%d",
		j.Bench.Name, j.Scheme, j.Scale, j.PPUs, j.PPUMHz)
	if j.Slices > 1 {
		c += fmt.Sprintf(";slices=%d", j.Slices)
	}
	return c
}

// Key is the job's content address: the hex SHA-256 of the canonical
// resolved config. Every request that must simulate identically — whatever
// spelling, casing or redundant sizing the client used — has the same Key,
// so a result cache indexed by it can never serve the wrong result and
// never simulates one config twice.
func (j Job) Key() string {
	sum := sha256.Sum256([]byte(j.Canonical()))
	return hex.EncodeToString(sum[:])
}

// EncodeResult writes the canonical JSON encoding of a Result: the exact
// bytes ppfsim -json prints and ppfserve caches and serves, so "the daemon's
// answer is byte-identical to the CLI's" is a property of this one function.
func EncodeResult(w io.Writer, r Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
