// Package workloads implements the eight memory-bound benchmarks of the
// paper's Table 2 at reduced, flag-adjustable scale. Each benchmark builds
// its data in a machine's functional memory, runs its timed kernel (IR text
// in kernels/, plus a software-prefetch variant and a pragma-annotated
// variant for the two compiler passes), supplies hand-written PPU event
// kernels for the "manual" scheme (assembler text in kernels/), and
// validates the simulated run against a pure-Go oracle: prefetching must
// never change answers.
package workloads

import (
	"fmt"
	"strings"

	"eventpf/internal/cpu"
	"eventpf/internal/ir"
	"eventpf/internal/mem"
	"eventpf/internal/system"
)

// Variant selects which form of a benchmark's kernel to run.
type Variant int

// Kernel variants.
const (
	// Plain is the unmodified kernel.
	Plain Variant = iota
	// SWPf carries explicit software-prefetch instructions.
	SWPf
	// Pragma is the plain kernel with "#pragma prefetch" loop annotations.
	Pragma
)

func (v Variant) String() string {
	switch v {
	case Plain:
		return "plain"
	case SWPf:
		return "swpf"
	case Pragma:
		return "pragma"
	}
	return "unknown"
}

// Run is one invocation of a benchmark's kernel. Before, if set, runs
// functionally (outside simulated time) when the invocation starts, like
// the initialisation phases the paper fast-forwards past — Graph500 uses it
// to reset the parent array between search roots.
type Run struct {
	Args   []uint64
	Before func(m *system.Machine)
}

// Instance is one prepared benchmark: data resides in the machine's backing
// store and BuildFn copies the kernel's parsed IR on demand (the compiler
// passes mutate IR, so every consumer gets its own copy).
type Instance struct {
	// BuildFn returns a fresh copy of the kernel in the given variant, or
	// nil if the variant does not exist (e.g. PageRank has no software-
	// prefetch form, mirroring the paper's missing bars in Figure 7).
	BuildFn func(v Variant) *ir.Fn
	// Runs are the kernel invocations, executed back to back on the core
	// (Graph500 searches several roots; the others have a single run).
	Runs []Run
	// Manual installs the hand-written PPU kernels and filter/global
	// configuration on a programmable-prefetcher machine.
	Manual func(m *system.Machine)
	// Check validates the whole instance: ret is the last invocation's
	// return value. It may also inspect the backing store for outputs.
	Check func(m *system.Machine, ret uint64, hasRet bool) error
	// StreamFn, if set, supplies the micro-op stream directly instead of
	// through an IR kernel: the instance has no BuildFn and no Runs, and the
	// harness feeds the stream straight to the core. This is the shape trace
	// replay (internal/tracein) uses; Check still runs afterwards, with no
	// return value.
	StreamFn func() (cpu.Stream, error)
}

// Benchmark is one Table 2 row.
type Benchmark struct {
	Name    string
	Source  string // suite the paper took it from
	Pattern string // Table 2 "pattern" column
	Input   string // the paper's input description
	// Build allocates and initialises the data at the given scale
	// (1.0 = this reproduction's default reduced input) and returns the
	// runnable instance.
	Build func(m *system.Machine, scale float64) *Instance
}

// All lists the benchmarks in the paper's presentation order.
var All = []*Benchmark{
	G500CSR,
	G500List,
	HJ2,
	HJ8,
	PageRank,
	RandAcc,
	IntSort,
	ConjGrad,
}

// Extra lists benchmarks that are not Table 2 rows: ByName resolves them
// (so CLIs and experiments can ask for them explicitly) but figure sweeps
// over All never pick them up. The adaptive-controller study's synthetic
// phase-alternation workload, plus the ROADMAP's three synthetic irregular
// workloads that double as trace-corpus seeds.
var Extra = []*Benchmark{
	PhaseMix,
	SpMV,
	BTree,
	HotCold,
}

// menu is the single merged lookup slice (All then Extra, built once) that
// ByName, Menu and MenuNames all consult, and byFold is its folded-name
// index. Package-level init runs after the benchmark variables above are
// initialised.
var (
	menu   []*Benchmark
	byFold map[string]*Benchmark
	extras map[*Benchmark]bool
)

func init() {
	menu = make([]*Benchmark, 0, len(All)+len(Extra))
	menu = append(menu, All...)
	menu = append(menu, Extra...)
	byFold = make(map[string]*Benchmark, len(menu))
	extras = make(map[*Benchmark]bool, len(Extra))
	for _, b := range menu {
		byFold[fold(b.Name)] = b
	}
	for _, b := range Extra {
		extras[b] = true
	}
}

// fold normalises a benchmark name for matching: lower case, punctuation
// stripped, so "hj8" and "g500csr" resolve to "HJ-8" and "G500-CSR".
func fold(s string) string {
	s = strings.ToLower(s)
	s = strings.ReplaceAll(s, "-", "")
	return strings.ReplaceAll(s, "_", "")
}

// Names lists the canonical Table 2 benchmark names in presentation order.
func Names() []string {
	names := make([]string, len(All))
	for i, b := range All {
		names[i] = b.Name
	}
	return names
}

// Menu lists every resolvable benchmark: Table 2 rows in presentation
// order, then the Extra set. The returned slice is shared; do not mutate.
func Menu() []*Benchmark { return menu }

// MenuNames lists every resolvable benchmark name (All then Extra) — the
// menu servers and CLIs should present, where Names covers only Table 2.
func MenuNames() []string {
	names := make([]string, len(menu))
	for i, b := range menu {
		names[i] = b.Name
	}
	return names
}

// IsExtra reports whether b is an Extra (non-Table 2) benchmark.
func IsExtra(b *Benchmark) bool { return extras[b] }

// ByName finds a benchmark by name — Table 2 rows and Extra alike.
// Matching ignores case and punctuation. On an unknown name the error lists
// every valid name, so CLIs and the job server can surface the whole menu
// instead of a bare failure.
func ByName(name string) (*Benchmark, error) {
	if b, ok := byFold[fold(name)]; ok {
		return b, nil
	}
	folded := make([]string, len(menu))
	for i, b := range menu {
		folded[i] = fold(b.Name)
	}
	return nil, fmt.Errorf("workloads: unknown benchmark %q; valid names (case and punctuation ignored): %s",
		name, strings.Join(folded, ", "))
}

func scaled(base int, scale float64) int {
	n := int(float64(base) * scale)
	if n < 16 {
		n = 16
	}
	return n
}

func checkEq(what string, got, want uint64) error {
	if got != want {
		return fmt.Errorf("%s = %d, want %d", what, got, want)
	}
	return nil
}

// checkRegion compares the digest of n words of simulated memory from base
// with the oracle's.
func checkRegion(what string, bk *mem.Backing, base, n uint64, want digest) error {
	if got := digestOf(bk, base, n); got != want {
		return fmt.Errorf("%s digest = %#x, want the oracle's %#x", what, uint64(got), uint64(want))
	}
	return nil
}

// splitmix64 is the deterministic RNG used by all generators.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// hashMul is the multiplicative hashing constant shared by the hash-join
// kernels, their PPU kernels and the oracles.
const hashMul = 0x9E3779B97F4A7C15

// perm fills p with a pseudo-random permutation of [0, len(p))
// (Fisher–Yates) and returns it.
func (s *splitmix64) perm(p []uint64) []uint64 {
	for i := range p {
		p[i] = uint64(i)
	}
	for i := len(p) - 1; i > 0; i-- {
		j := s.next() % uint64(i+1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
