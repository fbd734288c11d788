// Package eventpf is a Go reproduction of "An Event-Triggered Programmable
// Prefetcher for Irregular Workloads" (Ainsworth & Jones, ASPLOS 2018): a
// cycle-level simulator of an out-of-order core with two cache levels, TLB
// and DDR3 DRAM, carrying the paper's programmable prefetcher — an address
// filter, observation queue, scheduler, a pool of tiny programmable prefetch
// units (PPUs), EWMA look-ahead calculators and a tagged prefetch-request
// path — plus the paper's compiler passes (software-prefetch conversion,
// pragma event generation, automatic prefetch insertion) over a small SSA
// IR with a textual form.
//
// Quick start:
//
//	bench, _ := eventpf.BenchmarkByName("HJ-8")
//	base, _ := eventpf.Run(bench, eventpf.NoPF, eventpf.Options{Scale: 0.25})
//	man, _ := eventpf.Run(bench, eventpf.Manual, eventpf.Options{Scale: 0.25})
//	fmt.Printf("speedup %.2fx\n", eventpf.Speedup(base, man))
//
// For custom workloads, build a machine directly, write the timed kernel as
// IR text (eventpf.ParseIR; the form is in docs/ir.md), write PPU event
// kernels in the assembly dialect (eventpf.Assemble), and run; the package
// examples are complete programs.
package eventpf

import (
	"eventpf/internal/compiler"
	"eventpf/internal/harness"
	"eventpf/internal/ir"
	"eventpf/internal/ppu"
	"eventpf/internal/prefetch"
	"eventpf/internal/system"
	"eventpf/internal/trace"
	"eventpf/internal/workloads"
)

// Scheme selects a prefetching scheme (one Figure 7 bar).
type Scheme = harness.Scheme

// The paper's comparison schemes plus the competitor prefetchers: the
// constants of internal/harness, each with a row of its scheme table.
const (
	NoPF          = harness.NoPF
	Stride        = harness.Stride
	GHBRegular    = harness.GHBRegular
	GHBLarge      = harness.GHBLarge
	Software      = harness.Software
	Pragma        = harness.Pragma
	Converted     = harness.Converted
	Manual        = harness.Manual
	ManualBlocked = harness.ManualBlocked
	RPT           = harness.RPT
	GHBDelta      = harness.GHBDelta
	TSKID         = harness.TSKID
	Adaptive      = harness.Adaptive
)

// Options adjusts a run; see harness.Options.
type Options = harness.Options

// Result is one benchmark × scheme measurement.
type Result = harness.Result

// Benchmark is one of the paper's Table 2 workloads.
type Benchmark = workloads.Benchmark

// Benchmarks returns the eight Table 2 benchmarks in paper order.
func Benchmarks() []*Benchmark { return workloads.All }

// BenchmarkByName finds a Table 2 benchmark ("G500-CSR", "HJ-8", …).
func BenchmarkByName(name string) (*Benchmark, bool) {
	b, err := workloads.ByName(name)
	return b, err == nil
}

// Run executes one benchmark under one scheme, validating the computation
// against the benchmark's oracle.
func Run(b *Benchmark, s Scheme, opt Options) (Result, error) { return harness.Run(b, s, opt) }

// Speedup returns base.Cycles / run.Cycles.
func Speedup(base, run Result) float64 { return harness.Speedup(base, run) }

// Suite memoises runs across experiments and fans independent simulations
// out over a bounded worker pool (Options.Parallel, default GOMAXPROCS);
// it regenerates every figure of the paper's evaluation. See the
// Fig7…Fig11 methods, Prefetch and Run.
type Suite = harness.Suite

// Pair names one benchmark×scheme measurement, with the optional PPU sizing
// of the Figure 9 sweeps, for Suite.Prefetch and Suite.Run. Scale and engine
// are the suite's: every pair runs at Options.Scale on the exact serial
// engine.
type Pair = harness.Pair

// NewSuite prepares an experiment suite. A suite's runs are exact and
// unobserved: it panics on Options that set TraceSink, Metrics, OpSink,
// Sample or Slices > 1 — those belong to a single Run.
func NewSuite(opt Options) *Suite { return harness.NewSuite(opt) }

// Machine-level API, for building custom workloads against the simulator.

// MachineConfig sizes the simulated machine (Table 1 defaults).
type MachineConfig = system.Config

// MachineScheme selects the hardware prefetcher a machine carries.
type MachineScheme = system.Scheme

// Machine prefetching schemes: the constants of internal/system.
const (
	MachineNoPF         = system.NoPF
	MachineStride       = system.StridePF
	MachineGHBRegular   = system.GHBRegular
	MachineGHBLarge     = system.GHBLarge
	MachineProgrammable = system.Programmable
	MachineRPT          = system.RPT
	MachineGHBDelta     = system.GHBDelta
	MachineTSKID        = system.TSKID
)

// Machine is one assembled simulation instance.
type Machine = system.Machine

// DefaultMachineConfig returns the paper's Table 1 configuration.
func DefaultMachineConfig() MachineConfig { return system.DefaultConfig() }

// NewMachine assembles a machine carrying the given prefetching scheme.
func NewMachine(cfg MachineConfig, s MachineScheme) *Machine { return system.New(cfg, s) }

// RangeConfig is one prefetcher address-filter entry (§4.2).
type RangeConfig = prefetch.RangeConfig

// NoKernel marks an unset kernel slot in a RangeConfig.
const NoKernel = prefetch.NoKernel

// IR kernels, for writing custom timed kernels as text.

// IRFn is a kernel function in the SSA IR.
type IRFn = ir.Fn

// ParseIR reads a kernel in the IR's textual form, the form (*IRFn).String
// prints, and verifies it.
func ParseIR(src string) (*IRFn, error) { return ir.Parse(src) }

// PPU kernel authoring.

// PPUInstr is one PPU instruction.
type PPUInstr = ppu.Instr

// Assemble parses PPU kernel assembly (see internal/ppu for the dialect).
func Assemble(src string) ([]PPUInstr, error) { return ppu.Assemble(src) }

// MustAssemble is Assemble, panicking on error.
func MustAssemble(src string) []PPUInstr { return ppu.MustAssemble(src) }

// Compiler passes (§6).

// CompilerAlloc hands out kernel ids and filter slots across passes.
type CompilerAlloc = compiler.Alloc

// CompilerResult reports what a pass produced.
type CompilerResult = compiler.Result

// NewCompilerAlloc returns a fresh id allocator for the passes.
func NewCompilerAlloc() *CompilerAlloc { return compiler.NewAlloc() }

// ConvertSoftwarePrefetches runs the paper's Algorithm 1 on fn in place,
// returning the generated PPU kernels.
func ConvertSoftwarePrefetches(fn *IRFn, a *CompilerAlloc) (*CompilerResult, error) {
	return compiler.ConvertSoftwarePrefetches(fn, a)
}

// GeneratePragmaEvents runs the §6.4 pragma pass on fn in place.
func GeneratePragmaEvents(fn *IRFn, a *CompilerAlloc) (*CompilerResult, error) {
	return compiler.GeneratePragmaEvents(fn, a)
}

// Disassemble renders a PPU kernel with instruction indices.
func Disassemble(prog []PPUInstr) string { return ppu.Disassemble(prog) }

// InsertSoftwarePrefetches runs the automatic software-prefetch-insertion
// pass (the paper's reference [2], CGO 2017) on fn in place, returning how
// many indirect loads were instrumented.
func InsertSoftwarePrefetches(fn *IRFn, dist int64) int {
	return compiler.InsertSoftwarePrefetches(fn, dist)
}

// PrefetchTracer is the ring tracer attachable via Options.TraceLast.
type PrefetchTracer = trace.Ring
