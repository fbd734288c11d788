package workloads

import (
	"embed"
	"fmt"
	"io/fs"

	"eventpf/internal/ir"
	"eventpf/internal/ppu"
	"eventpf/internal/system"
)

// kernelFiles holds every benchmark's timed kernel and manual PPU kernels as
// text: kernels/<bench>.ir is the plain kernel with its "#pragma prefetch"
// marker, kernels/<bench>.swpf.ir the software-prefetch variant, and
// kernels/<name>.ppu one manual kernel in the assembler's syntax.
//
// A .ir file lists its blocks in the order the kernel was written, not the
// printer's block-id order: ir.Parse numbers values by position, and the
// interpreter uses each value number as the micro-op's PC, so the order is
// what the PC-indexed predictors and prefetchers see.
//
//go:embed kernels
var kernelFiles embed.FS

// loaded counts the loads of each file. Only package initialisation writes
// it: every file is loaded there once, into a template no run writes to.
var loaded = map[string]int{}

func readKernel(name string) string {
	src, err := kernelFiles.ReadFile("kernels/" + name)
	if err != nil {
		panic(err)
	}
	loaded[name]++
	return string(src)
}

func parseIR(name string) *ir.Fn {
	fn, err := ir.Parse(readKernel(name))
	if err != nil {
		panic(fmt.Sprintf("workloads: kernels/%s: %v", name, err))
	}
	return fn
}

// program is a benchmark's timed kernel, parsed once: the plain form with
// its pragma marker (if it has a pragma variant) and, if it has one, the
// software-prefetch form.
type program struct {
	plain, swpf *ir.Fn
	pragma      bool
}

// loadProgram parses kernels/<name>.ir and, if the benchmark has one,
// kernels/<name>.swpf.ir.
func loadProgram(name string) *program {
	p := &program{plain: parseIR(name + ".ir")}
	if _, err := fs.Stat(kernelFiles, "kernels/"+name+".swpf.ir"); err == nil {
		p.swpf = parseIR(name + ".swpf.ir")
	}
	for _, b := range p.plain.Blocks {
		p.pragma = p.pragma || b.Pragma
	}
	return p
}

// build is an Instance's BuildFn: a fresh copy of the variant, or nil for a
// variant the benchmark lacks. Plain is the pragma form with its marker
// cleared.
func (p *program) build(v Variant) *ir.Fn {
	switch {
	case v == SWPf && p.swpf != nil:
		return p.swpf.Clone()
	case v == Pragma && p.pragma:
		return p.plain.Clone()
	case v == Plain:
		fn := p.plain.Clone()
		for _, b := range fn.Blocks {
			b.Pragma = false
		}
		return fn
	}
	return nil
}

// ppuKernel assembles kernels/<name>.ppu; package variables call it, so
// each file is assembled once.
func ppuKernel(name string) []ppu.Instr {
	prog, err := ppu.Assemble(readKernel(name))
	if err != nil {
		panic(fmt.Sprintf("workloads: kernels/%s: %v", name, err))
	}
	return prog
}

// withKernels returns an Instance's Manual: it registers kernels as ids 1,
// 2, … and then runs setup, which programs the filter table and globals.
func withKernels(kernels [][]ppu.Instr, setup func(mc *system.Machine)) func(mc *system.Machine) {
	return func(mc *system.Machine) {
		for i, k := range kernels {
			mc.RegisterKernel(i+1, k)
		}
		setup(mc)
	}
}
