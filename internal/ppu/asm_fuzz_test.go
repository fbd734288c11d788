package ppu

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// workloadKernels returns the source text of every manual kernel the
// benchmarks in internal/workloads register, read from their kernels/*.ppu
// files (the package imports this one, so its tests cannot import it back).
func workloadKernels(tb testing.TB) []string {
	files, err := filepath.Glob(filepath.Join("..", "workloads", "kernels", "*.ppu"))
	if err != nil {
		tb.Fatal(err)
	}
	var srcs []string
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		srcs = append(srcs, string(src))
	}
	if len(srcs) == 0 {
		tb.Fatal("found no kernels in internal/workloads/kernels")
	}
	return srcs
}

// FuzzAssemble feeds text to Assemble, the parser behind cmd/ppfasm and
// eventpf.Assemble: it must answer an error rather than panic, and a program
// it accepts must come back unchanged from Encode and Decode. The seeds are
// the benchmarks' hand-written kernels; testdata/fuzz/FuzzAssemble holds
// inputs that once panicked.
func FuzzAssemble(f *testing.F) {
	for _, src := range workloadKernels(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Assemble(src)
		if err != nil {
			return
		}
		if back, err := Decode(Encode(prog)); err != nil || !slices.Equal(back, prog) {
			t.Fatalf("Decode(Encode(%v)) = %v, %v", prog, back, err)
		}
	})
}
