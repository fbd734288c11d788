package ppu

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// workloadKernels returns the source text of every kernel the benchmarks in
// internal/workloads assemble with MustAssemble, read out of their Go files
// (the package imports this one, so its tests cannot import it back).
func workloadKernels(tb testing.TB) []string {
	files, err := filepath.Glob(filepath.Join("..", "workloads", "*.go"))
	if err != nil {
		tb.Fatal(err)
	}
	fset := token.NewFileSet()
	var srcs []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "MustAssemble" {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				src, err := strconv.Unquote(lit.Value)
				if err != nil {
					tb.Fatal(err)
				}
				srcs = append(srcs, src)
			}
			return true
		})
	}
	if len(srcs) == 0 {
		tb.Fatal("found no MustAssemble kernels in internal/workloads")
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
