package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eventpf/internal/compiler"
	"eventpf/internal/ir"
	"eventpf/internal/system"
)

// TestEveryKernelFileLoadedOnce: package initialisation loads each file
// under kernels/ exactly once (a file no benchmark names would be dead
// text, one loaded twice a second template), and every .ir file passes
// Verify.
func TestEveryKernelFileLoadedOnce(t *testing.T) {
	n := 0
	err := fs.WalkDir(kernelFiles, "kernels", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		n++
		name := strings.TrimPrefix(path, "kernels/")
		if loaded[name] != 1 {
			t.Errorf("%s loaded %d times, want 1", name, loaded[name])
		}
		if strings.HasSuffix(name, ".ir") {
			src, err := kernelFiles.ReadFile(path)
			if err != nil {
				return err
			}
			if _, err := ir.Parse(string(src)); err != nil { // Parse runs Verify
				t.Errorf("%s: %v", name, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != n {
		t.Errorf("%d files loaded, %d embedded", len(loaded), n)
	}
}

// TestBuildFnCopiesAreIndependent: BuildFn hands out copies of one parsed
// template, so a compiler pass rewriting one copy leaves the next copy
// printing the pinned IR. Two instances of each benchmark do this at once,
// and install the shared PPU kernels, so -race sees the templates read from
// several goroutines while passes write the copies.
func TestBuildFnCopiesAreIndependent(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "build_hashes.json"))
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]buildImage
	if err := json.Unmarshal(raw, &pins); err != nil {
		t.Fatal(err)
	}
	for _, b := range All {
		for i := 0; i < 2; i++ {
			t.Run(fmt.Sprintf("%s/%d", b.Name, i), func(t *testing.T) {
				t.Parallel()
				m := system.New(system.DefaultConfig(), system.Programmable)
				defer m.Release()
				inst := b.Build(m, 0.022)
				inst.Manual(m)
				for _, v := range []Variant{SWPf, Pragma} {
					fn := inst.BuildFn(v)
					if fn == nil {
						continue
					}
					before := fn.String()
					pass := compiler.ConvertSoftwarePrefetches
					if v == Pragma {
						pass = compiler.GeneratePragmaEvents
					}
					if _, err := pass(fn, compiler.NewAlloc()); err != nil {
						t.Fatalf("%s: %v", v, err)
					}
					if fn.String() == before {
						t.Errorf("%s: the pass left its copy as it was", v)
					}
					sum := sha256.Sum256([]byte(inst.BuildFn(v).String()))
					if got, want := hex.EncodeToString(sum[:]), pins[b.Name+"@0.022"].IR[v.String()]; got != want {
						t.Errorf("%s: the next copy hashes %s, pinned %s", v, got, want)
					}
				}
			})
		}
	}
}
