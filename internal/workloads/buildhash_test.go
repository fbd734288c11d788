package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"eventpf/internal/mem"
	"eventpf/internal/system"
)

// updateBuildHashes rewrites testdata/build_hashes.json. The file pins the
// inputs of the commit that generated it; regenerate only when a change is
// supposed to alter what a benchmark builds.
var updateBuildHashes = flag.Bool("update-build-hashes", false, "rewrite testdata/build_hashes.json")

// buildHashScales are the scales the pin covers: below, at and above the
// scale the harness goldens and ppf-detail use.
var buildHashScales = []float64{0.0066, 0.022, 0.06}

// buildImage is what one Build leaves behind: the SHA-256 of every arena
// region (name, base, size, then every word of its mapped pages), the
// arguments of each run, and the SHA-256 of each variant's printed IR ("" for
// a variant the benchmark lacks).
type buildImage struct {
	Regions map[string]string
	Args    [][]uint64
	IR      map[string]string
}

func imageOf(m *system.Machine, inst *Instance) buildImage {
	img := buildImage{Regions: map[string]string{}, IR: map[string]string{}}
	var w [8]byte
	for _, r := range m.Arena.Regions() {
		h := sha256.New()
		fmt.Fprintf(h, "%s %#x %d\n", r.Name, r.Base, r.Size)
		end := mem.PageAddr(r.End() + mem.PageSize - 1)
		for a := r.Base; a < end; a += 8 {
			binary.LittleEndian.PutUint64(w[:], m.Backing.Read64(a))
			h.Write(w[:])
		}
		img.Regions[r.Name] = hex.EncodeToString(h.Sum(nil))
	}
	for _, run := range inst.Runs {
		img.Args = append(img.Args, run.Args)
	}
	for _, v := range []Variant{Plain, SWPf, Pragma} {
		if fn := inst.BuildFn(v); fn != nil {
			sum := sha256.Sum256([]byte(fn.String()))
			img.IR[v.String()] = hex.EncodeToString(sum[:])
		} else {
			img.IR[v.String()] = ""
		}
	}
	return img
}

// TestBuildImagePinned pins every byte a Build writes into simulated memory,
// the arguments it hands the kernel and the IR of every variant, for every
// menu benchmark at three scales. A change to how a benchmark generates its
// input — where scratch lives, how an oracle is computed — must leave all of
// it as it was.
func TestBuildImagePinned(t *testing.T) {
	path := filepath.Join("testdata", "build_hashes.json")
	want := map[string]buildImage{}
	if !*updateBuildHashes {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]buildImage{}
	for _, b := range Menu() {
		for _, scale := range buildHashScales {
			key := fmt.Sprintf("%s@%g", b.Name, scale)
			m := system.New(system.DefaultConfig(), system.NoPF)
			got[key] = imageOf(m, b.Build(m, scale))
			m.Release()
			if w, ok := want[key]; !*updateBuildHashes && !reflect.DeepEqual(w, got[key]) {
				t.Errorf("%s: build image differs from the pin (pinned: %v)", key, ok)
				for name, h := range got[key].Regions {
					if w.Regions[name] != h {
						t.Errorf("%s: region %s = %s, pinned %s", key, name, h, w.Regions[name])
					}
				}
			}
		}
	}
	if *updateBuildHashes {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if len(got) != len(want) {
		t.Errorf("%d builds ran, %d are pinned", len(got), len(want))
	}
}
