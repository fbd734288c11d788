package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"eventpf/internal/harness"
	"eventpf/internal/system"
	"eventpf/internal/workloads"
)

// build compiles ppfsim into a directory the test owns and returns the
// binary's path and that directory.
func build(t *testing.T) (bin, dir string) {
	t.Helper()
	dir = t.TempDir()
	bin = filepath.Join(dir, "ppfsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin, dir
}

// TestEngineFlagPlumbing covers what only the CLI can get wrong about the
// run engines and the prefetcher sizing: that -sample*, -slices, -ppus and
// -ppu-mhz reach harness.Options unchanged. Each invocation's -json output
// must equal, byte for byte, the EncodeResult of the library call it stands
// for; what those results must look like is the harness tests' business.
func TestEngineFlagPlumbing(t *testing.T) {
	bin, dir := build(t)
	base := []string{"-bench", "HJ-2", "-scheme", "manual", "-scale", "0.05"}
	cli := func(args ...string) []byte {
		t.Helper()
		cmd := exec.Command(bin, append(base[:len(base):len(base)], args...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("ppfsim %v: %v\n%s", args, err, stderr.Bytes())
		}
		return out
	}
	lib := func(opt harness.Options) []byte {
		t.Helper()
		opt.Scale = 0.05
		res, err := harness.Run(workloads.HJ2, harness.Manual, opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := harness.EncodeResult(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	serial := lib(harness.Options{})
	sample := system.SampleConfig{WarmupOps: 1_000, MeasureOps: 4_000, FFOps: 15_000}
	for _, c := range []struct {
		name string
		args []string
		want []byte
	}{
		{"serial", nil, serial},
		{"slices0", []string{"-slices", "0"}, serial},
		{"slices4", []string{"-slices", "4"}, lib(harness.Options{Slices: 4})},
		{"sampled", []string{"-sample", "-sample-warm", "1000", "-sample-measure", "4000", "-sample-ff", "15000"},
			lib(harness.Options{Sample: &sample})},
		{"sizing", []string{"-ppus", "6", "-ppu-mhz", "500"}, lib(harness.Options{PPUs: 6, PPUMHz: 500})},
	} {
		if got := cli(append(c.args, "-json")...); !bytes.Equal(got, c.want) {
			t.Errorf("%s: CLI JSON differs from the library result\n got %s\nwant %s", c.name, got, c.want)
		}
	}

	// -json keeps stdout pure JSON but must not drop the observers the run
	// paid for: the trace file is written and the registry goes to stderr.
	tracePath := filepath.Join(dir, "hj2.trace.json")
	cmd := exec.Command(bin, append(base[:len(base):len(base)], "-json", "-trace-out", tracePath, "-metrics")...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	observed, err := cmd.Output()
	if err != nil {
		t.Fatalf("ppfsim -json -trace-out -metrics: %v\n%s", err, stderr.Bytes())
	}
	if !bytes.Equal(observed, serial) {
		t.Errorf("-json with observers: stdout is not the plain result\n got %s\nwant %s", observed, serial)
	}
	var chrome struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if raw, err := os.ReadFile(tracePath); err != nil {
		t.Errorf("-json -trace-out wrote no trace: %v", err)
	} else if err := json.Unmarshal(raw, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
		t.Errorf("-json -trace-out: %d trace events, err %v", len(chrome.TraceEvents), err)
	}
	for _, want := range []string{"trace: ", "metrics:", "pf/obs-queue-depth"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("-json -metrics: stderr lacks %q:\n%s", want, stderr.String())
		}
	}

	// The text form names the reason when part of the request was not honoured.
	if text := cli("-sample", "-slices", "4"); !strings.Contains(string(text), "sampling is set") {
		t.Errorf("text output does not print the fallback reason:\n%s", text)
	}
}

// TestBaseline: -baseline is the measured run plus one bare no-pf run, two
// harness.Run calls whose order cannot show. The printed baseline figures
// equal the library's, -parallel 1 and the default print the same bytes, and
// the observers see the measured run only: the exported trace is, byte for
// byte, that of the same command without -baseline.
func TestBaseline(t *testing.T) {
	bin, dir := build(t)
	cli := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(bin, append([]string{"-bench", "HJ-2", "-scheme", "manual", "-scale", "0.05"}, args...)...)
		cmd.Dir = dir // -trace-out paths are relative, so stdout names the same file every time
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("ppfsim %v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	measured, err := harness.Run(workloads.HJ2, harness.Manual, harness.Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	noPF, err := harness.Run(workloads.HJ2, harness.NoPF, harness.Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	concurrent := cli("-baseline")
	want := fmt.Sprintf("\nno-pf cycles   %12d\nspeedup        %12.2fx\n", noPF.Cycles, harness.Speedup(noPF, measured))
	if plain := cli(); concurrent != plain+want {
		t.Errorf("-baseline is not the plain report followed by the two library runs' figures %q:\n%s\nplain:\n%s", want, concurrent, plain)
	}
	if serial := cli("-baseline", "-parallel", "1"); serial != concurrent {
		t.Errorf("-parallel 1 prints different bytes:\n%s\ndefault:\n%s", serial, concurrent)
	}

	readTrace := func() []byte {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join(dir, "t.json"))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	alone := cli("-trace-out", "t.json", "-metrics")
	aloneTrace := readTrace()
	both := cli("-trace-out", "t.json", "-metrics", "-baseline")
	if both != alone+want {
		t.Errorf("-baseline changed what the observers report (event count, registry):\n%s\nwithout:\n%s", both, alone)
	}
	if !strings.Contains(alone, "simulator events exported") || !bytes.Equal(readTrace(), aloneTrace) {
		t.Error("-baseline -trace-out exported a different trace than the same run without -baseline")
	}
}

// TestFlagSurface pins the flag set: a new flag has to be added here too, so
// the surface cannot regrow unnoticed.
func TestFlagSurface(t *testing.T) {
	bin, _ := build(t)
	help, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits 0 or 2 by Go version; the text is what matters
	var got []string
	for _, line := range strings.Split(string(help), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(name)[0])
		}
	}
	want := []string{
		"baseline", "bench", "cpuprofile", "json", "list", "list-benches", "list-schemes",
		"memprofile", "metrics", "parallel", "ppu-mhz", "ppus", "sample", "sample-ff",
		"sample-measure", "sample-warm", "scale", "scheme", "slices", "trace", "trace-in", "trace-out",
	}
	if !slices.Equal(got, want) {
		t.Errorf("ppfsim -h lists %d flags, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
	}
}

// TestFailingRuns: a command line that cannot be honoured exits 2, a run
// that fails exits 1, and either way the profiles asked for are complete
// files (gzip streams that read to the end), not what os.Exit left behind.
func TestFailingRuns(t *testing.T) {
	bin, dir := build(t)
	for _, c := range []struct {
		name string
		args []string
		exit int
		want string // on stderr
	}{
		{"baseline-json", []string{"-baseline", "-json"}, 2, "-baseline and -json"},
		{"unknown-bench", []string{"-bench", "nosuch"}, 2, "nosuch"},
		{"unknown-scheme", []string{"-scheme", "nosuch"}, 2, "unknown scheme"},
		{"ppu-clock-not-a-divisor", []string{"-ppu-mhz", "333"}, 2, "333 MHz"},
		{"missing-trace", []string{"-scheme", "stride", "-trace-in", filepath.Join(dir, "absent.ppft")}, 1, "absent.ppft"},
		// Each once simulated the smallest input and exited 0.
		{"scale-nan", []string{"-bench", "HJ-2", "-scheme", "no-pf", "-scale", "NaN"}, 2, "scale NaN"},
		{"scale-negative", []string{"-bench", "HJ-2", "-scheme", "no-pf", "-scale", "-1"}, 2, "scale -1"},
		// Once wrapped to a negative int and ran the smallest input.
		{"scale-huge", []string{"-bench", "HJ-2", "-scheme", "no-pf", "-scale", "1e300"}, 2, "scale 1e+300"},
	} {
		cpu, heap := filepath.Join(dir, c.name+".cpu"), filepath.Join(dir, c.name+".heap")
		// The row's own flags come last, so a row's -scale wins over this one.
		cmd := exec.Command(bin, append([]string{"-scale", "0.02", "-cpuprofile", cpu, "-memprofile", heap}, c.args...)...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != c.exit {
			t.Errorf("%s: err = %v, want exit status %d\n%s", c.name, err, c.exit, stderr.Bytes())
		}
		if !strings.Contains(stderr.String(), c.want) || stdout.Len() != 0 {
			t.Errorf("%s: stderr lacks %q or stdout is not empty:\nstderr: %s\nstdout: %s", c.name, c.want, stderr.Bytes(), stdout.Bytes())
		}
		for _, path := range []string{cpu, heap} {
			f, err := os.Open(path)
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
				continue
			}
			zr, err := gzip.NewReader(f)
			if err == nil {
				_, err = io.Copy(io.Discard, zr)
			}
			f.Close()
			if err != nil {
				t.Errorf("%s: %s is not a complete profile: %v", c.name, filepath.Base(path), err)
			}
		}
	}
}
