package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"eventpf/internal/harness"
	"eventpf/internal/system"
	"eventpf/internal/workloads"
)

// TestEngineFlagPlumbing covers what only the CLI can get wrong about the
// run engines: that -checkpoint-out/-in, -sample* and -slices reach
// harness.Options unchanged. Each invocation's -json output must equal, byte
// for byte, the EncodeResult of the library call it stands for; what those
// results must look like is the harness tests' business.
func TestEngineFlagPlumbing(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "ppfsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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
	} {
		if got := cli(append(c.args, "-json")...); !bytes.Equal(got, c.want) {
			t.Errorf("%s: CLI JSON differs from the library result\n got %s\nwant %s", c.name, got, c.want)
		}
	}

	ckpt := filepath.Join(dir, "hj2.ckpt")
	cli("-checkpoint-out", ckpt, "-checkpoint-ops", "100000")
	resumed, err := exec.Command(bin, "-checkpoint-in", ckpt, "-json").Output()
	if err != nil {
		t.Fatalf("ppfsim -checkpoint-in: %v", err)
	}
	if !bytes.Equal(resumed, serial) {
		t.Error("resumed checkpoint differs from the uninterrupted run")
	}
	if raw, err := os.ReadFile(ckpt); err != nil || !bytes.Contains(raw, []byte(`"warmup_ops": 100000`)) {
		t.Errorf("-checkpoint-ops did not reach the checkpoint file (%v):\n%s", err, raw)
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
