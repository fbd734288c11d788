// Package cmd_test smoke-checks the seven command-line programs as built
// binaries. Each subtest asserts only what the library tests cannot see: that
// flags reach the library, that one program's output is another's valid
// input, and that the daemons come up, serve and drain as processes.
package cmd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"eventpf/internal/harness"
)

var programs = []string{"ppfasm", "ppfload", "ppfserve", "ppfsim", "ppftables", "ppftrace", "ppftracegen"}

// raceBuild reports whether this test binary was built with -race, in which
// case the programs are too: shared state between the adaptive arms, the
// capture sink's goroutine confinement and the servers' handlers are then
// checked by the detector while the smoke runs.
func raceBuild() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

func TestCommands(t *testing.T) {
	dir := t.TempDir()
	build := []string{"build"}
	if raceBuild() {
		build = append(build, "-race")
	}
	build = append(build, "-o", dir+string(filepath.Separator))
	for _, p := range programs {
		build = append(build, "./"+p)
	}
	if out, err := exec.Command("go", build...).CombinedOutput(); err != nil {
		t.Fatalf("go %v: %v\n%s", build, err, out)
	}
	e := env{dir: dir}
	t.Run("trace-export", e.traceExport)
	t.Run("scheme-registry", e.schemeRegistry)
	t.Run("fig12-determinism", e.fig12Determinism)
	t.Run("adaptive-switches", e.adaptiveSwitches)
	t.Run("trace-replay", e.traceReplay)
	t.Run("serve", e.serve)
	t.Run("daemon-flags", e.daemonFlags)
	t.Run("load-usage", e.loadUsage)
	t.Run("asm-kernel", e.asmKernel)
}

// TestBenchmarkModuleBuilds type-checks the layered benchmark: it is a module
// of its own (its go.mod holds only the replace onto this one, so no network),
// which ./... does not reach, and it compiles against internal packages — a
// change that passes every test here can still break it.
func TestBenchmarkModuleBuilds(t *testing.T) {
	cmd := exec.Command("go", "vet", ".")
	cmd.Dir = filepath.Join("..", "benchmark")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("(cd benchmark && go vet .): %v\n%s", err, out)
	}
}

// env is the directory holding the built programs (and the subtests' files).
type env struct{ dir string }

// run executes a built program to completion and returns its stdout.
func (e env) run(t *testing.T, prog string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(filepath.Join(e.dir, prog), args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", prog, args, err, stderr.Bytes())
	}
	return out
}

// traceExport: ppfsim -trace-out writes a Chrome trace with events in it, and
// ppftrace accepts the file.
func (e env) traceExport(t *testing.T) {
	t.Parallel()
	path := filepath.Join(e.dir, "t.json")
	e.run(t, "ppfsim", "-bench", "HJ-2", "-scheme", "manual", "-scale", "0.05", "-trace-out", path, "-metrics")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace export: %d events, err %v", len(doc.TraceEvents), err)
	}
	e.run(t, "ppftrace", path)
}

// schemeRegistry: the CLIs' scheme menu and the Figure 7 columns both come
// from the scheme registry.
func (e env) schemeRegistry(t *testing.T) {
	t.Parallel()
	var listed []string
	for _, line := range strings.Split(strings.TrimSpace(string(e.run(t, "ppfsim", "-list-schemes"))), "\n") {
		listed = append(listed, strings.Fields(line)[0])
	}
	if want := harness.SchemeNames(); !reflect.DeepEqual(listed, want) {
		t.Errorf("ppfsim -list-schemes column 1 = %v, registry = %v", listed, want)
	}
	header := strings.Fields(strings.Split(string(e.run(t, "ppftables", "-exp", "fig7", "-scale", "0.01")), "\n")[1])
	var want []string
	for _, sch := range harness.Schemes {
		want = append(want, sch.String())
	}
	if !reflect.DeepEqual(header[1:], want) {
		t.Errorf("fig7 header columns = %v, Figure 7 schemes = %v", header[1:], want)
	}
}

// tableBody drops ppftables' `== id (scale, wall time) ==` header lines.
func tableBody(out []byte) string {
	var body []string
	for _, line := range strings.Split(string(out), "\n") {
		if !strings.HasPrefix(line, "==") {
			body = append(body, line)
		}
	}
	return strings.Join(body, "\n")
}

// fig12Determinism: the adaptive controller's policy has no randomness, so
// two processes print the same Figure 12, PhaseMix and geomean rows included.
func (e env) fig12Determinism(t *testing.T) {
	t.Parallel()
	a := tableBody(e.run(t, "ppftables", "-exp", "fig12", "-scale", "0.01"))
	b := tableBody(e.run(t, "ppftables", "-exp", "fig12", "-scale", "0.01"))
	if a != b {
		t.Errorf("two fig12 runs differ:\n%s\n---\n%s", a, b)
	}
	for _, row := range []string{"\nPhaseMix", "\ngeomean"} {
		if !strings.Contains(a, row) {
			t.Errorf("fig12 has no %q row:\n%s", row[1:], a)
		}
	}
}

// adaptiveSwitches: a single adaptive run is reproducible across processes
// and actually changes arms.
func (e env) adaptiveSwitches(t *testing.T) {
	t.Parallel()
	args := []string{"-bench", "PhaseMix", "-scheme", "adaptive", "-scale", "0.02", "-json"}
	a, b := e.run(t, "ppfsim", args...), e.run(t, "ppfsim", args...)
	if !bytes.Equal(a, b) {
		t.Error("two adaptive runs differ")
	}
	var res harness.Result
	if err := json.Unmarshal(a, &res); err != nil {
		t.Fatal(err)
	}
	if res.Adaptive == nil || res.Adaptive.Switches < 1 {
		t.Errorf("Adaptive = %+v, want at least one switch", res.Adaptive)
	}
}

// traceReplay: a ppftracegen capture replayed by ppfsim -trace-in equals the
// direct simulation under every non-programmable scheme tried, except for the
// benchmark's name.
func (e env) traceReplay(t *testing.T) {
	t.Parallel()
	path := filepath.Join(e.dir, "randacc.ppft.gz")
	e.run(t, "ppftracegen", "-bench", "RandAcc", "-scale", "0.05", "-o", path)
	for _, scheme := range []string{"stride", "rpt", "ghb-delta"} {
		var replay, direct map[string]any
		if err := json.Unmarshal(e.run(t, "ppfsim", "-trace-in", path, "-scheme", scheme, "-json"), &replay); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(e.run(t, "ppfsim", "-bench", "RandAcc", "-scale", "0.05", "-scheme", scheme, "-json"), &direct); err != nil {
			t.Fatal(err)
		}
		delete(replay, "Benchmark")
		delete(direct, "Benchmark")
		if len(direct) == 0 || !reflect.DeepEqual(replay, direct) {
			t.Errorf("%s: replayed run differs from direct simulation", scheme)
		}
	}
}

// daemon is a started ppfserve process; its output goes to the file logPath.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	logPath string
}

// log returns what the process has printed so far, for failure messages.
func (d *daemon) log() string {
	out, _ := os.ReadFile(d.logPath) // best effort: it only decorates a failure
	return string(out)
}

// start launches ppfserve on a port picked free at run time and waits until
// it answers. The process is killed when the test ends, if still running.
func (e env) start(t *testing.T, args ...string) *daemon {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	d := &daemon{url: "http://" + addr, logPath: filepath.Join(e.dir, "ppfserve-"+addr+".log")}
	logFile, err := os.Create(d.logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close() // the child keeps its own descriptor
	d.cmd = exec.Command(filepath.Join(e.dir, "ppfserve"), append([]string{"-addr", addr}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = logFile, logFile
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	d.waitReady(t)
	return d
}

// fetch GETs path and returns the status code and body.
func (d *daemon) fetch(path string) (int, string, error) {
	resp, err := http.Get(d.url + path)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	_, err = body.ReadFrom(resp.Body)
	return resp.StatusCode, body.String(), err
}

// waitReady polls /metrics until it answers 200.
func (d *daemon) waitReady(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if code, _, err := d.fetch("/metrics"); err == nil && code == http.StatusOK {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s/metrics not ready after 30s\n%s", d.url, d.log())
}

// terminate sends SIGTERM and requires a graceful drain: exit status 0.
func (d *daemon) terminate(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Errorf("ppfserve did not drain cleanly on SIGTERM: %v\n%s", err, d.log())
	}
}

func (d *daemon) get(t *testing.T, path string) string {
	t.Helper()
	code, body, err := d.fetch(path)
	if err != nil || code != http.StatusOK {
		t.Fatalf("GET %s: status %d, %v\n%s", path, code, err, body)
	}
	return body
}

// submitted is the part of a POST /jobs answer the smoke checks read.
type submitted struct {
	Key    string          `json:"key"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

func (d *daemon) post(t *testing.T, path, spec string) submitted {
	t.Helper()
	resp, err := http.Post(d.url+path, "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s submitted
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s %s: %s, %v", path, spec, resp.Status, err)
	}
	return s
}

// duplicate submits one config under two spellings and requires the second
// answer to be a cache hit on the same key carrying the same result bytes.
func (d *daemon) duplicate(t *testing.T) {
	t.Helper()
	first := d.post(t, "/jobs?wait=1", `{"bench":"HJ-2","scheme":"stride","scale":0.02}`)
	second := d.post(t, "/jobs", `{"bench":"hj2","scheme":"stride","scale":0.02}`)
	if !second.Cached || second.Key != first.Key {
		t.Errorf("respelled duplicate: cached=%v key=%s, want a hit on %s", second.Cached, second.Key, first.Key)
	}
	if len(first.Result) == 0 || !bytes.Equal(first.Result, second.Result) {
		t.Error("the duplicate was served different result bytes")
	}
}

// load drives a duplicate-heavy ppfload mix; -assert makes it exit nonzero
// when a request fails, the hit rate is under one half or a duplicate was
// simulated again.
func (e env) load(t *testing.T, d *daemon, n int) {
	t.Helper()
	e.run(t, "ppfload", "-addr", d.url, "-n", fmt.Sprint(n), "-c", "4", "-dup", "0.5",
		"-bench", "HJ-2,RandAcc", "-scheme", "stride,ghb-regular", "-scale", "0.02", "-assert", "0.5")
}

func hasLine(text, prefix string) bool {
	return strings.HasPrefix(text, prefix) || strings.Contains(text, "\n"+prefix)
}

// serve: one ppfserve process answers a duplicate from its cache, survives a
// duplicate-heavy load, exposes server and simulator metrics, and drains on
// the first SIGTERM.
func (e env) serve(t *testing.T) {
	t.Parallel()
	d := e.start(t, "-workers", "2", "-queue", "16")
	d.duplicate(t)
	e.load(t, d, 20)
	metrics := d.get(t, "/metrics")
	for _, prefix := range []string{"ppfserve_cache_hits", "sim_"} {
		if !hasLine(metrics, prefix) {
			t.Errorf("/metrics has no %s line:\n%s", prefix, metrics)
		}
	}
	d.terminate(t)
}

// daemonFlags pins the two daemons' flag sets, as TestFlagSurface pins
// ppfsim's: a new flag must be added here.
func (e env) daemonFlags(t *testing.T) {
	t.Parallel()
	for prog, want := range map[string][]string{
		"ppfserve": {"addr", "cache", "cache-mb", "default-scale", "max-scale", "queue", "workers"},
		"ppfload":  {"addr", "assert", "bench", "c", "dup", "n", "rps", "scale", "scheme", "seed"},
	} {
		help, _ := exec.Command(filepath.Join(e.dir, prog), "-h").CombinedOutput() // -h exits 0 or 2 by Go version
		var got []string
		for _, line := range strings.Split(string(help), "\n") {
			if name, ok := strings.CutPrefix(line, "  -"); ok {
				got = append(got, strings.Fields(name)[0])
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s -h lists %d flags, want %d:\n got %v\nwant %v", prog, len(got), len(want), got, want)
		}
	}
	// A scale flag harness.CheckScale refuses is a usage error: -max-scale
	// NaN once turned the cap off.
	for _, args := range [][]string{{"-max-scale", "NaN"}, {"-max-scale", "-1"}, {"-default-scale", "Inf"}, {"-max-scale", "1e300"}} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		cmd := exec.CommandContext(ctx, filepath.Join(e.dir, "ppfserve"), append([]string{"-addr", "127.0.0.1:0"}, args...)...)
		out, _ := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); code != 2 || !strings.Contains(string(out), args[0]) {
			t.Errorf("ppfserve %v: exit %d (deadline: %v), want 2 naming the flag\n%s", args, code, ctx.Err(), out)
		}
		cancel()
	}
	// ppftables refuses the same scales before it builds anything: 1e300
	// once wrapped to a negative int and ran the smallest inputs.
	cmd := exec.Command(filepath.Join(e.dir, "ppftables"), "-exp", "fig7", "-scale", "1e300")
	if out, _ := cmd.CombinedOutput(); cmd.ProcessState.ExitCode() != 2 || !strings.Contains(string(out), "scale 1e+300") {
		t.Errorf("ppftables -scale 1e300: exit %d, want 2 naming the scale\n%s", cmd.ProcessState.ExitCode(), out)
	}
}

// loadUsage: ppfload -c 0 would start no sender and block on its first
// request forever; it is a usage error, refused before any network call.
func (e env) loadUsage(t *testing.T) {
	t.Parallel()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(e.dir, "ppfload"), "-addr", "http://127.0.0.1:1",
		"-n", "2", "-c", "0", "-bench", "HJ-2")
	out, err := cmd.CombinedOutput()
	if code := cmd.ProcessState.ExitCode(); code != 2 || ctx.Err() != nil {
		t.Errorf("ppfload -c 0: exit %d (%v, deadline: %v), want 2\n%s", code, err, ctx.Err(), out)
	}
}

// asmKernel: ppfasm assembles a benchmark's shipped kernel file, the bytes
// RandAcc's manual run registers as its kernel 2.
func (e env) asmKernel(t *testing.T) {
	t.Parallel()
	out := e.run(t, "ppfasm", filepath.Join("..", "internal", "workloads", "kernels", "randacc.2.ppu"))
	if first, _, _ := strings.Cut(string(out), "\n"); !strings.HasPrefix(first, "12 instructions,") {
		t.Errorf("ppfasm randacc.2.ppu: %q, want 12 instructions", first)
	}
}
