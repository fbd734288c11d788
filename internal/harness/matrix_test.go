package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"eventpf/internal/system"
	"eventpf/internal/trace"
	"eventpf/internal/tracein"
	"eventpf/internal/workloads"
)

// The contract matrix states what a run promises as one bench × scheme
// table. Each column is one assertion, run by one top-level test (so -run
// picks a column by name) as a parallel subtest per cell. Each cell is
// simulated once per scale and observer (at), and every column that needs
// that run reads it.

// update rewrites every pin the matrix reads instead of checking it:
//
//	go test ./internal/harness -run 'TestGoldenResults|TestApproxEngineGoldens|TestOpStreamPinned|TestTraceEventSequencePinned' -update
//
// Only when a change is meant to move simulated behaviour: performance work
// must not move a byte of any pin.
var update = flag.Bool("update", false, "rewrite the contract matrix's pins in testdata")

const (
	goldenScale    = 0.05 // result bytes, fork, slices and sampling
	traceHashScale = 0.02 // op and event hashes, replay
	testScale      = 0.04 // oracle, suite and determinism
	speedupScale   = 0.12 // manual ≥ 1.1× no-pf
)

// sampling is the SMARTS plan of every sampled run in this package.
var sampling = system.SampleConfig{WarmupOps: 1_000, MeasureOps: 4_000, FFOps: 15_000}

// col marks a column on a cell; refuses marks a cell whose run must return
// ErrUnsupported.
type col uint32

const (
	golden   col = 1 << iota // result bytes == golden_<bench>_<scheme>.json
	fork                     // two forks at a third of the run and the resumed parent == straight-through
	slices01                 // Slices 0 and 1 == the serial run
	sliced                   // Slices 4: deterministic, every op once, cycles within 2 % of serial
	approx                   // Slices-4 and sampled result bytes == approx_<bench>_<scheme>_*.json
	sampled                  // sampled: every op executed, cycles estimated within 35 % of serial
	ops                      // hash of the dispatched op stream == op_hashes.json
	events                   // hash of every traced event == trace_hashes.json, and traced == plain
	replay                   // replay of the bench's no-pf capture == the direct run
	oracle                   // runs and passes the benchmark's oracle
	ledger                   // every prefetch, translation and DRAM access is counted once where it ends
	suite                    // a wide parallel Suite's result == the serial run
	twice                    // a second run == the first
	speedup                  // manual ≥ 1.1× no-pf
	refuses                  // Run returns ErrUnsupported
)

type cols = [numSchemes]col

// matrix has one row per bench, marking the columns of its cells beyond
// those matrixCells derives: every cell of a menu bench carries oracle, and
// each of those that runs carries ledger; golden implies fork and suite implies twice; each Table-2 bench's manual
// cell carries speedup; "B-replay" is the replay of B's no-pf capture, and
// its cells under every scheme that runs the plain build with no kernels
// carry replay; a scheme that no fork or events cell reaches gets that
// column on HJ-2. So a new scheme reaches oracle, fork and events with no
// edit here, and a new bench is one row.
var matrix = []struct {
	bench string
	cols  cols
}{
	{"G500-CSR", cols{NoPF: ops | suite, Stride: suite, Manual: ops | suite, ManualBlocked: golden | sliced | events}},
	{"G500-List", cols{NoPF: ops, Manual: golden | ops}},
	{"HJ-2", cols{NoPF: golden | ops | suite, Stride: suite, GHBRegular: golden | twice, GHBLarge: golden | twice,
		Software: golden | ops, Pragma: golden | ops, Converted: golden | ops | twice,
		Manual: golden | ops | events | slices01 | sliced | approx | sampled | suite}},
	{"HJ-8", cols{NoPF: ops, Manual: golden | ops}},
	{"PageRank", cols{NoPF: ops, Manual: golden | ops, Software: refuses, Converted: refuses}},
	{"RandAcc", cols{NoPF: ops | suite, Stride: golden | sliced | approx | suite, Manual: ops | suite,
		RPT: golden, GHBDelta: golden, TSKID: golden}},
	{"IntSort", cols{NoPF: ops, Manual: golden | ops}},
	{"ConjGrad", cols{NoPF: ops, Manual: golden | ops}},
	{"PhaseMix", cols{Software: refuses, Pragma: refuses, Converted: refuses, Adaptive: events}},
	{"SpMV", cols{NoPF: ops, Manual: golden | ops, Software: refuses, Pragma: refuses, Converted: refuses}},
	{"BTree", cols{NoPF: ops, Stride: golden, Software: refuses, Pragma: refuses, Converted: refuses,
		Manual: refuses, ManualBlocked: refuses}},
	{"HotCold", cols{NoPF: ops, Manual: golden | ops, Software: refuses, Pragma: refuses, Converted: refuses}},
	{"RandAcc-replay", cols{Stride: events | sampled, GHBRegular: sliced | twice}},
	{"HJ-2-replay", cols{}},
}

type cell struct {
	bench  string
	scheme Scheme
	cols   col
}

func (c cell) name() string { return c.bench + "/" + c.scheme.String() }

func (c cell) key(scale float64, m mode) runKey { return runKey{c.bench, c.scheme, scale, m} }

// matrixCells expands matrix: the menu's benches in menu order, then the
// replay rows. A malformed row panics.
var matrixCells = sync.OnceValue(func() []cell {
	rows, names, table2 := map[string]cols{}, workloads.MenuNames(), workloads.Names()
	for _, r := range matrix {
		base, isReplay := strings.CutSuffix(r.bench, "-replay")
		if _, dup := rows[r.bench]; dup || !slices.Contains(names, base) {
			panic("matrix: a second row, or no benchmark on the menu, for " + r.bench)
		}
		if rows[r.bench] = r.cols; isReplay {
			names = append(names, r.bench)
		}
	}
	var cells []cell
	reached := map[col]map[Scheme]bool{fork: {}, events: {}}
	for _, bench := range names {
		_, isReplay := strings.CutSuffix(bench, "-replay")
		for _, s := range AllSchemes {
			c, info := cell{bench, s, rows[bench][s]}, schemeInfos[s]
			if c.cols&refuses != 0 && c.cols != refuses {
				panic("matrix: " + c.name() + " refuses yet carries columns")
			}
			if c.cols&golden != 0 {
				c.cols |= fork
			}
			if c.cols&suite != 0 {
				c.cols |= twice
			}
			if !isReplay {
				c.cols |= oracle
				if c.cols&refuses == 0 {
					c.cols |= ledger
				}
			} else if info.Variant == workloads.Plain && info.Pass == nil && !info.Manual {
				c.cols |= replay
			}
			if s == Manual && slices.Contains(table2, bench) {
				c.cols |= speedup
			}
			for k, schemes := range reached {
				schemes[s] = schemes[s] || c.cols&k != 0
			}
			cells = append(cells, c)
		}
	}
	for i, c := range cells {
		for k, schemes := range reached {
			if c.bench == "HJ-2" && !schemes[c.scheme] {
				cells[i].cols |= k
			}
		}
	}
	return cells
})

// cellsWith returns the cells that carry k, in matrix order.
func cellsWith(k col) []cell {
	return slices.DeleteFunc(slices.Clone(matrixCells()), func(c cell) bool { return c.cols&k == 0 })
}

// column is one assertion of the matrix. A pinned column's check returns the
// bytes its pin holds for the cell.
type column struct {
	col   col
	test  string // the top-level test that runs it
	sub   string // appended to the cell's subtest name where two columns share a test
	scale float64
	pin   pin
	check func(t *testing.T, c cell, scale float64) []byte
}

var columns = []column{
	{golden, "TestGoldenResults", "", goldenScale, goldenPin, func(t *testing.T, c cell, scale float64) []byte {
		return mustAt(t, c.key(scale, plain)).enc
	}},
	{fork, "TestForkMatchesStraightThrough", "", goldenScale, "", checkFork},
	{slices01, "TestTimeParallelSerialOptionByteStable", "", goldenScale, "", func(t *testing.T, c cell, scale float64) []byte {
		for k, m := range []mode{plain, oneSlice} {
			if !bytes.Equal(again(t, c.key(scale, m)), mustAt(t, c.key(scale, plain)).enc) {
				t.Errorf("Slices=%d result differs from the serial run", k)
			}
		}
		return nil
	}},
	{sliced, "TestTimeParallelGoldenPairs", "", goldenScale, "", checkSliced},
	{approx, "TestApproxEngineGoldens", "/slices4", goldenScale, "approx_*_slices4.json", func(t *testing.T, c cell, scale float64) []byte {
		return mustAt(t, c.key(scale, slicesMode)).enc
	}},
	{approx, "TestApproxEngineGoldens", "/sampled", goldenScale, "approx_*_sampled.json", func(t *testing.T, c cell, scale float64) []byte {
		return mustAt(t, c.key(scale, sampledMode)).enc
	}},
	{sampled, "TestSampledRunCPIError", "", goldenScale, "", checkSampled},
	{ops, "TestOpStreamPinned", "", traceHashScale, "op_hashes.json", func(t *testing.T, c cell, scale float64) []byte {
		return mustAt(t, c.key(scale, opsMode)).hash
	}},
	{events, "TestTraceEventSequencePinned", "", traceHashScale, "trace_hashes.json", func(t *testing.T, c cell, scale float64) []byte {
		traced := mustAt(t, c.key(scale, eventsMode))
		if !bytes.Equal(traced.enc, mustAt(t, c.key(scale, plain)).enc) {
			t.Error("the result with a trace sink differs from the result without")
		}
		return traced.hash
	}},
	{replay, "TestCaptureReplayByteIdentity", "", traceHashScale, "", func(t *testing.T, c cell, scale float64) []byte {
		direct := mustAt(t, runKey{strings.TrimSuffix(c.bench, "-replay"), c.scheme, scale, plain}).res.Result
		if replayed := mustAt(t, c.key(scale, plain)).res.Result; !reflect.DeepEqual(direct, replayed) {
			t.Errorf("replayed result differs from the direct run:\ndirect %+v\nreplay %+v", direct, replayed)
		}
		return nil
	}},
	{oracle, "TestEveryBenchmarkEverySchemeComputesCorrectly", "", testScale, "", func(t *testing.T, c cell, scale float64) []byte {
		err, refused := at(c.key(scale, plain)).err, c.cols&refuses != 0
		if refused && !errors.Is(err, ErrUnsupported) || !refused && err != nil {
			t.Errorf("err = %v; the matrix says the cell refuses: %v", err, refused)
		}
		return nil
	}},
	{ledger, "TestPrefetchLedgerBalances", "", testScale, "", checkLedger},
	{suite, "TestParallelSuiteMatchesSerial", "", testScale, "", func(t *testing.T, c cell, scale float64) []byte {
		s, err := wideSuite()
		if err != nil {
			t.Fatal(err)
		}
		b, err := benchOf(c.bench, scale)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(Pair{Bench: b, Scheme: c.scheme}) // a memo hit: wideSuite ran every suite cell
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(t, res), mustAt(t, c.key(scale, plain)).enc) {
			t.Error("the parallel suite's result differs from the serial run")
		}
		return nil
	}},
	{twice, "TestDeterminism", "", testScale, "", func(t *testing.T, c cell, scale float64) []byte {
		if !bytes.Equal(again(t, c.key(scale, plain)), mustAt(t, c.key(scale, plain)).enc) {
			t.Error("two identical runs differ")
		}
		return nil
	}},
	{speedup, "TestManualBeatsNoPFEverywhere", "", speedupScale, "", func(t *testing.T, c cell, scale float64) []byte {
		if testing.Short() {
			t.Skip("directional assertions need a non-trivial scale")
		}
		base, man := mustAt(t, runKey{c.bench, NoPF, scale, plain}).res, mustAt(t, c.key(scale, plain)).res
		if sp := Speedup(base, man); sp < 1.1 {
			t.Errorf("manual speedup %.2fx, want ≥ 1.1x (base %d, manual %d cycles)", sp, base.Cycles, man.Cycles)
		}
		return nil
	}},
}

func TestGoldenResults(t *testing.T)                              { runColumns(t) }
func TestForkMatchesStraightThrough(t *testing.T)                 { runColumns(t) }
func TestTimeParallelSerialOptionByteStable(t *testing.T)         { runColumns(t) }
func TestTimeParallelGoldenPairs(t *testing.T)                    { runColumns(t) }
func TestApproxEngineGoldens(t *testing.T)                        { runColumns(t) }
func TestSampledRunCPIError(t *testing.T)                         { runColumns(t) }
func TestOpStreamPinned(t *testing.T)                             { runColumns(t) }
func TestTraceEventSequencePinned(t *testing.T)                   { runColumns(t) }
func TestCaptureReplayByteIdentity(t *testing.T)                  { runColumns(t) }
func TestEveryBenchmarkEverySchemeComputesCorrectly(t *testing.T) { runColumns(t) }
func TestPrefetchLedgerBalances(t *testing.T)                     { runColumns(t) }
func TestParallelSuiteMatchesSerial(t *testing.T)                 { runColumns(t) }
func TestDeterminism(t *testing.T)                                { runColumns(t) }
func TestManualBeatsNoPFEverywhere(t *testing.T)                  { runColumns(t) }

// runColumns runs the columns of t's name, a parallel subtest per cell. A
// pinned column also fails once per pin with no cell; under -update it
// writes its pins after its last cell instead.
func runColumns(t *testing.T) {
	t.Parallel()
	for _, cl := range columns {
		if cl.test != t.Name() {
			continue
		}
		cells := cellsWith(cl.col)
		var want map[string]json.RawMessage
		var mu sync.Mutex
		got := map[string]json.RawMessage{}
		if cl.pin != "" && *update {
			t.Cleanup(func() {
				if !t.Failed() {
					if err := cl.pin.write(got); err != nil {
						t.Error(err)
					}
				}
			})
		} else if cl.pin != "" {
			var err error
			if want, err = cl.pin.read(); err != nil {
				t.Fatal(err)
			}
			orphans := maps.Clone(want)
			for _, c := range cells {
				delete(orphans, c.name())
			}
			for _, name := range slices.Sorted(maps.Keys(orphans)) {
				t.Errorf("%s pins %s, which is no cell of the column", cl.pin, name)
			}
		}
		for _, c := range cells {
			t.Run(c.name()+cl.sub, func(t *testing.T) {
				t.Parallel()
				b := cl.check(t, c, cl.scale)
				if cl.pin == "" || t.Failed() {
					return
				}
				mu.Lock()
				defer mu.Unlock()
				if w, pinned := want[c.name()]; *update {
					got[c.name()] = b
				} else if !pinned {
					t.Errorf("has no pin in %s: write it with -update", cl.pin)
				} else if !bytes.Equal(b, w) {
					t.Errorf("differs from its pin in %s: -update, then git diff, shows how (commit that only if the change is intended)", cl.pin)
				}
			})
		}
	}
}

// pin names where a column's committed values live in testdata: one file per
// cell, named by putting the cell's <bench>_<scheme> in place of the "*", or
// with no "*", one JSON object keyed by cell name.
type pin string

const goldenPin pin = "golden_*.json"

// read returns every committed value by cell name, a JSON entry compacted.
func (p pin) read() (map[string]json.RawMessage, error) {
	vals := map[string]json.RawMessage{}
	if pre, suf, perCell := strings.Cut(string(p), "*"); perCell {
		paths, err := filepath.Glob(filepath.Join("testdata", string(p)))
		for _, path := range paths {
			name := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), pre), suf)
			if vals[strings.Replace(name, "_", "/", 1)], err = os.ReadFile(path); err != nil {
				break
			}
		}
		return vals, err
	}
	raw, err := os.ReadFile(filepath.Join("testdata", string(p)))
	if err == nil {
		err = json.Unmarshal(raw, &vals)
	}
	for name, e := range vals {
		var b bytes.Buffer
		err = errors.Join(err, json.Compact(&b, e))
		vals[name] = b.Bytes()
	}
	return vals, err
}

// write replaces the pins of the cells in got.
func (p pin) write(got map[string]json.RawMessage) error {
	if strings.Contains(string(p), "*") {
		for name, b := range got {
			path := strings.Replace(string(p), "*", strings.Replace(name, "/", "_", 1), 1)
			if err := os.WriteFile(filepath.Join("testdata", path), b, 0o644); err != nil {
				return err
			}
		}
		return nil
	}
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("testdata", string(p)), append(buf, '\n'), 0o644)
}

// mode is how a memoised run was made: its engine and its observer.
type mode uint8

const (
	plain       mode = iota
	oneSlice         // Slices 1
	slicesMode       // Slices 4
	sampledMode      // sampling
	opsMode          // a PPFT capture sink on the op bus
	eventsMode       // a hashing sink on the trace bus
)

type runKey struct {
	bench  string
	scheme Scheme
	scale  float64
	mode   mode
}

type outcome struct {
	res  Result
	enc  []byte // EncodeResult bytes
	hash []byte // the pinned JSON of an opsMode or eventsMode run (simulate)
	path string // a no-pf opsMode run's capture file
	err  error
}

// eventHash is an eventsMode run's sink: an FNV-1a hash over every field of
// every event, in emission order.
type eventHash struct {
	h hash.Hash64
	n int
	b [48]byte
}

func (s *eventHash) Event(e trace.Event) {
	b := s.b[:]
	binary.LittleEndian.PutUint64(b[0:], uint64(e.At))
	binary.LittleEndian.PutUint64(b[8:], uint64(e.Dur))
	binary.LittleEndian.PutUint64(b[16:], e.Addr)
	binary.LittleEndian.PutUint64(b[24:], uint64(e.ID))
	binary.LittleEndian.PutUint32(b[32:], uint32(e.Kind))
	binary.LittleEndian.PutUint32(b[36:], uint32(e.A))
	binary.LittleEndian.PutUint32(b[40:], uint32(e.B))
	binary.LittleEndian.PutUint32(b[44:], uint32(e.C))
	s.h.Write(b)
	s.n++
}

var (
	runs       sync.Map // runKey → *memoRun
	captureDir string   // the memoised captures, removed by TestMain
)

type memoRun struct {
	once sync.Once
	out  outcome
}

func TestMain(m *testing.M) {
	var err error
	if captureDir, err = os.MkdirTemp("", "harness-captures"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(captureDir)
	os.Exit(code)
}

// at returns the run of k, simulating it on first use only.
func at(k runKey) *outcome {
	v, _ := runs.LoadOrStore(k, new(memoRun))
	r := v.(*memoRun)
	r.once.Do(func() { r.out = simulate(k) })
	return &r.out
}

func mustAt(t *testing.T, k runKey) *outcome {
	t.Helper()
	out := at(k)
	if out.err != nil {
		t.Fatalf("%s/%s at scale %g: %v", k.bench, k.scheme, k.scale, out.err)
	}
	return out
}

// captureTrace returns the path of b's no-pf op capture at scale.
func captureTrace(t *testing.T, b *workloads.Benchmark, scale float64) string {
	t.Helper()
	return mustAt(t, runKey{b.Name, NoPF, scale, opsMode}).path
}

// benchOf resolves a matrix bench name, "B-replay" to the replay of B's
// no-pf capture at scale.
func benchOf(name string, scale float64) (*workloads.Benchmark, error) {
	if base, ok := strings.CutSuffix(name, "-replay"); ok {
		capture := at(runKey{base, NoPF, scale, opsMode})
		return tracein.Bench(capture.path), capture.err
	}
	return workloads.ByName(name)
}

// again runs k afresh, past the memo, and returns its result bytes.
func again(t *testing.T, k runKey) []byte {
	t.Helper()
	out := simulate(k)
	if out.err != nil {
		t.Fatal(out.err)
	}
	return out.enc
}

// simulate runs k. An opsMode run's pin is how many ops the core was fed and
// the SHA-256 of their PPFT capture (kind, PC, address, dependence distances
// and branch direction of each, in dispatch order; no times); an eventsMode
// run's is how many events its sink saw and their eventHash.
func simulate(k runKey) (out outcome) {
	b, err := benchOf(k.bench, k.scale)
	if err != nil {
		return outcome{err: err}
	}
	opt := Options{Scale: k.scale}
	var (
		capture bytes.Buffer
		ppft    *tracein.Writer
		evs     *eventHash
	)
	switch k.mode {
	case oneSlice:
		opt.Slices = 1
	case slicesMode:
		opt.Slices = 4
	case sampledMode:
		sc := sampling
		opt.Sample = &sc
	case opsMode:
		ppft = tracein.NewWriter(&capture, tracein.Meta{Bench: b.Name, Scale: k.scale, Tool: "test"})
		opt.OpSink = ppft
	case eventsMode:
		evs = &eventHash{h: fnv.New64a()}
		opt.TraceSink = evs
	}
	if out.res, out.err = Run(b, k.scheme, opt); out.err != nil {
		return out
	}
	switch k.mode {
	case opsMode:
		if out.err = ppft.Close(); out.err != nil {
			return out
		}
		out.hash = fmt.Appendf(nil, `{"Ops":%d,"SHA256":"%x"}`, ppft.Count(), sha256.Sum256(capture.Bytes()))
		if k.scheme == NoPF {
			out.path = filepath.Join(captureDir, fmt.Sprintf("%s-%g.ppft", k.bench, k.scale))
			if out.err = os.WriteFile(out.path, capture.Bytes(), 0o644); out.err != nil {
				return out
			}
		}
	case eventsMode:
		out.hash = fmt.Appendf(nil, `{"Events":%d,"Hash":%d}`, evs.n, evs.h.Sum64())
	}
	var buf bytes.Buffer
	out.err = EncodeResult(&buf, out.res)
	out.enc = buf.Bytes()
	return out
}

// checkFork warms c a third of the way and forks it twice with events
// pending; both forks and the resumed parent complete concurrently, so the
// race detector sees any state they share, and each must match the
// straight-through run byte for byte.
func checkFork(t *testing.T, c cell, scale float64) []byte {
	straight := mustAt(t, c.key(scale, plain))
	b, err := benchOf(c.bench, scale)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Warm(b, c.scheme, Options{Scale: scale}, straight.res.Core.Ops/3)
	if err != nil {
		t.Fatal(err)
	}
	if w.Done() || w.Machine().Eng.Pending() == 0 {
		t.Fatal("the run finished, or had no event pending, at the fork point: nothing to test")
	}
	conts := make([]*RunCont, 2)
	for i := range conts {
		if conts[i], err = w.Fork(w.Machine().Cfg); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []*system.Machine{w.Machine(), conts[0].rs.m, conts[1].rs.m} {
		if op, _ := m.Core.Slot(); op.Do != nil {
			t.Error("a paused core's dispatch slot holds a func: the fork's copy would act on the parent")
		}
	}
	results, errs := make([]Result, 3), make([]error, 3)
	var wg sync.WaitGroup
	for i, finish := range []func() (Result, error){conts[0].Finish, conts[1].Finish, w.Resume} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = finish()
		}()
	}
	wg.Wait()
	for i, name := range []string{"fork A", "fork B", "resumed parent"} {
		if errs[i] != nil {
			t.Fatalf("%s: %v", name, errs[i])
		}
		if !bytes.Equal(encode(t, results[i]), straight.enc) {
			t.Errorf("%s: %d cycles, straight-through %d: the result bytes differ", name, results[i].Cycles, straight.res.Cycles)
		}
	}
	return nil
}

// checkLedger reads the oracle's run of c. At drain each prefetch the
// programmable prefetcher or a baseline unit generated is counted once
// more, where it ended; each prefetch a cache level accepted filled a line
// that was then used or evicted dead; and each translation and DRAM access is
// counted once by how it was served (DESIGN §8). Where the programmable
// prefetcher is the L1's only prefetch source, its counters also balance the
// L1's.
func checkLedger(t *testing.T, c cell, scale float64) []byte {
	r := mustAt(t, c.key(scale, plain)).res
	pf, bl, l1, l2 := r.PF, r.Baseline, r.L1, r.L2
	type identity struct {
		name     string
		lhs, rhs int64
	}
	identities := []identity{
		{"PF.PFGenerated == ReqDropped + TLBDrops + MSHRDrops + FillObservations",
			pf.PFGenerated, pf.ReqDropped + pf.TLBDrops + pf.MSHRDrops + pf.FillObservations},
		{"Baseline.Generated == Issued + TLBDrops + QueueDrop + MSHRDrops",
			bl.Generated, bl.Issued + bl.TLBDrops + bl.QueueDrop + bl.MSHRDrops},
		{"L1.PrefetchIssue == PrefetchFills", l1.PrefetchIssue, l1.PrefetchFills},
		{"L1.PrefetchFills == PrefetchUsed + PrefetchDead", l1.PrefetchFills, l1.PrefetchUsed + l1.PrefetchDead},
		{"L2.PrefetchIssue == PrefetchFills", l2.PrefetchIssue, l2.PrefetchFills},
		{"L2.PrefetchFills == PrefetchUsed + PrefetchDead", l2.PrefetchFills, l2.PrefetchUsed + l2.PrefetchDead},
		{"L1.PrefetchIssue == L2.PrefetchHits + L2.PrefetchIssue", l1.PrefetchIssue, l2.PrefetchHits + l2.PrefetchIssue},
		{"TLB.Accesses == L1Hits + L2Hits + Walks", r.TLB.Accesses, r.TLB.L1Hits + r.TLB.L2Hits + r.TLB.Walks},
		{"DRAM.Reads + Writes == RowHits + RowMisses + RowEmpties",
			r.DRAM.Reads + r.DRAM.Writes, r.DRAM.RowHits + r.DRAM.RowMisses + r.DRAM.RowEmpties},
		{"DRAM.Reads == L2.Misses", r.DRAM.Reads, l2.Misses},
	}
	if schemeInfos[c.scheme].Machine == system.Programmable {
		identities = append(identities,
			identity{"L1.PrefetchHits == PF.FillObservations − PF.FillCount", l1.PrefetchHits, pf.FillObservations - pf.FillCount},
			identity{"PF.Issued == PF.FillObservations + L1.PrefetchDrop", pf.Issued, pf.FillObservations + l1.PrefetchDrop})
	}
	for _, id := range identities {
		if id.lhs != id.rhs {
			t.Errorf("%s: %d ≠ %d", id.name, id.lhs, id.rhs)
		}
	}
	return nil
}

// checkSliced: two sliced runs are byte-identical whatever the goroutine
// schedule, every op is detailed in exactly one slice, and the stitched
// cycles are within 2 % of serial.
func checkSliced(t *testing.T, c cell, scale float64) []byte {
	serial, first := mustAt(t, c.key(scale, plain)).res, mustAt(t, c.key(scale, slicesMode))
	if !bytes.Equal(again(t, c.key(scale, slicesMode)), first.enc) {
		t.Error("two sliced runs differ")
	}
	st := first.res.TimeParallel
	if st == nil || st.Slices != 4 {
		t.Fatalf("the run did not take 4 slices: %+v, %q", st, first.res.Fallback)
	}
	var detail int64
	for _, d := range st.DetailOps {
		detail += d
	}
	if detail != serial.Core.Ops || first.res.Core.Ops != serial.Core.Ops {
		t.Errorf("slices detailed %d ops (stitched Core.Ops %d), serial %d", detail, first.res.Core.Ops, serial.Core.Ops)
	}
	if e := relErr(first.res.Cycles, serial.Cycles); e > 0.02 {
		t.Errorf("sliced cycles off by %.2f%% (serial %d, sliced %d), want ≤ 2%%", 100*e, serial.Cycles, first.res.Cycles)
	}
	return nil
}

// checkSampled: the sampled run executes every op, details under 3/4 of
// them, and estimates the cycles within 35 % of the full run's.
func checkSampled(t *testing.T, c cell, scale float64) []byte {
	full, st := mustAt(t, c.key(scale, plain)).res, mustAt(t, c.key(scale, sampledMode)).res.Sampled
	if st == nil {
		t.Fatal("the sampled run reported no sampling stats")
	}
	if st.TotalOps != full.Core.Ops || st.DetailedOps >= st.TotalOps*3/4 {
		t.Errorf("sampling executed %d ops (full run %d), %d of them in detail", st.TotalOps, full.Core.Ops, st.DetailedOps)
	}
	if e := relErr(st.EstimatedCycles, full.Cycles); e > 0.35 {
		t.Errorf("sampled cycle estimate off by %.1f%% (full %d, estimated %d)", 100*e, full.Cycles, st.EstimatedCycles)
	}
	return nil
}

func relErr(got, want int64) float64 {
	e := float64(got-want) / float64(want)
	return max(e, -e)
}

// wideSuite runs every suite cell at once through one Suite of eight workers.
var wideSuite = sync.OnceValues(func() (*Suite, error) {
	s := NewSuite(Options{Scale: testScale, Parallel: 8})
	var pairs []Pair
	for _, c := range cellsWith(suite) {
		b, err := benchOf(c.bench, testScale)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, Pair{Bench: b, Scheme: c.scheme})
	}
	return s, s.Prefetch(pairs)
})
