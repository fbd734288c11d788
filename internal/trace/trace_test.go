package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestEmitDisabledZeroAllocs(t *testing.T) {
	var bus *Bus // the disabled bus is the nil bus
	ev := Event{At: 100, Kind: PFGenerate, Addr: 0x1000, ID: 7, A: 1, B: 2, C: 3}
	if n := testing.AllocsPerRun(1000, func() { bus.Emit(ev) }); n != 0 {
		t.Errorf("disabled bus: %v allocs/event, want 0", n)
	}
}

func TestEmitRingSinkZeroAllocs(t *testing.T) {
	bus := NewBus(NewRing(64))
	ev := Event{At: 100, Kind: PFIssue, Addr: 0x1000, ID: 7}
	if n := testing.AllocsPerRun(1000, func() { bus.Emit(ev) }); n != 0 {
		t.Errorf("ring-sink bus: %v allocs/event, want 0", n)
	}
}

func TestRingKeepsLastN(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Event(Event{At: int64(i)})
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("retained %d events, want 4", len(ev))
	}
	for i, e := range ev {
		if e.At != int64(6+i) {
			t.Errorf("event %d at %d, want %d (oldest first)", i, e.At, 6+i)
		}
	}
}

func TestBusFansOutToAllSinks(t *testing.T) {
	a, b := NewCollector(), NewCollector()
	bus := NewBus(a)
	bus.Attach(b)
	bus.Emit(Event{Kind: PFFlush})
	if len(a.Events()) != 1 || len(b.Events()) != 1 {
		t.Errorf("sinks saw %d/%d events, want 1/1", len(a.Events()), len(b.Events()))
	}
}

func TestRegistryCountersAndHists(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pf/drops")
	c.Inc()
	c.Add(2)
	if c.N != 3 {
		t.Errorf("counter = %d, want 3", c.N)
	}
	if r.Counter("pf/drops") != c {
		t.Error("Counter did not return the existing counter")
	}
	h := r.Hist("pf/req-queue-depth", 8)
	for _, v := range []int{0, 1, 1, 2, 100} {
		h.Observe(v)
	}
	if h.N != 5 || h.Clamped != 1 {
		t.Errorf("hist N=%d clamped=%d, want 5, 1", h.N, h.Clamped)
	}
	if h.Max() != 8 {
		t.Errorf("hist max = %d, want 8 (clamped)", h.Max())
	}
	if got := h.Quantile(0.5); got != 1 {
		t.Errorf("p50 = %d, want 1", got)
	}
	out := r.Format()
	for _, want := range []string{"pf/drops", "pf/req-queue-depth", "p50"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format() missing %q:\n%s", want, out)
		}
	}
}

func TestNilMetricsHandlesAreFree(t *testing.T) {
	var c *Counter
	var h *Hist
	if n := testing.AllocsPerRun(100, func() { c.Inc(); h.Observe(3) }); n != 0 {
		t.Errorf("nil metric handles allocated %v/op", n)
	}
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Error("nil hist accessors should return zero")
	}
}

func TestWriteChromeProducesValidJSON(t *testing.T) {
	events := []Event{
		{At: 0, Kind: PFObserve, Addr: 0x1000, A: 1},
		{At: 16, Kind: PFKernel, Addr: 0x1000, A: 1, C: 0},
		{At: 20, Kind: PFGenerate, Addr: 0x1040, ID: 0, A: 1, B: 2, C: 0},
		{At: 24, Kind: PFEnqueue, ID: 0, A: 1},
		{At: 30, Kind: PFIssue, ID: 0},
		{At: 32, Kind: PFUnitFree, C: 0},
		{At: 40, Kind: CacheMiss, Addr: 0x1040, A: 1, B: 0, C: 0, ID: 0x1040},
		{At: 50, Kind: DRAMAccess, Addr: 0x1040, A: 3, B: RowMiss, Dur: 420},
		{At: 60, Kind: TLBWalk, Addr: 0x1000, A: 0, B: 1, Dur: 300},
		{At: 500, Kind: CacheFill, Addr: 0x1040, A: 1, B: 0, ID: 0x1040},
		{At: 500, Kind: PFFill, ID: 0, A: 2, B: 1},
		{At: 510, Kind: CoreStall, A: StallLQ},
		{At: 600, Kind: CoreStallEnd, A: StallLQ},
		{At: 620, Kind: AdaptiveSwitch, A: 0, B: 4, C: SwitchSweep},
		{At: 640, Kind: AdaptiveIdleDemote, A: 4, B: 300},
	}
	lay := Layout{PPUs: 2, DRAMBanks: 8, L1MSHRs: 12, L2MSHRs: 16, TLBWalkers: 3}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, events, lay); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	var kernelSlices, metas, fills, adapts int
	for _, e := range parsed.TraceEvents {
		switch {
		case e.Ph == "M":
			metas++
		case e.Ph == "X" && strings.HasPrefix(e.Name, "kernel"):
			kernelSlices++
		case e.Name == "fill":
			fills++
		case strings.HasPrefix(e.Name, "switch:") || e.Name == "idle demotion":
			adapts++
		}
	}
	// 2 PPUs + 8 banks + 12 + 16 MSHRs + 3 walkers + prefetcher +
	// adaptive controller + 4 stalls.
	if want := 2 + 8 + 12 + 16 + 3 + 1 + 1 + 4; metas != want {
		t.Errorf("thread_name metadata events = %d, want %d", metas, want)
	}
	if kernelSlices != 1 {
		t.Errorf("kernel slices = %d, want 1 (PFKernel..PFUnitFree pair)", kernelSlices)
	}
	if fills != 1 {
		t.Errorf("fill instants = %d, want 1", fills)
	}
	if adapts != 2 {
		t.Errorf("adaptive controller instants = %d, want 2", adapts)
	}
}

func TestWriteChromeClosesOpenSlices(t *testing.T) {
	// A kernel that never frees (blocked at end of run) still gets a slice.
	events := []Event{
		{At: 16, Kind: PFKernel, A: 4, C: 2},
		{At: 900, Kind: PFIssue, ID: 1},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, events, Layout{PPUs: 3}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "kernel 4") {
		t.Error("open PPU slice was not closed out at end of trace")
	}
}

func TestKindStrings(t *testing.T) {
	for k := PFObserve; k <= AdaptiveIdleDemote; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
}

func TestRegistryMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("x").Add(3)
	a.Counter("only-a").Add(1)
	b.Counter("x").Add(4)
	b.Counter("only-b").Add(9)
	ha := a.Hist("q", 4)
	for _, v := range []int{0, 2, 4} {
		ha.Observe(v)
	}
	hb := b.Hist("q", 8) // wider range: merge must grow a's buckets
	for _, v := range []int{2, 8, 20} {
		hb.Observe(v)
	}

	a.Merge(b)
	for _, want := range []struct {
		name string
		n    int64
	}{{"x", 7}, {"only-a", 1}, {"only-b", 9}} {
		if got := a.Counter(want.name).N; got != want.n {
			t.Errorf("merged counter %s = %d, want %d", want.name, got, want.n)
		}
	}
	h := a.Hist("q", 4) // lookup by name; max ignored for existing hists
	if h.N != 6 || h.Sum != 2+4+2+8+8 {
		t.Errorf("merged hist: n=%d sum=%d, want n=6 sum=%d", h.N, h.Sum, 2+4+2+8+8)
	}
	if len(h.Buckets) != 9 {
		t.Errorf("merged hist has %d buckets, want 9 (grown to source range)", len(h.Buckets))
	}
	if h.Buckets[2] != 2 || h.Buckets[8] != 2 || h.Clamped != 1 {
		t.Errorf("merged buckets wrong: b2=%d b8=%d clamped=%d", h.Buckets[2], h.Buckets[8], h.Clamped)
	}
	// Merging into an empty registry is a deep count copy.
	c := NewRegistry()
	c.Merge(a)
	if c.Counter("x").N != 7 || c.Hist("q", 1).N != 6 {
		t.Error("merge into empty registry lost counts")
	}
	// Nil source is a no-op.
	c.Merge(nil)
}
