package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Layout tells the Chrome exporter how many of each resource the simulated
// machine had, so every PPU, MSHR, DRAM bank and TLB walker gets its own
// named track even if it never emitted an event.
type Layout struct {
	PPUs       int
	DRAMBanks  int
	L1MSHRs    int
	L2MSHRs    int
	TLBWalkers int
}

// Track id bases. Every resource instance is pid 1, tid base+index; the
// ppftrace analyzer and the metadata below rely on these staying stable.
const (
	tidCoreBase = 10  // + stall reason
	tidPrefetch = 50  // prefetcher lifecycle instants
	tidAdaptive = 51  // adaptive controller decisions
	tidPPUBase  = 100 // + PPU id
	tidBankBase = 200 // + DRAM bank
	tidL1MSHR   = 300 // + MSHR slot
	tidL2MSHR   = 400 // + MSHR slot
	tidWalker   = 500 // + walker slot
)

type chromeEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// us converts ticks (62.5 ps each) to Chrome's microsecond timestamps.
func us(t int64) float64 { return float64(t) / 16000.0 }

func meta(tid int, name string) chromeEvent {
	return chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
		Args: map[string]any{"name": name}}
}

func complete(tid int, name string, at, dur int64, args map[string]any) chromeEvent {
	d := us(dur)
	return chromeEvent{Name: name, Ph: "X", Ts: us(at), Dur: &d, Pid: 1, Tid: tid, Args: args}
}

func instant(tid int, name string, at int64, args map[string]any) chromeEvent {
	return chromeEvent{Name: name, Ph: "i", Ts: us(at), Pid: 1, Tid: tid, Scope: "t", Args: args}
}

// openSlice is a begun-but-unfinished track span during conversion.
type openSlice struct {
	at   int64
	name string
	args map[string]any
}

// WriteChrome converts collected events into Chrome trace-event JSON
// (loadable in Perfetto or chrome://tracing): one track per PPU, per L1/L2
// MSHR, per DRAM bank and per TLB walker, plus instant tracks for the
// prefetcher lifecycle and core stalls. Span-shaped events (DRAM, TLB
// walks) carry their duration; PPU busy spans are reconstructed from
// PFKernel/PFUnitFree pairs and MSHR residency from CacheMiss/CacheFill.
func WriteChrome(w io.Writer, events []Event, lay Layout) error {
	out := chromeFile{DisplayTimeUnit: "ns"}
	add := func(e chromeEvent) { out.TraceEvents = append(out.TraceEvents, e) }

	add(meta(tidPrefetch, "prefetcher"))
	add(meta(tidAdaptive, "adaptive controller"))
	stallNames := [...]string{
		StallLQ: "core stall: LQ full", StallSQ: "core stall: SQ full",
		StallRedirect: "core stall: redirect", StallRetire: "core stall: retire",
	}
	for r, n := range stallNames {
		add(meta(tidCoreBase+r, n))
	}
	for i := 0; i < lay.PPUs; i++ {
		add(meta(tidPPUBase+i, fmt.Sprintf("PPU %d", i)))
	}
	for i := 0; i < lay.DRAMBanks; i++ {
		add(meta(tidBankBase+i, fmt.Sprintf("DRAM bank %d", i)))
	}
	for i := 0; i < lay.L1MSHRs; i++ {
		add(meta(tidL1MSHR+i, fmt.Sprintf("L1 MSHR %d", i)))
	}
	for i := 0; i < lay.L2MSHRs; i++ {
		add(meta(tidL2MSHR+i, fmt.Sprintf("L2 MSHR %d", i)))
	}
	for i := 0; i < lay.TLBWalkers; i++ {
		add(meta(tidWalker+i, fmt.Sprintf("TLB walker %d", i)))
	}

	ppu := map[int32]openSlice{}   // PPU id → running kernel span
	mshr := map[int64]openSlice{}  // level<<32|slot → miss span
	stall := map[int32]openSlice{} // stall reason → span
	var last int64

	closeSlice := func(tid int, s openSlice, end int64) {
		if end < s.at {
			end = s.at
		}
		add(complete(tid, s.name, s.at, end-s.at, s.args))
	}

	for _, e := range events {
		if e.At > last {
			last = e.At
		}
		if end := e.At + e.Dur; end > last {
			last = end
		}
		switch e.Kind {
		case PFKernel:
			tid := tidPPUBase + int(e.C)
			if s, ok := ppu[e.C]; ok {
				closeSlice(tid, s, e.At)
			}
			ppu[e.C] = openSlice{at: e.At, name: fmt.Sprintf("kernel %d", e.A),
				args: map[string]any{"kernel": e.A, "addr": fmt.Sprintf("%#x", e.Addr)}}
		case PFUnitFree:
			if s, ok := ppu[e.C]; ok {
				closeSlice(tidPPUBase+int(e.C), s, e.At)
				delete(ppu, e.C)
			}
		case PFObserve, PFObsDrop, PFFlush:
			add(instant(tidPrefetch, e.Kind.String(), e.At, map[string]any{"kernel": e.A}))
		case PFGenerate:
			add(instant(tidPrefetch, "generate", e.At, map[string]any{
				"id": e.ID, "kernel": e.A, "tag": e.B, "ppu": e.C, "addr": fmt.Sprintf("%#x", e.Addr)}))
		case PFEnqueue:
			add(instant(tidPrefetch, "enqueue", e.At, map[string]any{"id": e.ID, "depth": e.A}))
		case PFIssue:
			add(instant(tidPrefetch, "issue", e.At, map[string]any{"id": e.ID}))
		case PFFill:
			add(instant(tidPrefetch, "fill", e.At, map[string]any{
				"id": e.ID, "kernel": e.A, "filled": e.B == 1}))
		case PFDrop:
			reason := [...]string{DropQueue: "queue", DropTLB: "tlb", DropMSHR: "mshr"}
			name := "unknown"
			if int(e.A) < len(reason) && e.A >= 0 {
				name = reason[e.A]
			}
			add(instant(tidPrefetch, "drop", e.At, map[string]any{"id": e.ID, "reason": name}))
		case CacheMiss:
			key := int64(e.A)<<32 | int64(e.B)
			kind := "prefetch"
			if e.C == 1 {
				kind = "demand"
			}
			mshr[key] = openSlice{at: e.At, name: fmt.Sprintf("%s %#x", kind, e.Addr),
				args: map[string]any{"line": fmt.Sprintf("%#x", e.Addr)}}
		case CacheFill:
			base := tidL1MSHR
			if e.A == 2 {
				base = tidL2MSHR
			}
			key := int64(e.A)<<32 | int64(e.B)
			if s, ok := mshr[key]; ok {
				closeSlice(base+int(e.B), s, e.At)
				delete(mshr, key)
			}
		case CacheMSHRFull:
			add(instant(tidPrefetch, fmt.Sprintf("L%d mshr-full", e.A), e.At, nil))
		case CachePFDrop:
			add(instant(tidPrefetch, "drop", e.At, map[string]any{"id": e.ID, "reason": "mshr"}))
		case DRAMAccess:
			states := [...]string{RowHit: "row-hit", RowMiss: "row-miss", RowEmpty: "row-empty"}
			name := "access"
			if int(e.A) >= 0 && int(e.B) < len(states) && e.B >= 0 {
				name = states[e.B]
			}
			add(complete(tidBankBase+int(e.A), name, e.At, e.Dur,
				map[string]any{"line": fmt.Sprintf("%#x", e.Addr)}))
		case TLBWalk:
			add(complete(tidWalker+int(e.A), "walk", e.At, e.Dur,
				map[string]any{"page": fmt.Sprintf("%#x", e.Addr), "mapped": e.B == 1}))
		case CoreStall:
			if _, ok := stall[e.A]; !ok {
				name := "core stall"
				if int(e.A) >= 0 && int(e.A) < len(stallNames) {
					name = stallNames[e.A]
				}
				stall[e.A] = openSlice{at: e.At, name: name}
			}
		case AdaptiveSwitch:
			reasons := [...]string{SwitchSweep: "sweep", SwitchExploit: "exploit"}
			name := "switch"
			if int(e.C) >= 0 && int(e.C) < len(reasons) {
				name = "switch: " + reasons[e.C]
			}
			add(instant(tidAdaptive, name, e.At, map[string]any{"from": e.A, "to": e.B}))
		case AdaptiveIdleDemote:
			add(instant(tidAdaptive, "idle demotion", e.At, map[string]any{"arm": e.A, "demands": e.B}))
		case CoreStallEnd:
			if s, ok := stall[e.A]; ok {
				closeSlice(tidCoreBase+int(e.A), s, e.At)
				delete(stall, e.A)
			}
		}
	}
	// Close anything still open at the end of the run, in key order so the
	// exported file is deterministic.
	for _, id := range sortedKeys(ppu) {
		closeSlice(tidPPUBase+int(id), ppu[id], last)
	}
	for _, key := range sortedKeys(mshr) {
		base := tidL1MSHR
		if key>>32 == 2 {
			base = tidL2MSHR
		}
		closeSlice(base+int(key&0xffffffff), mshr[key], last)
	}
	for _, r := range sortedKeys(stall) {
		closeSlice(tidCoreBase+int(r), stall[r], last)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K int32 | int64, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
