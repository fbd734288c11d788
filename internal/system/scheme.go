package system

import (
	"fmt"

	"eventpf/internal/baseline"
	"eventpf/internal/mem"
	"eventpf/internal/sim"
)

// Scheme selects which hardware prefetcher (if any) the machine carries.
// Software prefetching is not a machine property: it is a property of the
// benchmark variant being run (extra SWPf instructions in the IR).
//
// A scheme is a constant below plus its row of the schemes table; New
// assembles what the row says, and fork, stats collection and the trace
// layout are generic over the baseline.Unit interface.
type Scheme int

// Machine prefetching schemes.
const (
	// NoPF carries no hardware prefetcher.
	NoPF Scheme = iota
	// StridePF carries the Table 1 degree-8 stride prefetcher.
	StridePF
	// GHBRegular carries the SRAM-sized Markov GHB prefetcher.
	GHBRegular
	// GHBLarge is the 1 GiB-state Markov GHB study variant. It builds from
	// cfg.GHB exactly like GHBRegular — the large sizing is a *default*
	// (baseline.LargeGHBConfig, applied by harness.ConfigFor when no
	// explicit Config is given), not a constructor override, so a caller's
	// cfg.GHB is always honoured.
	GHBLarge
	// Programmable carries the paper's event-triggered prefetcher.
	Programmable
	// RPT carries the Chen–Baer four-state reference prediction table.
	RPT
	// GHBDelta carries the delta-correlating (G/DC) history prefetcher.
	GHBDelta
	// TSKID carries the trigger/target timing prefetcher.
	TSKID
	// Adaptive carries the online adaptive controller (internal/adaptive):
	// the programmable prefetcher plus a menu of baseline units drawn from
	// the units table, one active at a time. It is the one scheme whose unit
	// is not a units entry; New builds the controller itself.
	Adaptive

	numSchemes
)

// schemes holds one row per constant above: the diagnostic name, whether the
// machine carries the paper's programmable prefetcher (PPUs, filter table,
// observation queue), and the units key of the baseline unit it carries
// ("" for none).
var schemes = [numSchemes]struct {
	name         string
	programmable bool
	unit         string
}{
	NoPF:         {name: "nopf"},
	StridePF:     {name: "stride", unit: "stride"},
	GHBRegular:   {name: "ghb-regular", unit: "ghb"},
	GHBLarge:     {name: "ghb-large", unit: "ghb"},
	Programmable: {name: "programmable", programmable: true},
	RPT:          {name: "rpt", unit: "rpt"},
	GHBDelta:     {name: "ghb-delta", unit: "ghb-delta"},
	TSKID:        {name: "tskid", unit: "tskid"},
	Adaptive:     {name: "adaptive", programmable: true},
}

// unitCtor builds one hardware prefetch unit. It must take every sizing knob
// from the machine configuration — never from package-level defaults — so
// explicit Config overrides always take effect, and must not touch the L1's
// demand snoop: a unit is passive, New attaches it.
type unitCtor func(eng *sim.Engine, cfg *Config, l1 *mem.Cache, tlb *mem.TLB) baseline.Unit

// units is the one table of unit constructors. Its keys are the names the
// adaptive menu offers; the schemes rows name their unit by the same key, so
// a unit is constructed in exactly one place however it is hosted.
var units = map[string]unitCtor{
	"stride": func(eng *sim.Engine, cfg *Config, l1 *mem.Cache, tlb *mem.TLB) baseline.Unit {
		return baseline.NewStride(eng, cfg.Stride, l1, tlb)
	},
	// stride-d2 is the stride unit with the degree knob turned down to 2.
	"stride-d2": func(eng *sim.Engine, cfg *Config, l1 *mem.Cache, tlb *mem.TLB) baseline.Unit {
		c := cfg.Stride
		c.Degree = 2
		return baseline.NewStride(eng, c, l1, tlb)
	},
	"ghb": func(eng *sim.Engine, cfg *Config, l1 *mem.Cache, tlb *mem.TLB) baseline.Unit {
		return baseline.NewGHB(eng, cfg.GHB, l1, tlb)
	},
	"ghb-delta": func(eng *sim.Engine, cfg *Config, l1 *mem.Cache, tlb *mem.TLB) baseline.Unit {
		return baseline.NewGHBDelta(eng, cfg.Delta, l1, tlb)
	},
	"rpt": func(eng *sim.Engine, cfg *Config, l1 *mem.Cache, tlb *mem.TLB) baseline.Unit {
		return baseline.NewRPT(eng, cfg.RPT, l1, tlb)
	},
	"tskid": func(eng *sim.Engine, cfg *Config, l1 *mem.Cache, tlb *mem.TLB) baseline.Unit {
		return baseline.NewTSKID(eng, cfg.TSKID, l1, tlb)
	},
}

// Valid reports whether s is one of the scheme constants.
func (s Scheme) Valid() bool { return s >= 0 && s < numSchemes }

// IsProgrammable reports whether the scheme carries the programmable
// prefetcher (so PPU sizing can affect it).
func (s Scheme) IsProgrammable() bool { return s.Valid() && schemes[s].programmable }

func (s Scheme) String() string {
	if s.Valid() {
		return schemes[s].name
	}
	return fmt.Sprintf("unknown(%d)", int(s))
}
