package system

import (
	"fmt"

	"eventpf/internal/adaptive"
	"eventpf/internal/baseline"
	"eventpf/internal/mem"
	"eventpf/internal/prefetch"
	"eventpf/internal/sim"
)

// Scheme selects which hardware prefetcher (if any) the machine carries.
// Software prefetching is not a machine property: it is a property of the
// benchmark variant being run (extra SWPf instructions in the IR).
//
// Schemes are registry entries, not switch cases: RegisterScheme installs a
// SchemeSpec describing how the scheme is named, whether it carries the
// programmable prefetcher, and how its baseline unit is constructed. New
// assembles whatever the spec says; fork, stats collection and the trace
// layout are generic over the baseline.Unit interface, so adding a scheme
// touches exactly one registration.
type Scheme int

// SchemeSpec describes one machine prefetching scheme.
type SchemeSpec struct {
	// Name is the scheme's diagnostic name.
	Name string
	// Programmable schemes carry the paper's programmable prefetcher
	// (PPUs, filter table, observation queue) instead of a baseline unit.
	Programmable bool
	// NewUnit, if non-nil, constructs the scheme's hardware prefetch unit
	// from the machine configuration. The unit must take every sizing knob
	// from cfg — never from package-level defaults — so explicit Config
	// overrides always take effect. pf is the machine's programmable
	// prefetcher if the scheme also set Programmable (the adaptive
	// controller hosts it as an arm), nil otherwise. New points the L1's
	// demand snoop at the unit's Observe; the unit must not touch it.
	NewUnit func(eng *sim.Engine, cfg *Config, l1 *mem.Cache, tlb *mem.TLB, pf *prefetch.Prefetcher) baseline.Unit
}

var schemeSpecs []SchemeSpec

// RegisterScheme adds a machine scheme to the registry and returns its id.
// Ids are assigned in registration order; the built-in schemes register at
// package init, keeping their historical values (NoPF=0 … Programmable=4).
func RegisterScheme(spec SchemeSpec) Scheme {
	if spec.Name == "" {
		panic("system: RegisterScheme: scheme needs a name")
	}
	schemeSpecs = append(schemeSpecs, spec)
	return Scheme(len(schemeSpecs) - 1)
}

// unitCtor builds one hardware prefetch unit, taking every sizing knob from
// the machine configuration.
type unitCtor func(eng *sim.Engine, cfg *Config, l1 *mem.Cache, tlb *mem.TLB) baseline.Unit

// units is the one table of unit constructors. Its keys are the names the
// adaptive menu offers; the single-unit schemes below name their unit by the
// same key, so a unit is constructed in exactly one place however it is
// hosted.
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

// unitScheme registers a scheme that carries the one unit the table holds
// under key.
func unitScheme(name, key string) Scheme {
	ctor := units[key]
	return RegisterScheme(SchemeSpec{
		Name: name,
		NewUnit: func(eng *sim.Engine, cfg *Config, l1 *mem.Cache, tlb *mem.TLB, _ *prefetch.Prefetcher) baseline.Unit {
			return ctor(eng, cfg, l1, tlb)
		},
	})
}

// Machine prefetching schemes. The first five keep the ids they had as enum
// constants; the competitors added with the registry follow.
var (
	// NoPF carries no hardware prefetcher.
	NoPF = RegisterScheme(SchemeSpec{Name: "nopf"})
	// StridePF carries the Table 1 degree-8 stride prefetcher.
	StridePF = unitScheme("stride", "stride")
	// GHBRegular carries the SRAM-sized Markov GHB prefetcher.
	GHBRegular = unitScheme("ghb-regular", "ghb")
	// GHBLarge is the 1 GiB-state Markov GHB study variant. It builds from
	// cfg.GHB exactly like GHBRegular — the large sizing is a *default*
	// (baseline.LargeGHBConfig, applied by harness.ConfigFor when no
	// explicit Config is given), not a constructor override, so a caller's
	// cfg.GHB is always honoured.
	GHBLarge = unitScheme("ghb-large", "ghb")
	// Programmable carries the paper's event-triggered prefetcher.
	Programmable = RegisterScheme(SchemeSpec{Name: "programmable", Programmable: true})
	// RPT carries the Chen–Baer four-state reference prediction table.
	RPT = unitScheme("rpt", "rpt")
	// GHBDelta carries the delta-correlating (G/DC) history prefetcher.
	GHBDelta = unitScheme("ghb-delta", "ghb-delta")
	// TSKID carries the trigger/target timing prefetcher.
	TSKID = unitScheme("tskid", "tskid")
	// Adaptive carries the online adaptive controller: the programmable
	// prefetcher plus a menu of baseline units, with one active at a time
	// (internal/adaptive). Programmable and NewUnit together make New build
	// both halves; the controller builds its menu from the units table.
	Adaptive = RegisterScheme(SchemeSpec{
		Name:         "adaptive",
		Programmable: true,
		NewUnit: func(eng *sim.Engine, cfg *Config, l1 *mem.Cache, tlb *mem.TLB, pf *prefetch.Prefetcher) baseline.Unit {
			return adaptive.New(eng, cfg.Adaptive, l1, pf, func(name string) baseline.Unit {
				if ctor := units[name]; ctor != nil {
					return ctor(eng, cfg, l1, tlb)
				}
				return nil
			})
		},
	})
)

// Valid reports whether s names a registered scheme.
func (s Scheme) Valid() bool { return s >= 0 && int(s) < len(schemeSpecs) }

// Spec returns the scheme's registry entry.
func (s Scheme) Spec() (SchemeSpec, bool) {
	if !s.Valid() {
		return SchemeSpec{}, false
	}
	return schemeSpecs[s], true
}

// IsProgrammable reports whether the scheme carries the programmable
// prefetcher (so PPU sizing can affect it).
func (s Scheme) IsProgrammable() bool {
	spec, ok := s.Spec()
	return ok && spec.Programmable
}

func (s Scheme) String() string {
	if spec, ok := s.Spec(); ok {
		return spec.Name
	}
	return fmt.Sprintf("unknown(%d)", int(s))
}
