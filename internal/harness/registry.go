package harness

import (
	"fmt"
	"strings"

	"eventpf/internal/baseline"
	"eventpf/internal/compiler"
	"eventpf/internal/ir"
	"eventpf/internal/system"
	"eventpf/internal/workloads"
)

// Scheme is one bar of Figure 7 (plus the Figure 11 blocked variant, the
// competitor prefetchers and the adaptive controller).
//
// A scheme is a constant below plus its row of schemeInfos: a SchemeInfo
// describing everything the harness needs to run it — the parseable name,
// the benchmark variant to build, the machine scheme to assemble, the
// compiler pass or manual-kernel installation to apply, and any
// configuration adjustment. Run/prepare, ConfigFor, LayoutFor, the figure
// matrices and the JSON (un)marshalling all consult the same table, so adding
// a scheme is one constant and one row with no switch to extend, and a value
// outside the block is a typed error everywhere instead of a silent
// fall-through.
type Scheme int

// SchemeInfo describes one comparison scheme.
type SchemeInfo struct {
	// Name is the parseable name used by CLIs, JSON and the serving layer.
	Name string
	// Description is the one-line summary ppfsim -list-schemes prints.
	Description string
	// Machine selects the hardware prefetcher the simulated machine carries.
	Machine system.Scheme
	// Variant selects which build of the benchmark runs (plain, software
	// prefetch, or pragma-annotated). The zero value is workloads.Plain.
	Variant workloads.Variant
	// Fig7 includes the scheme as a bar in the Figure 7 matrix.
	Fig7 bool
	// Pass, if non-nil, is the compiler pass run over the benchmark function;
	// the produced kernels are registered with the machine. PassName labels
	// pass failures ("<bench>: <PassName> pass: ...").
	Pass     func(*ir.Fn, *compiler.Alloc) (*compiler.Result, error)
	PassName string
	// Manual installs the benchmark's hand-written prefetch kernels.
	Manual bool
	// Configure, if non-nil, adjusts the resolved machine configuration.
	// explicit reports whether the caller supplied Options.Config — defaults
	// (like ghb-large's big sizing) must apply only when it is false, so
	// explicit overrides are always honoured.
	Configure func(cfg *system.Config, explicit bool)
}

// The paper's comparison schemes, plus the competitor prefetchers, in
// presentation order.
const (
	// NoPF is the no-prefetching baseline every speedup is relative to.
	NoPF Scheme = iota
	// Stride is the Table 1 degree-8 stride prefetcher.
	Stride
	// GHBRegular is the SRAM-sized Markov GHB prefetcher.
	GHBRegular
	// GHBLarge is the 1 GiB-state Markov GHB study variant: the same unit as
	// GHBRegular, with the large sizing applied as a *default* — an explicit
	// Options.Config keeps its own cfg.GHB.
	GHBLarge
	// Software runs the software-prefetch build on a machine with no
	// hardware prefetcher.
	Software
	// Pragma runs the plain build under kernels generated from programmer
	// pragmas (§6.2).
	Pragma
	// Converted runs the software-prefetch build with the prefetches
	// converted into event kernels (§6.1).
	Converted
	// Manual runs the hand-written event kernels (§6.3).
	Manual
	// ManualBlocked is the Figure 11 variant: events replaced by blocking
	// loads inside the PPUs.
	ManualBlocked
	// RPT is the Chen–Baer reference-prediction-table competitor.
	RPT
	// GHBDelta is the delta-correlating (G/DC) GHB competitor.
	GHBDelta
	// TSKID is the T-SKID-style timing-prefetch competitor.
	TSKID
	// Adaptive is the online adaptive controller (internal/adaptive): the
	// programmable prefetcher plus a menu of baseline units hosted on one
	// machine, one active at a time, switched at runtime. It runs the plain
	// build with the manual kernels installed (the "pf" arm), and stays out
	// of Figure 7 so the static matrices and goldens are unchanged; the
	// Figure 12 experiment compares it against every static scheme.
	Adaptive

	numSchemes
)

// schemeInfos holds one row per constant above.
var schemeInfos = [numSchemes]SchemeInfo{
	NoPF: {Name: "no-pf", Machine: system.NoPF,
		Description: "no prefetching; the baseline every speedup is relative to"},
	Stride: {Name: "stride", Machine: system.StridePF, Fig7: true,
		Description: "reference-prediction-table stride prefetcher, degree 8 (Table 1)"},
	GHBRegular: {Name: "ghb-regular", Machine: system.GHBRegular, Fig7: true,
		Description: "SRAM-sized Markov global-history-buffer prefetcher"},
	GHBLarge: {Name: "ghb-large", Machine: system.GHBLarge, Fig7: true,
		Description: "Markov GHB with effectively unbounded (1 GiB) state",
		Configure: func(cfg *system.Config, explicit bool) {
			if !explicit {
				cfg.GHB = baseline.LargeGHBConfig()
			}
		}},
	Software: {Name: "software", Machine: system.NoPF, Variant: workloads.SWPf, Fig7: true,
		Description: "software-prefetch build, no hardware prefetcher"},
	Pragma: {Name: "pragma", Machine: system.Programmable, Variant: workloads.Pragma, Fig7: true,
		Pass: compiler.GeneratePragmaEvents, PassName: "pragma",
		Description: "event kernels generated from programmer pragmas (§6.2)"},
	Converted: {Name: "converted", Machine: system.Programmable, Variant: workloads.SWPf, Fig7: true,
		Pass: compiler.ConvertSoftwarePrefetches, PassName: "conversion",
		Description: "software prefetches converted into event kernels (§6.1)"},
	Manual: {Name: "manual", Machine: system.Programmable, Fig7: true, Manual: true,
		Description: "hand-written event kernels on the programmable prefetcher (§6.3)"},
	ManualBlocked: {Name: "manual-blocked", Machine: system.Programmable, Manual: true,
		Description: "Figure 11 variant: events replaced by blocking loads in the PPUs",
		Configure: func(cfg *system.Config, explicit bool) {
			cfg.Prefetcher.Blocked = true
		}},
	RPT: {Name: "rpt", Machine: system.RPT, Fig7: true,
		Description: "Chen–Baer four-state reference prediction table"},
	GHBDelta: {Name: "ghb-delta", Machine: system.GHBDelta, Fig7: true,
		Description: "GHB delta-correlation (G/DC) prefetcher"},
	TSKID: {Name: "tskid", Machine: system.TSKID, Fig7: true,
		Description: "T-SKID-style trigger/target prefetcher with learned issue delay"},
	Adaptive: {Name: "adaptive", Machine: system.Adaptive, Manual: true,
		Description: "online controller switching between candidate prefetchers per phase"},
}

// Derived views of the table, fixed after package init.
var (
	// Schemes lists the Figure 7 bars in presentation (constant) order.
	Schemes []Scheme
	// AllSchemes lists every scheme, including NoPF and the Figure 11 blocked
	// variant that Schemes omits.
	AllSchemes []Scheme

	schemeByName map[string]Scheme
)

func init() {
	schemeByName = make(map[string]Scheme, len(schemeInfos))
	for s := Scheme(0); s < numSchemes; s++ {
		schemeByName[schemeInfos[s].Name] = s
		AllSchemes = append(AllSchemes, s)
		if schemeInfos[s].Fig7 {
			Schemes = append(Schemes, s)
		}
	}
}

// Info returns the scheme's table row.
func (s Scheme) Info() (SchemeInfo, bool) {
	if s < 0 || s >= numSchemes {
		return SchemeInfo{}, false
	}
	return schemeInfos[s], true
}

func (s Scheme) String() string {
	if info, ok := s.Info(); ok {
		return info.Name
	}
	return fmt.Sprintf("unknown(%d)", int(s))
}

// MarshalText makes schemes render as their names in JSON output.
func (s Scheme) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText is the inverse of MarshalText, so schemes round-trip
// through JSON job records.
func (s *Scheme) UnmarshalText(text []byte) error {
	sch, ok := ParseScheme(string(text))
	if !ok {
		return &UnknownSchemeError{Name: string(text)}
	}
	*s = sch
	return nil
}

// ParseScheme resolves a scheme name as printed by Scheme.String
// ("no-pf", "ghb-large", "manual-blocked", "rpt", …).
func ParseScheme(s string) (Scheme, bool) {
	sch, ok := schemeByName[s]
	return sch, ok
}

// SchemeNames returns every scheme's parseable name, in constant order.
func SchemeNames() []string {
	names := make([]string, len(schemeInfos))
	for i := range schemeInfos {
		names[i] = schemeInfos[i].Name
	}
	return names
}

// UnknownSchemeError reports a scheme name the table does not hold, or a
// numeric Scheme value outside the constant block (e.g. decoded from a stale
// job record). It is a typed error so callers can distinguish "bad request"
// from simulation failures; its message lists the valid menu.
type UnknownSchemeError struct {
	// Name is the unparseable name, if the scheme arrived as text.
	Name string
	// Scheme is the out-of-range value, if it arrived as a number.
	Scheme Scheme
}

func (e *UnknownSchemeError) Error() string {
	what := e.Name
	if what == "" {
		what = fmt.Sprintf("%d", int(e.Scheme))
	}
	return fmt.Sprintf("harness: unknown scheme %q; valid schemes: %s",
		what, strings.Join(SchemeNames(), ", "))
}
