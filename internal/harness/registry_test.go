package harness

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"eventpf/internal/baseline"
	"eventpf/internal/system"
	"eventpf/internal/workloads"
)

// The scheme table is the single source of truth: every derived view must
// agree with it, the JSON encoding must round-trip through it, and the
// competitor schemes must appear in every menu. The table is a literal that
// nothing checks at start-up, so this does: one row per constant, every row
// named, no name twice, every machine scheme a real one.
func TestRegistryDerivedViews(t *testing.T) {
	if len(schemeInfos) != int(Adaptive)+1 {
		t.Fatalf("schemeInfos has %d rows for the %d constants NoPF..Adaptive", len(schemeInfos), int(Adaptive)+1)
	}
	if len(AllSchemes) != len(schemeInfos) || len(AllSchemes) != len(SchemeNames()) {
		t.Fatalf("AllSchemes (%d), SchemeNames (%d) and the table (%d) disagree", len(AllSchemes), len(SchemeNames()), len(schemeInfos))
	}
	named := map[string]Scheme{}
	for i, s := range AllSchemes {
		if int(s) != i {
			t.Errorf("AllSchemes[%d] = %d; scheme values must be dense", i, int(s))
		}
		info, ok := s.Info()
		if !ok {
			t.Fatalf("scheme %d has no table row", int(s))
		}
		if info.Name == "" {
			t.Errorf("scheme %d has no name", int(s))
		}
		if prev, dup := named[info.Name]; dup {
			t.Errorf("schemes %d and %d share the name %q", int(prev), int(s), info.Name)
		}
		named[info.Name] = s
		if !info.Machine.Valid() {
			t.Errorf("%s: machine scheme %d is not a system.Scheme constant", info.Name, int(info.Machine))
		}
		if SchemeNames()[i] != info.Name {
			t.Errorf("SchemeNames()[%d] = %q, want %q", i, SchemeNames()[i], info.Name)
		}
		// JSON round-trip, generated from the registry rather than a
		// hand-kept list.
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Scheme
		if err := json.Unmarshal(data, &back); err != nil || back != s {
			t.Errorf("JSON round-trip of %s: got %v, err %v", s, back, err)
		}
	}
	// The Figure 7 list is the registry filtered by Fig7, in order.
	want := 0
	for _, s := range AllSchemes {
		info, _ := s.Info()
		if !info.Fig7 {
			continue
		}
		if want >= len(Schemes) || Schemes[want] != s {
			t.Fatalf("Schemes does not match the registry's Fig7 filter at %d", want)
		}
		want++
	}
	if want != len(Schemes) {
		t.Fatalf("Schemes has %d extra entries", len(Schemes)-want)
	}
	// The competitors are registered, parseable and in the Figure 7 matrix.
	for _, name := range []string{"rpt", "ghb-delta", "tskid"} {
		s, ok := ParseScheme(name)
		if !ok {
			t.Fatalf("competitor %q not registered", name)
		}
		found := false
		for _, f := range Schemes {
			found = found || f == s
		}
		if !found {
			t.Errorf("competitor %q missing from the Fig7 scheme list", name)
		}
	}
}

// An unregistered scheme value or name is a typed *UnknownSchemeError from
// every entry point — never a silent no-pf run.
func TestUnknownSchemeTypedError(t *testing.T) {
	bad := Scheme(9999)
	assertTyped := func(what string, err error) {
		t.Helper()
		var use *UnknownSchemeError
		if !errors.As(err, &use) {
			t.Fatalf("%s: error %v is not an *UnknownSchemeError", what, err)
		}
		if !strings.Contains(err.Error(), "manual-blocked") || !strings.Contains(err.Error(), "tskid") {
			t.Errorf("%s: error %q does not list the valid scheme menu", what, err)
		}
	}

	_, err := ConfigFor(Options{}, bad)
	assertTyped("ConfigFor", err)

	_, err = LayoutFor(Options{}, bad)
	assertTyped("LayoutFor", err)

	b, err := workloads.ByName("HJ-2")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(b, bad, Options{Scale: 0.01})
	assertTyped("Run", err)

	var s Scheme
	err = s.UnmarshalText([]byte("bogus"))
	assertTyped("UnmarshalText", err)
	var use *UnknownSchemeError
	if errors.As(err, &use) && use.Name != "bogus" {
		t.Errorf("UnmarshalText error carries name %q, want %q", use.Name, "bogus")
	}

	_, err = JobSpec{Bench: "HJ-2", Scheme: "bogus"}.Resolve()
	assertTyped("JobSpec.Resolve", err)
}

// Regression for the ghb-large sizing bug: system.New used to rebuild the
// unit from baseline.LargeGHBConfig() unconditionally, ignoring a caller's
// cfg.GHB. The large sizing must be a default (no explicit Config) only.
func TestGHBLargeHonoursConfigOverride(t *testing.T) {
	cfg, err := ConfigFor(Options{}, GHBLarge)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.GHB != baseline.LargeGHBConfig() {
		t.Errorf("default ghb-large sizing = %+v, want LargeGHBConfig", cfg.GHB)
	}

	custom := system.DefaultConfig()
	custom.GHB = baseline.RegularGHBConfig()
	got, err := ConfigFor(Options{Config: &custom}, GHBLarge)
	if err != nil {
		t.Fatal(err)
	}
	if got.GHB != custom.GHB {
		t.Errorf("explicit cfg.GHB overridden to %+v", got.GHB)
	}
}

// Behavioural half of the regression: ghb-large forced to the regular sizing
// must simulate exactly like ghb-regular (same machine, same unit config) —
// under the seed code it silently ran with the 1 GiB table instead.
func TestGHBLargeOverrideChangesSimulation(t *testing.T) {
	b, err := workloads.ByName("HJ-2")
	if err != nil {
		t.Fatal(err)
	}
	custom := system.DefaultConfig()
	custom.GHB = baseline.RegularGHBConfig()
	opt := Options{Scale: 0.05, Config: &custom}

	large, err := Run(b, GHBLarge, opt)
	if err != nil {
		t.Fatal(err)
	}
	regular, err := Run(b, GHBRegular, opt)
	if err != nil {
		t.Fatal(err)
	}
	if large.Cycles != regular.Cycles || large.Baseline != regular.Baseline {
		t.Errorf("ghb-large with regular sizing diverged from ghb-regular: %d/%+v vs %d/%+v",
			large.Cycles, large.Baseline, regular.Cycles, regular.Baseline)
	}
}
