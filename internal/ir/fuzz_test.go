package ir_test

import (
	"slices"
	"testing"

	"eventpf/internal/ir"
	"eventpf/internal/system"
	"eventpf/internal/workloads"
)

// FuzzParseIR feeds text to ir.Parse, the parser behind eventpf.ParseIR: it
// must answer an error rather than panic, printing what it accepts and
// parsing that again must give the same text (the first parse renumbers
// values into block order, so the second changes nothing), and every
// function it accepts — Parse has run Verify on it — must decode for the
// interpreter. The seeds, which plain go test runs, are the printed form of
// every variant of every workload in All and Extra, ConjGrad's cfg line and
// a ';' comment line; testdata/fuzz/FuzzParseIR holds inputs that once
// panicked.
func FuzzParseIR(f *testing.F) {
	f.Add("func cg(1 args) {\nb0 <entry>:\n  v0 = arg 0\n  cfg {Kind:1 Slot:0 LoadKernel:0 PFKernel:0 EWMAGroup:0 " +
		"Interval:false TimedStart:false TimedEnd:false GReg:2} args=[0]\n  ret _\n}\n")
	f.Add("; a comment line\nfunc c(0 args) {\nb0:\n  ; another\n  ret _\n}\n")
	for _, b := range slices.Concat(workloads.All, workloads.Extra) {
		inst := b.Build(system.New(system.DefaultConfig(), system.NoPF), 0.01)
		for _, v := range []workloads.Variant{workloads.Plain, workloads.SWPf, workloads.Pragma} {
			if fn := inst.BuildFn(v); fn != nil {
				f.Add(fn.String())
			}
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		fn, err := ir.Parse(src)
		if err != nil {
			return
		}
		ir.Decode(fn)
		once := fn.String()
		again, err := ir.Parse(once)
		if err != nil {
			t.Fatalf("printed form does not parse: %v\n%s", err, once)
		}
		if twice := again.String(); twice != once {
			t.Fatalf("print∘parse not idempotent:\n--- once\n%s\n--- twice\n%s", once, twice)
		}
	})
}
