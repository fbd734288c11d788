package sim

import (
	"strings"
	"testing"
)

// Two adapter types, as two components would declare them: comparable, one
// pointer back to their owner.
type tickAdapter struct{ log *[]string }

func (h tickAdapter) Handle(Ticks, uint64, uint64) { *h.log = append(*h.log, "tick") }

type fillAdapter struct{ log *[]string }

func (h fillAdapter) Handle(Ticks, uint64, uint64) { *h.log = append(*h.log, "fill") }

// machine stands in for a constructor: it owns its adapters in a fixed order.
func machine(log *[]string, hs ...func(*[]string) Handler) *Engine {
	e := NewEngine()
	for _, h := range hs {
		e.Own(h(log))
	}
	return e
}

func tick(l *[]string) Handler { return tickAdapter{l} }
func fill(l *[]string) Handler { return fillAdapter{l} }

// TestPairingByPosition is the fork contract of Own: pending events and
// looked-up handlers land on the fork's adapter at the parent's position,
// and anything the position pairing cannot vouch for is an error.
func TestPairingByPosition(t *testing.T) {
	var plog, flog []string
	parent := machine(&plog, tick, fill)

	t.Run("translates", func(t *testing.T) {
		fork := machine(&flog, tick, fill)
		parent.Schedule(5, fillAdapter{&plog}, 0, 0)
		parent.Schedule(5+wheelSpan, tickAdapter{&plog}, 0, 0) // overflow heap
		if err := fork.CopyFrom(parent); err != nil {
			t.Fatal(err)
		}
		fork.Run()
		if got := strings.Join(flog, ","); got != "fill,tick" || len(plog) != 0 {
			t.Errorf("fork logged %q, parent %q; want the fork alone to log fill,tick", got, plog)
		}
		h, err := fork.Counterpart(parent, tickAdapter{&plog})
		if err != nil || h != (tickAdapter{&flog}) {
			t.Errorf("Counterpart(tick) = %v, %v; want the fork's tick adapter", h, err)
		}
		if h, err := fork.Counterpart(parent, nil); h != nil || err != nil {
			t.Errorf("Counterpart(nil) = %v, %v; want nil, nil", h, err)
		}
		parent.Run()
	})

	for _, tc := range []struct {
		name string
		fork *Engine
		frag string
	}{
		{"fewer handlers", machine(&flog, tick), "owning 2 handlers with one owning 1"},
		{"more handlers", machine(&flog, tick, fill, fill), "owning 2 handlers with one owning 3"},
		{"another type at a position", machine(&flog, fill, tick), "owned handler 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.fork.CopyFrom(parent); err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("CopyFrom = %v, want an error mentioning %q", err, tc.frag)
			}
			if _, err := tc.fork.Counterpart(parent, tickAdapter{&plog}); err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Errorf("Counterpart = %v, want an error mentioning %q", err, tc.frag)
			}
		})
	}

	t.Run("un-owned pending handler", func(t *testing.T) {
		var other []string
		for _, h := range []Handler{
			tickAdapter{&other}, // the right type, but not the adapter the parent owns
			fn(func() {}),       // a closure: bound to parent state
		} {
			src := machine(&plog, tick, fill)
			src.Schedule(3, h, 0, 0)
			err := machine(&flog, tick, fill).CopyFrom(src)
			if err == nil || !strings.Contains(err.Error(), "does not own") {
				t.Errorf("CopyFrom with a pending %T = %v, want a does-not-own error", h, err)
			}
		}
	})

	t.Run("Own rejects what it cannot pair", func(t *testing.T) {
		for _, h := range []Handler{nil, fn(func() {})} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Own(%T) did not panic", h)
					}
				}()
				NewEngine().Own(h)
			}()
		}
	})
}
