package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// fn is the tests' event handler: a closure scheduled through the typed path.
type fn func()

func (f fn) Handle(Ticks, uint64, uint64) { f() }

func TestClockFromMHz(t *testing.T) {
	cases := []struct {
		mhz    int
		period Ticks
	}{
		{3200, 5}, {1000, 16}, {800, 20}, {500, 32},
		{250, 64}, {125, 128}, {2000, 8}, {4000, 4},
	}
	for _, c := range cases {
		if got := ClockFromMHz(c.mhz).Period; got != c.period {
			t.Errorf("ClockFromMHz(%d).Period = %d, want %d", c.mhz, got, c.period)
		}
	}
}

func TestClockFromMHzRejectsNonDivisors(t *testing.T) {
	for _, mhz := range []int{0, -5, 3000, 7} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ClockFromMHz(%d) did not panic", mhz)
				}
			}()
			ClockFromMHz(mhz)
		}()
	}
}

func TestClockNextEdge(t *testing.T) {
	c := Clock{Period: 5}
	cases := []struct{ in, want Ticks }{{0, 0}, {1, 5}, {4, 5}, {5, 5}, {6, 10}}
	for _, tc := range cases {
		if got := c.NextEdge(tc.in); got != tc.want {
			t.Errorf("NextEdge(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestClockCycles(t *testing.T) {
	c := ClockFromMHz(1000)
	if c.Cycles(3) != 48 {
		t.Errorf("Cycles(3) = %d, want 48", c.Cycles(3))
	}
	if c.ToCycles(48) != 3 {
		t.Errorf("ToCycles(48) = %d, want 3", c.ToCycles(48))
	}
	if c.ToCycles(49) != 4 {
		t.Errorf("ToCycles(49) = %d, want 4 (rounds up)", c.ToCycles(49))
	}
}

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []Ticks
	for _, at := range []Ticks{30, 10, 20} {
		at := at
		e.Schedule(at, fn(func() { got = append(got, at) }), 0, 0)
	}
	e.Run()
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Errorf("events ran in order %v, want [10 20 30]", got)
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %d after run, want 30", e.Now())
	}
}

func TestEngineSameTickFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, fn(func() { got = append(got, i) }), 0, 0)
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-tick events ran out of schedule order: %v", got)
		}
	}
}

func TestEngineEventsScheduleEvents(t *testing.T) {
	e := NewEngine()
	var trace []Ticks
	e.Schedule(10, fn(func() {
		trace = append(trace, e.Now())
		e.ScheduleAfter(5, fn(func() { trace = append(trace, e.Now()) }), 0, 0)
	}), 0, 0)
	e.Run()
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
		t.Errorf("trace = %v, want [10 15]", trace)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, fn(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, fn(func() {}), 0, 0)
	}), 0, 0)
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	ran := map[Ticks]bool{}
	for _, at := range []Ticks{5, 10, 15} {
		at := at
		e.Schedule(at, fn(func() { ran[at] = true }), 0, 0)
	}
	e.RunUntil(10)
	if !ran[5] || !ran[10] || ran[15] {
		t.Errorf("RunUntil(10) ran %v", ran)
	}
	if e.Now() != 10 {
		t.Errorf("Now() = %d, want 10", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEngine()
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Errorf("Now() = %d, want 100", e.Now())
	}
}

func TestNextAt(t *testing.T) {
	e := NewEngine()
	if at, ok := e.NextAt(); ok {
		t.Errorf("NextAt() on an empty engine = %d, true", at)
	}
	for _, at := range []Ticks{30, 10, 20} {
		e.Schedule(at, fn(func() {}), 0, 0)
	}
	for _, want := range []Ticks{10, 20, 30} {
		if at, ok := e.NextAt(); !ok || at != want {
			t.Errorf("NextAt() = %d, %v, want %d, true", at, ok, want)
		}
		if e.Now() == want {
			t.Errorf("NextAt() advanced the clock to %d", want)
		}
		e.Step()
	}
	if _, ok := e.NextAt(); ok {
		t.Error("NextAt() reports an event after the queue drained")
	}
}

// Property: however events are scheduled, they are observed in nondecreasing
// time order and every scheduled event runs exactly once.
func TestEngineOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		count := int(n%64) + 1
		want := make([]Ticks, count)
		var got []Ticks
		for i := 0; i < count; i++ {
			at := Ticks(rng.Intn(1000))
			want[i] = at
			e.Schedule(at, fn(func() { got = append(got, e.Now()) }), 0, 0)
		}
		e.Run()
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
