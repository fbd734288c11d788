package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// The engine's firing order is what every golden, fork and replay in the
// repository rests on, so the wheel is checked against the definition of
// that order: a list kept sorted by (at, seq). A program of schedule, step,
// run-until, probe and copy operations, decoded from bytes, drives the
// engine and the list side by side.

// progDist is the distances a program schedules at and runs ahead by: zero,
// the next ticks, a bitmap-word boundary, the wheel/overflow boundary, and
// several laps of the wheel.
var progDist = [16]Ticks{
	0, 1, 2, 7, 63, 64, 65,
	wheelSpan - 1, wheelSpan, wheelSpan + 1,
	2*wheelSpan - 1, 2 * wheelSpan, 2*wheelSpan + 1,
	3*wheelSpan + 5, 7 * wheelSpan, wheelSpan - 2,
}

// Program operations: each is two bytes, op then arg.
const (
	opSchedule  = iota // at progDist[arg&15]
	opSchedule2        // the same again, so half of random programs' ops schedule
	opParent           // at progDist[arg&15]; its handler schedules a child progDist[arg>>4] later
	opStep             // arg%4+1 steps
	opRunUntil         // now + progDist[arg&15]
	opProbe            // nothing but the Now/NextAt/Pending/Seq check that follows every operation
	opCopy             // CopyFrom into the second engine, which then runs the rest of the program too
	opBurst            // 256 events over two wheel spans (the first maxBursts times)
	opCount
)

// maxBursts bounds a program's queue depth (and a fuzz input's run time) at
// a little over 8192 events, twice what any simulation reaches.
const maxBursts = 36

// modelEvent is one pending event of the reference list. id names it in the
// fire log; child, if non-zero, is 1 + the progDist index its handler
// schedules a child at.
type modelEvent struct {
	at    Ticks
	id    uint64
	child uint64
}

type fired struct {
	at Ticks
	id uint64
}

// rig is one engine with its reference list. The list is kept sorted by
// (at, seq): seq only grows, so a new event goes after every event of its
// instant.
type rig struct {
	eng    *Engine
	model  []modelEvent
	now    Ticks
	seq    uint64
	nextID uint64
	log    []fired // what the engine fired since the last check
}

// newRig builds an engine that owns its rig's handler, as a component
// constructor would, so pending events survive CopyFrom.
func newRig() *rig {
	r := &rig{eng: NewEngine()}
	r.eng.Own(rigHandler{r})
	return r
}

// rigHandler is comparable, so an engine can own it; a is the event id, b its
// child code.
type rigHandler struct{ r *rig }

func (h rigHandler) Handle(at Ticks, a, b uint64) {
	r := h.r
	r.log = append(r.log, fired{at, a})
	if b != 0 {
		r.engSchedule(at+progDist[b-1], 0)
	}
}

func (r *rig) engSchedule(at Ticks, child uint64) {
	r.eng.Schedule(at, rigHandler{r}, r.nextID, child)
	r.nextID++
}

func (r *rig) modelInsert(at Ticks, id, child uint64) {
	i := sort.Search(len(r.model), func(i int) bool { return r.model[i].at > at })
	r.model = append(r.model, modelEvent{})
	copy(r.model[i+1:], r.model[i:])
	r.model[i] = modelEvent{at, id, child}
	r.seq++
}

// schedule adds one event to the engine and to the list.
func (r *rig) schedule(d Ticks, child uint64) {
	r.modelInsert(r.now+d, r.nextID, child)
	r.engSchedule(r.now+d, child)
}

// modelFire fires the list's first event. Its child, if it has one, enters
// the list under childID — the id the engine's handler will give it.
func (r *rig) modelFire(childID uint64) (f fired, hadChild bool) {
	ev := r.model[0]
	r.model = r.model[1:]
	r.now = ev.at
	if ev.child != 0 {
		r.modelInsert(ev.at+progDist[ev.child-1], childID, 0)
	}
	return fired{ev.at, ev.id}, ev.child != 0
}

// where names the program operation a failure happened in.
type where struct {
	n       int // operation index; len(prog)/2 is the final drain
	op, arg byte
	engine  int // 0 the original, 1 the CopyFrom target
}

func (w where) String() string {
	return fmt.Sprintf("op %d (%d,%d) engine %d", w.n, w.op, w.arg, w.engine)
}

// check compares everything the engine shows with the list.
func (r *rig) check(t *testing.T, what where) {
	t.Helper()
	if r.eng.Now() != r.now {
		t.Fatalf("%s: Now() = %d, want %d", what, r.eng.Now(), r.now)
	}
	if r.eng.Pending() != len(r.model) {
		t.Fatalf("%s: Pending() = %d, want %d", what, r.eng.Pending(), len(r.model))
	}
	if r.eng.Seq() != r.seq {
		t.Fatalf("%s: Seq() = %d, want %d", what, r.eng.Seq(), r.seq)
	}
	at, ok := r.eng.NextAt()
	if ok != (len(r.model) > 0) || ok && at != r.model[0].at {
		t.Fatalf("%s: NextAt() = %d, %v; the list holds %d, first %v", what, at, ok, len(r.model), r.model[:min(1, len(r.model))])
	}
}

// step advances engine and list by one event and compares what fired; it
// returns false once both are empty.
func (r *rig) step(t *testing.T, what where) bool {
	t.Helper()
	r.log = r.log[:0]
	if len(r.model) == 0 {
		if r.eng.Step() {
			t.Fatalf("%s: Step fired %v with nothing pending", what, r.log)
		}
		return false
	}
	want, _ := r.modelFire(r.nextID)
	if !r.eng.Step() || len(r.log) != 1 || r.log[0] != want {
		t.Fatalf("%s: Step fired %v, want %v", what, r.log, want)
	}
	return true
}

// runUntil advances engine and list to now+d and compares what fired.
func (r *rig) runUntil(t *testing.T, what where, d Ticks) {
	t.Helper()
	until := r.now + d
	var want []fired
	for id := r.nextID; len(r.model) > 0 && r.model[0].at <= until; {
		f, hadChild := r.modelFire(id)
		want = append(want, f)
		if hadChild {
			id++
		}
	}
	r.now = until
	r.log = r.log[:0]
	r.eng.RunUntil(until)
	if len(r.log) != len(want) {
		t.Fatalf("%s: RunUntil(%d) fired %d events, want %d", what, until, len(r.log), len(want))
	}
	for i := range want {
		if r.log[i] != want[i] {
			t.Fatalf("%s: RunUntil(%d) event %d = %v, want %v", what, until, i, r.log[i], want[i])
		}
	}
}

// drained asserts an engine with nothing pending holds nothing: every slab
// node on the free list, both bitmaps zero, the overflow heap empty.
func (r *rig) drained(t *testing.T) {
	t.Helper()
	e := r.eng
	if e.near != 0 || e.far.len() != 0 || e.sum != 0 {
		t.Fatalf("drained engine: near=%d far=%d sum=%#x", e.near, e.far.len(), e.sum)
	}
	for w, m := range e.occ {
		if m != 0 {
			t.Fatalf("drained engine: occ[%d] = %#x", w, m)
		}
	}
	free := 0
	for i := e.free; i >= 0; i = e.nodes[i].next {
		if e.nodes[i].h != nil {
			t.Fatalf("free node %d still holds a handler", i)
		}
		free++
		if free > len(e.nodes) {
			t.Fatal("free list loops")
		}
	}
	if free != len(e.nodes) {
		t.Fatalf("drained engine: %d of %d slab nodes free", free, len(e.nodes))
	}
}

// runProgram decodes prog and runs it; see the op constants.
func runProgram(t *testing.T, prog []byte) {
	t.Helper()
	rigs := []*rig{newRig()}
	bursts := 0
	for pc := 0; pc+1 < len(prog); pc += 2 {
		op, arg := prog[pc]%opCount, prog[pc+1]
		if op == opBurst {
			if bursts++; bursts > maxBursts {
				op = opSchedule
			}
		}
		if op == opCopy {
			src := rigs[0]
			if len(rigs) == 1 {
				rigs = append(rigs, newRig())
			}
			dst := rigs[1]
			if err := dst.eng.CopyFrom(src.eng); err != nil {
				t.Fatalf("op %d: CopyFrom: %v", pc/2, err)
			}
			dst.model = append(dst.model[:0], src.model...)
			dst.now, dst.seq, dst.nextID = src.now, src.seq, src.nextID
		}
		for ri, r := range rigs {
			what := where{pc / 2, op, arg, ri}
			switch op {
			case opSchedule, opSchedule2:
				r.schedule(progDist[arg&15], 0)
			case opParent:
				r.schedule(progDist[arg&15], uint64(arg>>4)+1)
			case opStep:
				for i := 0; i <= int(arg%4); i++ {
					r.step(t, what)
				}
			case opRunUntil:
				r.runUntil(t, what, progDist[arg&15])
			case opBurst:
				for i := 0; i < 256; i++ {
					r.schedule((Ticks(i)*37+Ticks(arg)*11)%(2*wheelSpan), 0)
				}
			}
			r.check(t, what)
		}
	}
	for ri, r := range rigs {
		what := where{len(prog) / 2, opStep, 0, ri}
		for r.step(t, what) {
			r.check(t, what)
		}
		r.drained(t)
	}
}

// FuzzEngineOrder feeds arbitrary programs to runProgram. The seed corpus in
// testdata/fuzz/FuzzEngineOrder holds the cases the wheel's correctness
// argument turns on: same-tick ties across the wheel/overflow boundary, a far
// event whose instant later fills from the wheel, the cursor wrapping round
// slot 0, and a queue 8192 deep.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{opSchedule, 8, opRunUntil, 1, opSchedule, 7, opStep, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 1<<12 {
			prog = prog[:1<<12]
		}
		runProgram(t, prog)
	})
}

// TestWheelMatchesHeapReference runs seeded random programs through the same
// check, so a plain `go test` covers the wheel without -fuzz.
func TestWheelMatchesHeapReference(t *testing.T) {
	programs := 1000
	if testing.Short() {
		programs = 100 // the race detector makes each about ten times slower
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < programs; n++ {
		prog := make([]byte, 2*(1+rng.Intn(300)))
		rng.Read(prog)
		// Random ops drain the queue about as fast as they fill it; bias
		// some programs towards scheduling so depth builds up too.
		if n%8 == 0 {
			for pc := 0; pc < len(prog); pc += 2 {
				if rng.Intn(3) == 0 {
					prog[pc] = pick(rng, opSchedule, opParent, opBurst)
				}
			}
		}
		runProgram(t, prog)
	}
}

func pick(rng *rand.Rand, ops ...byte) byte { return ops[rng.Intn(len(ops))] }
