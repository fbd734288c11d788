package cpu

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"eventpf/internal/sim"
	"eventpf/internal/trace"
)

// updateStreams rewrites testdata/random_streams.json. The file pins what the
// core did on the commit that generated it, so regenerate it only on a commit
// whose timing is the reference — never to make a scheduling change pass.
var updateStreams = flag.Bool("update-streams", false, "rewrite testdata/random_streams.json")

const randomStreamSeeds = 240

// splitmix is the tests' own generator, so the pinned streams depend on no
// library's sequence.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

func pick[T any](s *splitmix, vs ...T) T { return vs[s.intn(len(vs))] }

// randomStream draws a core configuration and a micro-op stream from seed:
// every op kind, zero to two dependences reaching from the previous op to
// beyond the largest window, and branches at a few PCs whose directions are
// partly learnable, so redirect stalls of every length occur.
func randomStream(seed uint64) (Config, []MicroOp) {
	rng := splitmix(seed)
	cfg := Config{
		Clock:             sim.ClockFromMHz(3200),
		Width:             pick(&rng, 1, 3, 4),
		ROB:               pick(&rng, 8, 16, 40),
		LQ:                pick(&rng, 2, 4, 16),
		SQ:                pick(&rng, 2, 32),
		MispredictPenalty: pick[int64](&rng, 0, 3, 10),
	}
	kinds := []OpKind{OpInt, OpInt, OpInt, OpMul, OpDiv, OpLoad, OpLoad, OpLoad, OpStore, OpSWPf, OpBranch, OpBranch, OpConfig}
	loadHeavy := rng.intn(3) == 0
	ops := make([]MicroOp, 200+rng.intn(400))
	for i := range ops {
		op := MicroOp{Kind: pick(&rng, kinds...), PC: rng.intn(6), Deps: [2]int64{NoDep, NoDep}}
		if loadHeavy && rng.intn(2) == 0 {
			op.Kind = OpLoad
		}
		op.Addr = uint64(rng.intn(1 << 16))
		for d, nd := 0, rng.intn(3); d < nd && i > 0; d++ {
			dist := pick(&rng, 1, 1, 2, 3, 7, 20, 45, 70)
			if dist > i {
				dist = i
			}
			op.Deps[d] = int64(i - dist)
		}
		if op.Kind == OpBranch {
			op.Taken = op.PC%2 == 0 || rng.intn(2) == 0
		}
		ops[i] = op
	}
	return cfg, ops
}

// edgeMem completes each load a drawn number of cycles after the next clock
// edge, shifted by -1, 0 or +1 tick: completions land just before, exactly on
// and just after the edges the core ticks on, which is where a change in how
// ticks are scheduled would show.
type edgeMem struct {
	eng    *sim.Engine
	clk    sim.Clock
	rng    splitmix
	loads  int
	stores int
	swpf   int
}

type loadDone struct {
	h sim.Handler
	a uint64
}

func (d loadDone) Handle(at sim.Ticks, _, _ uint64) { d.h.Handle(at, d.a, 0) }

func (m *edgeMem) ports() Ports {
	return Ports{
		Load: func(addr uint64, pc int, h sim.Handler, a uint64) {
			m.loads++
			cycles := pick[int64](&m.rng, 1, 2, 4, 30, 300)
			at := m.clk.NextEdge(m.eng.Now()) + m.clk.Cycles(cycles) + sim.Ticks(m.rng.intn(3)-1)
			m.eng.Schedule(at, loadDone{h, a}, 0, 0)
		},
		Store:      func(uint64, int) { m.stores++ },
		SWPrefetch: func(uint64) { m.swpf++ },
	}
}

// hashSink folds every event it receives into an FNV-1a hash.
type hashSink struct {
	h hash.Hash64
	n int
}

func newHashSink() *hashSink { return &hashSink{h: fnv.New64a()} }

func (s *hashSink) Event(e trace.Event) {
	s.n++
	var b [48]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(e.At))
	binary.LittleEndian.PutUint64(b[8:], uint64(e.Dur))
	binary.LittleEndian.PutUint64(b[16:], e.Addr)
	binary.LittleEndian.PutUint64(b[24:], uint64(e.ID))
	binary.LittleEndian.PutUint32(b[32:], uint32(e.Kind))
	binary.LittleEndian.PutUint32(b[36:], uint32(e.A))
	binary.LittleEndian.PutUint32(b[40:], uint32(e.B))
	binary.LittleEndian.PutUint32(b[44:], uint32(e.C))
	s.h.Write(b[:])
}

// streamOutcome is everything one random stream pins.
type streamOutcome struct {
	Seed        uint64
	Stats       Stats
	End         sim.Ticks // engine time when the queue drained
	Loads       int
	Stores      int
	SWPrefetch  int
	StallEvents int    // CoreStall/CoreStallEnd events of the traced run
	StallHash   uint64 // FNV-1a over them, in order
}

func runRandomStream(t *testing.T, seed uint64, traced bool) streamOutcome {
	t.Helper()
	cfg, ops := randomStream(seed)
	eng := sim.NewEngine()
	mem := &edgeMem{eng: eng, clk: cfg.Clock, rng: splitmix(seed ^ 0xabcdef)}
	core := New(eng, cfg, mem.ports())
	sink := newHashSink()
	if traced {
		core.Bus = trace.NewBus(sink)
	}
	finished := false
	core.Run(&sliceStream{ops: ops}, func() { finished = true })
	eng.Run()
	if !finished {
		t.Fatalf("seed %d: core never finished", seed)
	}
	return streamOutcome{
		Seed: seed, Stats: core.Stats, End: eng.Now(),
		Loads: mem.loads, Stores: mem.stores, SWPrefetch: mem.swpf,
		StallEvents: sink.n, StallHash: sink.h.Sum64(),
	}
}

// TestRandomStreamsPinned runs seeded random micro-op streams against a
// memory whose completions straddle clock edges and compares the outcome —
// statistics, drain time, port traffic and the exact stall-event sequence of
// a traced run — with what the reference commit produced. It pins the core's
// cycle-level behaviour independently of the harness goldens: a tick
// scheduling change that moves any retirement by one cycle fails here.
func TestRandomStreamsPinned(t *testing.T) {
	path := filepath.Join("testdata", "random_streams.json")
	got := make([]streamOutcome, randomStreamSeeds)
	for i := range got {
		seed := uint64(i + 1)
		plain := runRandomStream(t, seed, false)
		got[i] = runRandomStream(t, seed, true)
		plain.StallEvents, plain.StallHash = got[i].StallEvents, got[i].StallHash
		if plain != got[i] {
			t.Errorf("seed %d: attaching a trace bus changed the run:\nplain  %+v\ntraced %+v", seed, plain, got[i])
		}
	}
	if *updateStreams {
		// One outcome a line keeps the file small and its diffs readable.
		var buf bytes.Buffer
		buf.WriteString("[\n")
		for i, o := range got {
			line, err := json.Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			if i < len(got)-1 {
				buf.WriteByte(',')
			}
			buf.WriteByte('\n')
		}
		buf.WriteString("]\n")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []streamOutcome
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s holds %d outcomes, want %d", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("seed %d:\n got  %+v\n want %+v", got[i].Seed, got[i], want[i])
		}
	}
}

// rescanReference is the issue stage as it was before ops were issued by
// wake-up: visit every unissued window entry oldest first, look its
// dependences up again, and issue the ones whose producers have all recorded
// a completion — including producers issued earlier in this same pass. It is
// the definition of which ops a full tick issues, and in what order; the
// wake-list path is checked against it tick by tick. It returns the ids it
// issued.
func (c *Core) rescanReference(now sim.Ticks) []int64 {
	var order []int64
	// Stop once every entry that was unissued on entry has been examined;
	// everything after the last of them is already issued.
	target := c.unissuedN
	for i, seen := 0, 0; i < c.robN && seen < target; i++ {
		e := c.robAt(i)
		if e.issued {
			continue
		}
		seen++
		if e.unresolved > 0 {
			e.unresolved = 0
			for _, d := range e.deps {
				if at, ok := c.depCompletion(d); ok {
					if at > e.readyAt {
						e.readyAt = at
					}
				} else {
					e.unresolved++
				}
			}
			if e.unresolved > 0 {
				continue
			}
		}
		order = append(order, e.id)
		c.issue(e, now)
	}
	return order
}

// referenceCopy returns a copy of c that rescanReference can issue on without
// touching c: its own window, a scratch engine that is never run, and a load
// port that only logs. The copy forgets what the wake lists worked out — no wait lists, no
// ready bits, every unissued entry marked as having dependences to look up —
// so the rescan decides from the completion ring alone, as it always did.
func (c *Core) referenceCopy(scratch *sim.Engine, loads *[]int64) *Core {
	ref := *c
	ref.rob = append([]robEntry(nil), c.rob...)
	ref.eng = scratch
	ref.ports = Ports{Load: func(_ uint64, _ int, _ sim.Handler, a uint64) { *loads = append(*loads, int64(a)) }}
	ref.Bus, ref.OpBus = nil, nil
	ring := *c.ring
	ref.ring = &ring
	for i := range ref.ring {
		ref.ring[i].waitHead = 0
	}
	ref.ready = [completionRing / 64]uint64{}
	for i := 0; i < ref.robN; i++ {
		if e := ref.robAt(i); !e.issued {
			e.unresolved = 1
		}
	}
	return &ref
}

// entryByID returns the window entry of op id, or nil if it has retired.
func (c *Core) entryByID(id int64) *robEntry {
	if c.robN == 0 {
		return nil
	}
	if i := id - c.robAt(0).id; i >= 0 && i < int64(c.robN) {
		return c.robAt(int(i))
	}
	return nil
}

// checkIssueByWakeup runs ops on a core one engine event at a time. Before
// each event it takes a reference copy of the core; after an event that
// turns out to have been a full tick it lets the old rescan issue on the copy
// at the tick's time and requires the same outcome from both: the same ops
// issued, the same demand loads sent to memory in the same order, and every
// window entry and completion-ring slot left in the same state. Between full
// ticks it checks the premise the idle tick rests on: a core that is not
// dirty has nothing the rescan would issue.
func checkIssueByWakeup(t *testing.T, name string, cfg Config, ops []MicroOp, memSeed uint64) {
	t.Helper()
	eng := sim.NewEngine()
	mem := &edgeMem{eng: eng, clk: cfg.Clock, rng: splitmix(memSeed)}
	ports := mem.ports()
	var loads, refLoads []int64
	sendLoad := ports.Load
	ports.Load = func(addr uint64, pc int, h sim.Handler, a uint64) {
		loads = append(loads, int64(a))
		sendLoad(addr, pc, h, a)
	}
	core := New(eng, cfg, ports)
	finished := false
	core.Run(&sliceStream{ops: ops}, func() { finished = true })

	scratch := sim.NewEngine()
	fullTicks := 0
	for {
		loads, refLoads = loads[:0], refLoads[:0]
		ref := core.referenceCopy(scratch, &refLoads)
		wasDirty, nextID := core.dirty, core.nextID
		if !eng.Step() {
			break
		}
		now := eng.Now()

		var got []int64 // unissued before the event, issued after it
		for i := 0; i < ref.robN; i++ {
			if e := ref.robAt(i); !e.issued && core.entryByID(e.id).issued {
				got = append(got, e.id)
			}
		}
		// Only a full tick issues, dispatches, or clears dirty.
		fullTick := len(got) > 0 || core.nextID != nextID || wasDirty && !core.dirty
		want := ref.rescanReference(now)
		if !fullTick {
			if !wasDirty && len(want) > 0 {
				t.Fatalf("%s t=%d: core was not dirty, yet the rescan would issue %v", name, now, want)
			}
			continue
		}
		fullTicks++
		if !slices.Equal(got, want) {
			t.Fatalf("%s t=%d: wake-list path issued %v, rescan issues %v", name, now, got, want)
		}
		if !slices.Equal(loads, refLoads) {
			t.Fatalf("%s t=%d: loads sent %v, rescan sends %v", name, now, loads, refLoads)
		}
		if core.stallUntil != ref.stallUntil {
			t.Fatalf("%s t=%d: stallUntil %d, rescan leaves %d", name, now, core.stallUntil, ref.stallUntil)
		}
		for i := 0; i < ref.robN; i++ {
			w := ref.robAt(i)
			g := core.entryByID(w.id)
			if g == nil {
				continue // retired by this tick
			}
			if g.issued != w.issued || g.readyAt != w.readyAt || g.completeAt != w.completeAt ||
				!g.issued && g.unresolved != w.unresolved {
				t.Fatalf("%s t=%d op %d:\n wake-list %+v\n rescan    %+v", name, now, w.id, *g, *w)
			}
			g2, w2 := core.ring[w.id%completionRing], ref.ring[w.id%completionRing]
			if g2.known != w2.known || g2.completion != w2.completion {
				t.Fatalf("%s t=%d op %d: completion ring (%v, %d), rescan leaves (%v, %d)", name, now, w.id,
					g2.known, g2.completion, w2.known, w2.completion)
			}
		}
	}
	if !finished {
		t.Fatalf("%s: core never finished", name)
	}
	if fullTicks == 0 {
		t.Fatalf("%s: no full tick was recognised", name)
	}
	if core.unissuedN != 0 || core.ready != [completionRing / 64]uint64{} {
		t.Fatalf("%s: drained core keeps unissuedN=%d ready=%x", name, core.unissuedN, core.ready)
	}
	for slot, r := range core.ring {
		if r.waitHead != 0 {
			t.Fatalf("%s: drained core keeps a wait list in ring slot %d", name, slot)
		}
	}
}

// TestIssueByWakeupMatchesRescan checks the wake-list issue stage against the
// window rescan it replaced, on the pinned random streams and on three shapes
// they do not draw: both dependences on one producer, producers long retired,
// and a whole window of ALU ops chained behind one load, which a single pass
// must issue from first to last.
func TestIssueByWakeupMatchesRescan(t *testing.T) {
	stride := uint64(1)
	if testing.Short() {
		stride = 8 // a reference copy per engine event is slow under the race detector
	}
	for seed := uint64(1); seed <= randomStreamSeeds; seed += stride {
		cfg, ops := randomStream(seed)
		checkIssueByWakeup(t, fmt.Sprintf("random stream %d", seed), cfg, ops, seed^0xabcdef)
	}

	var twice []MicroOp
	for i := int64(0); i < 120; i += 3 {
		twice = append(twice, loadOp(uint64(i)*64, i-1, i-1), intOp(i, i), MicroOp{Kind: OpMul, Deps: [2]int64{i + 1, i}})
	}
	twice[0].Deps = [2]int64{NoDep, NoDep}
	checkIssueByWakeup(t, "both deps on one producer", testConfig(), twice, 1)

	small := testConfig()
	small.ROB = 8
	var old []MicroOp
	for i := int64(0); i < 200; i++ {
		op := intOp(max(i-30, NoDep), max(i-9, NoDep)) // ROB+8 = 16: one certainly retired, one perhaps
		if i%5 == 0 {
			op = loadOp(uint64(i)*64, max(i-17, NoDep), max(i-16, NoDep)) // either side of the cut-off
		}
		old = append(old, op)
	}
	checkIssueByWakeup(t, "deps older than the window", small, old, 2)

	var chain []MicroOp
	for i := int64(0); i < 200; i++ {
		if i%40 == 0 {
			chain = append(chain, loadOp(uint64(i)*64, i-1))
		} else {
			chain = append(chain, intOp(i-1))
		}
	}
	checkIssueByWakeup(t, "39 ALU ops behind a load", testConfig(), chain, 3)
}
