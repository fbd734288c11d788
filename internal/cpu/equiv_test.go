package cpu

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
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
