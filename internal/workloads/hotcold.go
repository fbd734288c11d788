package workloads

import (
	"eventpf/internal/ppu"
	"eventpf/internal/prefetch"
	"eventpf/internal/system"
)

// HotCold is a memcached-style skewed hash-table lookup (the ROADMAP's
// third synthetic irregular workload): a query stream where 90% of lookups
// hit a small hot set of keys — whose table lines stay cache-resident — and
// 10% scatter uniformly over a table far larger than L2. The interesting
// behaviour is the mix: a stride unit sees only the sequential query
// stream, a Markov unit learns the hot lines, and the programmable
// prefetcher can hash each upcoming query on the fly and cover the cold
// misses too. Extra (not Table 2), and a trace-corpus seed for
// internal/tracein.
var HotCold = &Benchmark{
	Name:    "HotCold",
	Source:  "synthetic",
	Pattern: "Skewed hash lookup (90/10 hot/cold)",
	Input:   "256 k-slot table, 64 hot keys",
	Build:   buildHotCold,
}

var (
	hotcoldProgram = loadProgram("hotcold")
	hotcoldKernels = [][]ppu.Instr{ppuKernel("hotcold.1.ppu"), ppuKernel("hotcold.2.ppu")}
)

const (
	hotcoldTableLg     = 18 // 256 k words = 2 MiB, twice L2; hotcold.2.ppu shifts by 64 minus this
	hotcoldHotKeys     = 64
	hotcoldBaseQueries = 60000
	// hotcoldLookahead is the manual-kernel prefetch distance in queries;
	// the query array is padded by this much so look-ahead loads of the tail
	// stay in bounds.
	hotcoldLookahead = 32
)

func buildHotCold(m *system.Machine, scale float64) *Instance {
	queriesN := uint64(scaled(hotcoldBaseQueries, scale))
	tableWords := uint64(1) << hotcoldTableLg
	shift := uint64(64 - hotcoldTableLg)

	table := m.Arena.AllocWords("table", tableWords)
	queries := m.Arena.AllocWords("queries", queriesN+hotcoldLookahead)

	gen := splitmix64(0xC01D)
	for i := uint64(0); i < tableWords; i++ {
		m.Backing.Write64(table.Base+i*8, gen.next())
	}
	var hot [hotcoldHotKeys]uint64
	for i := range hot {
		hot[i] = gen.next() | 1
	}

	hash := func(k uint64) uint64 { return (k * hashMul) >> shift }

	var wantAcc uint64
	for q := uint64(0); q < queriesN; q++ {
		k := hot[gen.next()%hotcoldHotKeys]
		if gen.next()%10 == 0 {
			k = gen.next() | 1 // cold: uniform over the whole key space
		}
		m.Backing.Write64(queries.Base+q*8, k)
		wantAcc += (m.Backing.Read64(table.Base+hash(k)*8) ^ k) & 0xFF
	}

	manual := withKernels(hotcoldKernels, func(mc *system.Machine) {
		mc.PF.SetGlobal(0, hashMul)
		mc.PF.SetGlobal(1, table.Base)
		mc.PF.SetRange(0, prefetch.RangeConfig{
			Lo: queries.Base, Hi: queries.End(),
			LoadKernel: 1, PFKernel: prefetch.NoKernel,
			EWMAGroup: 0, Interval: true, TimedStart: true,
		})
	})

	check := func(mc *system.Machine, ret uint64, hasRet bool) error {
		return checkEq("hotcold checksum", ret, wantAcc)
	}

	return &Instance{
		BuildFn: hotcoldProgram.build,
		Runs:    []Run{{Args: []uint64{queries.Base, table.Base, queriesN, hashMul, shift}}},
		Manual:  manual,
		Check:   check,
	}
}
