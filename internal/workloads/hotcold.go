package workloads

import (
	"eventpf/internal/ir"
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

const (
	hotcoldTableLg     = 18 // 256 k words = 2 MiB, twice L2
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

	fn := func(v Variant) *ir.Fn {
		if v != Plain {
			// Like PhaseMix and SpMV: plain build only.
			return nil
		}
		b := ir.NewBuilder("hotcold", 5)
		entry := b.NewBlock("entry")
		b.SetBlock(entry)
		queriesB, tableB, nV := b.Arg(0), b.Arg(1), b.Arg(2)
		mulV, shiftV := b.Arg(3), b.Arg(4)
		zero := b.Const(0)

		l := newLoop(b, "queries", nV, []ir.Value{zero}, false)
		acc := l.Carried[0]
		q := b.Load(wordAddr(b, queriesB, l.IV), "queries")
		slot := b.Shr(b.Mul(q, mulV), shiftV)
		val := b.Load(wordAddr(b, tableB, slot), "table")
		l.end(b.Add(acc, b.And(b.Xor(val, q), b.Const(0xFF))))
		b.Ret(l.Carried[0])
		return b.MustFinish()
	}

	manual := func(mc *system.Machine) {
		// Event 1 on loads of the query stream: fetch the query a fixed
		// distance ahead (padded array, no wrap needed); event 2 hashes the
		// fetched key exactly as the main program will and prefetches its
		// table line — the hash-join kernel idiom on a skewed stream.
		mc.RegisterKernel(1, ppu.MustAssemble(`
			vaddr  r1
			addi   r1, r1, 256  ; 32 queries ahead
			pftag  r1, 2
			halt
		`))
		mc.RegisterKernel(2, ppu.MustAssemble(`
			lddata r1           ; query key
			ldg    r2, g0       ; hash multiplier
			mul    r1, r1, r2
			shri   r1, r1, 46   ; 64 - hotcoldTableLg
			shli   r1, r1, 3
			ldg    r2, g1       ; table base
			add    r1, r1, r2
			pf     r1
			halt
		`))
		mc.PF.SetGlobal(0, hashMul)
		mc.PF.SetGlobal(1, table.Base)
		mc.PF.SetRange(0, prefetch.RangeConfig{
			Lo: queries.Base, Hi: queries.End(),
			LoadKernel: 1, PFKernel: prefetch.NoKernel,
			EWMAGroup: 0, Interval: true, TimedStart: true,
		})
	}

	check := func(mc *system.Machine, ret uint64, hasRet bool) error {
		return checkEq("hotcold checksum", ret, wantAcc)
	}

	return &Instance{
		BuildFn: fn,
		Runs:    []Run{{Args: []uint64{queries.Base, table.Base, queriesN, hashMul, shift}}},
		Manual:  manual,
		Check:   check,
	}
}
