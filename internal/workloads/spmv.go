package workloads

import (
	"eventpf/internal/ppu"
	"eventpf/internal/prefetch"
	"eventpf/internal/system"
)

// SpMV is sparse matrix–vector multiply over CSR: the ROADMAP's first
// synthetic irregular workload and a staple of the prefetching literature
// (it is the access pattern inside ConjGrad, isolated). The row-pointer and
// value arrays stream sequentially — stride territory — while the gather
// x[colidx[k]] is data-dependent and random, which only an indirection-aware
// prefetcher covers. Not a Table 2 row, so it lives in Extra; it doubles as
// a trace-corpus seed for the trace front end (internal/tracein).
var SpMV = &Benchmark{
	Name:    "SpMV",
	Source:  "synthetic",
	Pattern: "Stream + data-dependent gather (CSR)",
	Input:   "20 k × 20 k, ~8 nnz/row",
	Build:   buildSpMV,
}

var (
	spmvProgram = loadProgram("spmv")
	spmvKernels = [][]ppu.Instr{ppuKernel("spmv.1.ppu"), ppuKernel("spmv.2.ppu")}
)

const (
	spmvBaseRows  = 20000
	spmvMinPerRow = 4
	spmvMaxPerRow = 12 // average 8 nonzeros per row
	// spmvLookahead is the software/manual prefetch distance in colidx
	// elements; the colidx array is padded by this much so the look-ahead
	// loads of the last rows stay in bounds.
	spmvLookahead = 32
)

func buildSpMV(m *system.Machine, scale float64) *Instance {
	rows := uint64(scaled(spmvBaseRows, scale))
	cols := rows

	// Count the nonzeros on a copy of the generator first: the count fixes
	// the arena layout, and the same draws then write the arrays in place.
	rng := splitmix64(0x5B37)
	var nnz uint64
	for count, r := rng, uint64(0); r < rows; r++ {
		k := spmvMinPerRow + count.next()%(spmvMaxPerRow-spmvMinPerRow+1)
		for i := uint64(0); i < k; i++ {
			count.next()
		}
		nnz += k
	}

	rowptr := m.Arena.AllocWords("rowptr", rows+1)
	colidx := m.Arena.AllocWords("colidx", nnz+spmvLookahead)
	vals := m.Arena.AllocWords("vals", nnz)
	x := m.Arena.AllocWords("x", cols)
	y := m.Arena.AllocWords("y", rows)

	var e uint64
	for r := uint64(0); r < rows; r++ {
		m.Backing.Write64(rowptr.Base+r*8, e)
		k := spmvMinPerRow + rng.next()%(spmvMaxPerRow-spmvMinPerRow+1)
		for i := uint64(0); i < k; i++ {
			m.Backing.Write64(colidx.Base+e*8, rng.next()%cols)
			e++
		}
	}
	m.Backing.Write64(rowptr.Base+rows*8, nnz)
	for i := uint64(0); i < nnz; i++ {
		m.Backing.Write64(vals.Base+i*8, rng.next()&0xFFFF)
	}
	for i := uint64(0); i < cols; i++ {
		m.Backing.Write64(x.Base+i*8, rng.next()&0xFFFF)
	}

	// Oracle: each row's dot product, read back from the arrays; Check
	// keeps the digest of y.
	bk := m.Backing
	var wantAcc uint64
	var wantY digest
	for r := uint64(0); r < rows; r++ {
		var sum uint64
		for k := bk.Read64(rowptr.Base + r*8); k < bk.Read64(rowptr.Base+r*8+8); k++ {
			sum += bk.Read64(vals.Base+k*8) * bk.Read64(x.Base+bk.Read64(colidx.Base+k*8)*8)
		}
		wantY = wantY.add(r, sum)
		wantAcc += sum & 0xFFFF
	}

	manual := withKernels(spmvKernels, func(mc *system.Machine) {
		mc.PF.SetGlobal(0, x.Base)
		mc.PF.SetRange(0, prefetch.RangeConfig{
			Lo: colidx.Base, Hi: colidx.End(),
			LoadKernel: 1, PFKernel: prefetch.NoKernel,
			EWMAGroup: 0, Interval: true, TimedStart: true,
		})
	})

	check := func(mc *system.Machine, ret uint64, hasRet bool) error {
		if err := checkEq("spmv checksum", ret, wantAcc); err != nil {
			return err
		}
		return checkRegion("y", mc.Backing, y.Base, rows, wantY)
	}

	return &Instance{
		BuildFn: spmvProgram.build,
		Runs:    []Run{{Args: []uint64{rowptr.Base, colidx.Base, vals.Base, x.Base, y.Base, rows}}},
		Manual:  manual,
		Check:   check,
	}
}
