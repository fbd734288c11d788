package workloads

import (
	"eventpf/internal/ir"
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

	fn := func(v Variant) *ir.Fn {
		if v != Plain {
			// Like PhaseMix: no software-prefetch or pragma form. The trace
			// front end and the adaptive study only consume the plain build,
			// and a hand-tuned SWPf variant would be a separate study.
			return nil
		}
		b := ir.NewBuilder("spmv", 6)
		entry := b.NewBlock("entry")
		b.SetBlock(entry)
		rowptrB, colidxB, valsB := b.Arg(0), b.Arg(1), b.Arg(2)
		xB, yB, rowsV := b.Arg(3), b.Arg(4), b.Arg(5)
		zero := b.Const(0)
		one := b.Const(1)

		outer := newLoop(b, "rows", rowsV, []ir.Value{zero}, false)
		accO := outer.Carried[0]
		r := outer.IV

		lo := b.Load(wordAddr(b, rowptrB, r), "rowptr")
		hi := b.Load(wordAddr(b, rowptrB, b.Add(r, one)), "rowptr")
		cnt := b.Sub(hi, lo)

		inner := newLoop(b, "nnz", cnt, []ir.Value{zero}, false)
		k := b.Add(lo, inner.IV)
		c := b.Load(wordAddr(b, colidxB, k), "colidx")
		val := b.Load(wordAddr(b, valsB, k), "vals")
		xv := b.Load(wordAddr(b, xB, c), "x")
		inner.end(b.Add(inner.Carried[0], b.Mul(val, xv)))

		sum := inner.Carried[0]
		b.Store(wordAddr(b, yB, r), sum, "y")
		outer.end(b.Add(accO, b.And(sum, b.Const(0xFFFF))))
		b.Ret(accO)
		return b.MustFinish()
	}

	manual := func(mc *system.Machine) {
		// Event 1 on loads of colidx: fetch the column index a fixed distance
		// ahead (the array is padded, so the look-ahead never faults); its
		// fill triggers event 2 with the index value, which gathers the x
		// element — the paper's two-stage array-indirection idiom.
		mc.RegisterKernel(1, ppu.MustAssemble(`
			vaddr  r1
			addi   r1, r1, 256  ; 32 elements ahead
			pftag  r1, 2
			halt
		`))
		mc.RegisterKernel(2, ppu.MustAssemble(`
			lddata r1           ; colidx[k+32]
			shli   r1, r1, 3
			ldg    r2, g0       ; x base
			add    r1, r1, r2
			pf     r1
			halt
		`))
		mc.PF.SetGlobal(0, x.Base)
		mc.PF.SetRange(0, prefetch.RangeConfig{
			Lo: colidx.Base, Hi: colidx.End(),
			LoadKernel: 1, PFKernel: prefetch.NoKernel,
			EWMAGroup: 0, Interval: true, TimedStart: true,
		})
	}

	check := func(mc *system.Machine, ret uint64, hasRet bool) error {
		if err := checkEq("spmv checksum", ret, wantAcc); err != nil {
			return err
		}
		return checkRegion("y", mc.Backing, y.Base, rows, wantY)
	}

	return &Instance{
		BuildFn: fn,
		Runs:    []Run{{Args: []uint64{rowptr.Base, colidx.Base, vals.Base, x.Base, y.Base, rows}}},
		Manual:  manual,
		Check:   check,
	}
}
