package workloads

import (
	"eventpf/internal/ir"
	"eventpf/internal/ppu"
	"eventpf/internal/prefetch"
	"eventpf/internal/system"
)

// ConjGrad is the NAS CG inner kernel: repeated sparse matrix–vector
// products q = A·p where the column indices scatter reads across the dense
// vector (Table 2: stride-indirect). Because the same matrix is traversed
// on every iteration, the access sequence repeats — this is one of the two
// benchmarks where the paper's "large" Markov GHB finds traction.
var ConjGrad = &Benchmark{
	Name:    "ConjGrad",
	Source:  "NAS",
	Pattern: "Stride-indirect",
	Input:   "B",
	Build:   buildConjGrad,
}

const (
	cgRows   = 1 << 15
	cgPerRow = 16
	cgReps   = 2
)

func buildConjGrad(m *system.Machine, scale float64) *Instance {
	rows := uint64(scaled(cgRows, scale))
	nnz := rows * cgPerRow

	rowptr := m.Arena.AllocWords("rowptr", rows+1)
	cols := m.Arena.AllocWords("cols", nnz+16) // +swpf distance padding
	vals := m.Arena.AllocWords("vals", nnz+16)
	vecA := m.Arena.AllocWords("vecA", rows)
	vecB := m.Arena.AllocWords("vecB", rows)

	rng := splitmix64(0xC6)
	for i := uint64(0); i <= rows; i++ {
		m.Backing.Write64(rowptr.Base+i*8, i*cgPerRow)
	}
	for j := uint64(0); j < nnz; j++ {
		m.Backing.Write64(cols.Base+j*8, rng.next()%rows)
		m.Backing.Write64(vals.Base+j*8, rng.next()&0xFF)
	}
	for i := uint64(0); i < rows; i++ {
		m.Backing.Write64(vecA.Base+i*8, rng.next()&0xFFFF)
	}

	// Oracle: cgReps products over scratch copies of the two vectors,
	// ping-ponging as the kernel does; Check keeps their digests.
	sc := borrowScratch()
	defer sc.release()
	vecs := [2][]uint64{sc.words(rows), sc.words(rows)} // vecA's, vecB's
	for i := range vecs[0] {
		vecs[0][i] = m.Backing.Read64(vecA.Base + uint64(i)*8)
	}
	var want uint64
	for rep := 0; rep < cgReps; rep++ {
		src, dst := vecs[rep%2], vecs[(rep+1)%2]
		for r := uint64(0); r < rows; r++ {
			var sum uint64
			for j := r * cgPerRow; j < (r+1)*cgPerRow; j++ {
				c := m.Backing.Read64(cols.Base + j*8)
				v := m.Backing.Read64(vals.Base + j*8)
				sum += v * src[c]
			}
			dst[r] = sum
			want += sum
		}
	}
	wantA, wantB := digestWords(vecs[0]), digestWords(vecs[1])

	fn := func(v Variant) *ir.Fn {
		b := ir.NewBuilder("conjgrad", 7)
		entry := b.NewBlock("entry")
		b.SetBlock(entry)
		rowptrB, colsB, valsB := b.Arg(0), b.Arg(1), b.Arg(2)
		vecAB, vecBB := b.Arg(3), b.Arg(4)
		rowsV, repsV := b.Arg(5), b.Arg(6)
		zero := b.Const(0)

		// for rep < reps { for r < rows { for j in [rowptr[r],rowptr[r+1]) } }
		reps := newLoop(b, "reps", repsV, []ir.Value{zero, vecAB, vecBB}, false)
		accR, srcV, dstV := reps.Carried[0], reps.Carried[1], reps.Carried[2]
		// Tell the prefetcher which vector is the source this repetition
		// (global register 2); a no-op without the programmable prefetcher.
		b.Cfg(ir.CfgInfo{Kind: ir.CfgGlobal, GReg: 2}, srcV)

		rl := newLoop(b, "rows", rowsV, []ir.Value{accR}, false)
		accRow := rl.Carried[0]
		rs := b.Load(wordAddr(b, rowptrB, rl.IV), "rowptr")
		one := b.Const(1)
		re := b.Load(wordAddr(b, rowptrB, b.Add(rl.IV, one)), "rowptr")

		// Inner loop over nonzeros: custom bounds [rs, re).
		head := b.NewBlock("nnz.head")
		body := b.NewBlock("nnz.body")
		exit := b.NewBlock("nnz.exit")
		b.Br(head)
		b.SetBlock(head)
		j := b.Phi()
		sum := b.Phi()
		cond := b.Bin(ir.CmpLTU, j, re)
		b.CondBr(cond, body, exit)
		if v == Pragma {
			b.MarkPragma(head)
		}

		b.SetBlock(body)
		if v == SWPf {
			// Index-array prefetches at 2x distance plus the indirect
			// target at 1x [CGO'17].
			dist := b.Const(16)
			jd := b.Add(j, dist)
			j2d := b.Add(jd, dist)
			b.SWPf(wordAddr(b, colsB, j2d), "cols")
			b.SWPf(wordAddr(b, valsB, j2d), "vals")
			cd := b.Load(wordAddr(b, colsB, jd), "cols")
			b.SWPf(wordAddr(b, srcV, cd), "vec")
		}
		c := b.Load(wordAddr(b, colsB, j), "cols")
		val := b.Load(wordAddr(b, valsB, j), "vals")
		x := b.Load(wordAddr(b, srcV, c), "vec")
		sum2 := b.Add(sum, b.Mul(val, x))
		j2 := b.Add(j, one)
		b.Br(head)
		b.SetPhiArgs(j, rs, j2)
		b.SetPhiArgs(sum, zero, sum2)

		b.SetBlock(exit)
		b.Store(wordAddr(b, dstV, rl.IV), sum, "vec")
		accRow2 := b.Add(accRow, sum)
		rl.end(accRow2)

		reps.end(rl.Carried[0], dstV, srcV) // swap vectors each repetition
		b.Ret(accR)
		return b.MustFinish()
	}

	manual := func(mc *system.Machine) {
		// Event 1 on column-index loads: fetch the index and the matching
		// value a hand-tuned distance ahead; the index fill triggers event 2.
		mc.RegisterKernel(1, ppu.MustAssemble(`
			vaddr  r1
			addi   r1, r1, 256    ; &cols[j+dist]
			ldg    r3, g0         ; cols base
			sub    r4, r1, r3     ; byte offset of cols[j+la]
			ldg    r5, g1         ; vals base
			add    r5, r5, r4     ; &vals[j+la]
			pf     r5
			pftag  r1, 2
			halt
		`))
		// Event 2, column index arrived: fetch the dense-vector element of
		// the repetition's source vector (g2, updated by a configuration
		// instruction at the top of each repetition).
		mc.RegisterKernel(2, ppu.MustAssemble(`
			lddata r1
			shli   r1, r1, 3
			ldg    r2, g2
			add    r1, r1, r2
			pf     r1
			halt
		`))
		mc.PF.SetGlobal(0, cols.Base)
		mc.PF.SetGlobal(1, vals.Base)
		mc.PF.SetGlobal(2, vecA.Base)
		mc.PF.SetRange(0, prefetch.RangeConfig{
			Lo: cols.Base, Hi: cols.End(),
			LoadKernel: 1, PFKernel: prefetch.NoKernel,
			EWMAGroup: 0, Interval: true, TimedStart: true,
		})
	}

	check := func(mc *system.Machine, ret uint64, hasRet bool) error {
		if err := checkEq("conjgrad checksum", ret, want); err != nil {
			return err
		}
		if err := checkRegion("vecA", mc.Backing, vecA.Base, rows, wantA); err != nil {
			return err
		}
		return checkRegion("vecB", mc.Backing, vecB.Base, rows, wantB)
	}

	return &Instance{
		BuildFn: fn,
		Runs: []Run{{Args: []uint64{rowptr.Base, cols.Base, vals.Base,
			vecA.Base, vecB.Base, rows, cgReps}}},
		Manual: manual,
		Check:  check,
	}
}
