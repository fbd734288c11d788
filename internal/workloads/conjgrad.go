package workloads

import (
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

var (
	conjgradProgram = loadProgram("conjgrad")
	conjgradKernels = [][]ppu.Instr{ppuKernel("conjgrad.1.ppu"), ppuKernel("conjgrad.2.ppu")}
)

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

	manual := withKernels(conjgradKernels, func(mc *system.Machine) {
		mc.PF.SetGlobal(0, cols.Base)
		mc.PF.SetGlobal(1, vals.Base)
		mc.PF.SetGlobal(2, vecA.Base)
		mc.PF.SetRange(0, prefetch.RangeConfig{
			Lo: cols.Base, Hi: cols.End(),
			LoadKernel: 1, PFKernel: prefetch.NoKernel,
			EWMAGroup: 0, Interval: true, TimedStart: true,
		})
	})

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
		BuildFn: conjgradProgram.build,
		Runs: []Run{{Args: []uint64{rowptr.Base, cols.Base, vals.Base,
			vecA.Base, vecB.Base, rows, cgReps}}},
		Manual: manual,
		Check:  check,
	}
}
