package eventpf_test

import (
	"fmt"

	"eventpf"
)

// Example runs one Table 2 benchmark without prefetching and under five
// schemes, and prints each scheme's speedup.
func Example() {
	bench, _ := eventpf.BenchmarkByName("HJ-8")
	opt := eventpf.Options{Scale: 0.02}
	base, err := eventpf.Run(bench, eventpf.NoPF, opt)
	if err != nil {
		panic(err)
	}
	for _, s := range []eventpf.Scheme{
		eventpf.Stride, eventpf.Software, eventpf.Pragma, eventpf.Converted, eventpf.Manual,
	} {
		r, err := eventpf.Run(bench, s, opt)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-10s %.1fx\n", s.String()+":", eventpf.Speedup(base, r))
	}
	// Output:
	// stride:    1.0x
	// software:  1.2x
	// pragma:    1.1x
	// converted: 1.2x
	// manual:    5.5x
}

// ExampleAssemble shows the figure 4(b) "on_A_load" kernel: on a demand
// load of array A, prefetch two cache lines ahead, chaining to kernel 2.
func ExampleAssemble() {
	prog, err := eventpf.Assemble(`
		vaddr r1
		addi  r1, r1, 128
		pftag r1, 2
		halt
	`)
	if err != nil {
		panic(err)
	}
	fmt.Print(eventpf.Disassemble(prog))
	// Output:
	//   0: vaddr r1
	//   1: addi r1, r1, 128
	//   2: pftag r1, 2
	//   3: halt
}

// ExampleParseIR reads a tiny kernel and prints it. Values are numbered by
// their position in the text, so the printed numbers can differ from the
// source's.
func ExampleParseIR() {
	fn, err := eventpf.ParseIR(`
func double(1 args) {
b0 <entry>:
  v0 = arg 0
  v1 = const 2
  v5 = mul v0, v1
  ret v5
}
`)
	if err != nil {
		panic(err)
	}
	fmt.Print(fn)
	// Output:
	// func double(1 args) {
	// b0 <entry>:
	//   v0 = arg 0
	//   v1 = const 2
	//   v2 = mul v0, v1
	//   ret v2
	// }
}

// fig5a is the paper's figure 5(a) loop with its software prefetch:
//
//	for (x = 0; x < N; x++) { swpf(&C[B[A[x+16]]]); acc += C[B[A[x]]]; }
//
// Args: 0=A, 1=B, 2=C, 3=N.
const fig5a = `
func fig5a(4 args) {
b0 <entry>:
  v0 = arg 0
  v1 = arg 1
  v2 = arg 2
  v3 = arg 3
  v4 = const 0
  br b1
b1 <head>:  ; preds: b0 b2
  v6 = phi [v4, v33]
  v7 = phi [v4, v31]
  v8 = cmpltu v6, v3
  condbr v8, b2, b3
b2 <body>:  ; preds: b1
  v10 = const 3
  v11 = const 16
  v12 = add v6, v11
  v13 = shl v12, v10
  v14 = add v0, v13
  v15 = load v14 ; A
  v16 = shl v15, v10
  v17 = add v1, v16
  v18 = load v17 ; B
  v19 = shl v18, v10
  v20 = add v2, v19
  swpf v20 ; C
  v22 = shl v6, v10
  v23 = add v0, v22
  v24 = load v23 ; A
  v25 = shl v24, v10
  v26 = add v1, v25
  v27 = load v26 ; B
  v28 = shl v27, v10
  v29 = add v2, v28
  v30 = load v29 ; C
  v31 = add v7, v30
  v32 = const 1
  v33 = add v6, v32
  br b1
b3 <exit>:  ; preds: b1
  ret v7
}
`

// fig5Plain is the same loop without any prefetching.
const fig5Plain = `
func fig5plain(4 args) {
b0 <entry>:
  v0 = arg 0
  v1 = arg 1
  v2 = arg 2
  v3 = arg 3
  v4 = const 0
  br b1
b1 <head>:  ; preds: b0 b2
  v6 = phi [v4, v22]
  v7 = phi [v4, v20]
  v8 = cmpltu v6, v3
  condbr v8, b2, b3
b2 <body>:  ; preds: b1
  v10 = const 3
  v11 = shl v6, v10
  v12 = add v0, v11
  v13 = load v12 ; A
  v14 = shl v13, v10
  v15 = add v1, v14
  v16 = load v15 ; B
  v17 = shl v16, v10
  v18 = add v2, v17
  v19 = load v18 ; C
  v20 = add v7, v19
  v21 = const 1
  v22 = add v6, v21
  br b1
b3 <exit>:  ; preds: b1
  ret v7
}
`

// ExampleConvertSoftwarePrefetches shows the paper's §6 compiler pipeline
// on the Figure 5 loop: Algorithm 1 turns the hand-written software
// prefetch into a chain of PPU event kernels, and then the automatic path
// inserts the software prefetches itself before converting them.
func ExampleConvertSoftwarePrefetches() {
	fn, err := eventpf.ParseIR(fig5a)
	if err != nil {
		panic(err)
	}
	res, err := eventpf.ConvertSoftwarePrefetches(fn, eventpf.NewCompilerAlloc())
	if err != nil {
		panic(err)
	}
	fmt.Printf("converted %d chain(s) into %d kernels\n", res.Converted, len(res.Kernels))
	for id := 1; id <= len(res.Kernels); id++ {
		fmt.Printf("kernel %d:\n%s", id, eventpf.Disassemble(res.Kernels[id]))
	}

	plain, err := eventpf.ParseIR(fig5Plain)
	if err != nil {
		panic(err)
	}
	n := eventpf.InsertSoftwarePrefetches(plain, 16)
	res, err = eventpf.ConvertSoftwarePrefetches(plain, eventpf.NewCompilerAlloc())
	if err != nil {
		panic(err)
	}
	fmt.Printf("automatic: inserted %d software-prefetch chain(s); converted %d into %d kernels\n", n, res.Converted, len(res.Kernels))
	// Output:
	// converted 1 chain(s) into 3 kernels
	// kernel 1:
	//   0: vaddr r1
	//   1: ldg r2, g0
	//   2: sub r1, r1, r2
	//   3: shri r1, r1, 3
	//   4: movi r3, 16
	//   5: movi r4, 3
	//   6: ldg r5, g0
	//   7: add r3, r1, r3
	//   8: shl r4, r3, r4
	//   9: add r4, r5, r4
	//  10: pftag r4, 2
	//  11: halt
	// kernel 2:
	//   0: lddata r1
	//   1: movi r2, 3
	//   2: ldg r3, g1
	//   3: shl r2, r1, r2
	//   4: add r2, r3, r2
	//   5: pftag r2, 3
	//   6: halt
	// kernel 3:
	//   0: lddata r1
	//   1: movi r2, 3
	//   2: ldg r3, g2
	//   3: shl r2, r1, r2
	//   4: add r2, r3, r2
	//   5: pf r2
	//   6: halt
	// automatic: inserted 1 software-prefetch chain(s); converted 2 into 4 kernels
}

// probe is Figure 1's hash-join probe: for each probe key, hash it, fetch
// the bucket head and walk the chain, summing the values of matching nodes.
// Args: 0=probe keys, 1=bucket heads, 2=key count, 3=hash multiplier,
// 4=hash shift. A node is one cache line: key, value, next.
const probe = `
func probe(5 args) {
b0 <entry>:
  v0 = arg 0
  v1 = arg 1
  v2 = arg 2
  v3 = arg 3
  v4 = arg 4
  v5 = const 0
  v6 = const 1
  v7 = const 3
  br b1
b1 <head>:  ; preds: b0 b7
  v9 = phi [v5, v39]
  v10 = phi [v5, v23]
  v11 = cmpltu v9, v2
  condbr v11, b2, b8
b2 <body>:  ; preds: b1
  v13 = shl v9, v7
  v14 = add v0, v13
  v15 = load v14 ; skey
  v16 = mul v15, v3
  v17 = shr v16, v4
  v18 = shl v17, v7
  v19 = add v1, v18
  v20 = load v19 ; htab
  br b3
b3 <walk.head>:  ; preds: b2 b6
  v22 = phi [v20, v37]
  v23 = phi [v10, v34]
  v24 = cmpne v22, v5
  condbr v24, b4, b7
b4 <walk.body>:  ; preds: b3
  v26 = load v22 ; nodes
  v27 = cmpeq v26, v15
  condbr v27, b5, b6
b5 <walk.match>:  ; preds: b4
  v29 = const 8
  v30 = add v22, v29
  v31 = load v30 ; nodes
  v32 = add v23, v31
  br b6
b6 <walk.latch>:  ; preds: b4 b5
  v34 = phi [v23, v32]
  v35 = const 16
  v36 = add v22, v35
  v37 = load v36 ; nodes
  br b3
b7 <walk.exit>:  ; preds: b3
  v39 = add v9, v6
  br b1
b8 <exit>:  ; preds: b1
  ret v10
}
`

// The hash join's PPU event kernels (§5), the key → bucket → node chain.
var probeKernels = []string{
	// 1, on probe-key loads: fetch the key EWMA-distance ahead.
	`ldewma r2, e0
	 shli   r2, r2, 3
	 vaddr  r1
	 add    r1, r1, r2
	 pftag  r1, 2
	 halt`,
	// 2, the future key arrived: hash it and fetch its bucket head.
	`lddata r1
	 ldg    r2, g0
	 mul    r1, r1, r2
	 ldg    r3, g1
	 shr    r1, r1, r3
	 shli   r1, r1, 3
	 ldg    r4, g2
	 add    r1, r1, r4
	 pftag  r1, 3
	 halt`,
	// 3, the bucket head arrived: chase the first node.
	`lddata r1
	 movi   r2, 0
	 beq    r1, r2, done
	 pftag  r1, 4
	done:
	 halt`,
	// 4, a node arrived: walk to the next one, a kernel-level loop the
	// compiler passes cannot express.
	`ldlinei r1, 16
	 movi    r2, 0
	 beq     r1, r2, done
	 pftag   r1, 4
	done:
	 halt`,
}

// ExampleNewMachine is the full custom-workload path: the data in the
// machine's functional memory, the timed kernel as IR text, hand-written
// PPU event kernels and a filter range; it runs the probe with and without
// the programmable prefetcher.
func ExampleNewMachine() {
	const (
		nTuples = 1 << 12
		hashMul = 0x9E3779B97F4A7C15
		logNB   = 9 // 512 buckets, 8 tuples a chain
		shift   = 64 - logNB
	)
	fn, err := eventpf.ParseIR(probe)
	if err != nil {
		panic(err)
	}
	run := func(scheme eventpf.MachineScheme) (sum uint64, cycles int64) {
		m := eventpf.NewMachine(eventpf.DefaultMachineConfig(), scheme)
		skey := m.Arena.AllocWords("skey", nTuples)
		htab := m.Arena.AllocWords("htab", 1<<logNB)
		nodes := m.Arena.AllocWords("nodes", nTuples*8)
		seed := uint64(7)
		for i := uint64(0); i < nTuples; i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			k := seed | 1
			m.Backing.Write64(skey.Base+i*8, k)
			node, head := nodes.Base+i*64, htab.Base+(k*hashMul)>>shift*8
			m.Backing.Write64(node, k)
			m.Backing.Write64(node+8, k&0xFF)
			m.Backing.Write64(node+16, m.Backing.Read64(head))
			m.Backing.Write64(head, node)
		}
		if scheme == eventpf.MachineProgrammable {
			for i, src := range probeKernels {
				m.RegisterKernel(i+1, eventpf.MustAssemble(src))
			}
			m.PF.SetGlobal(0, hashMul)
			m.PF.SetGlobal(1, shift)
			m.PF.SetGlobal(2, htab.Base)
			m.PF.SetRange(0, eventpf.RangeConfig{
				Lo: skey.Base, Hi: skey.End(),
				LoadKernel: 1, PFKernel: eventpf.NoKernel,
				EWMAGroup: 0, Interval: true, TimedStart: true,
			})
		}
		it := m.NewInterp(fn, skey.Base, htab.Base, nTuples, hashMul, shift)
		res := m.Run(it)
		sum, _ = it.Result()
		return sum, res.Cycles
	}
	sum, base := run(eventpf.MachineNoPF)
	pfSum, pf := run(eventpf.MachineProgrammable)
	fmt.Println("join sum:", sum, pfSum)
	fmt.Printf("speedup: %.1fx\n", float64(base)/float64(pf))
	// Output:
	// join sum: 524288 524288
	// speedup: 2.4x
}
