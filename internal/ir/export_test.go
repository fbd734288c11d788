package ir

// Decode flattens fn as NewInterp does, for FuzzParseIR in package ir_test:
// a function Verify accepts must decode without a panic.
func Decode(fn *Fn) { decode(fn) }

// CfgLoop is: for (i = 0; i < n; i++) cfg bounds(slot 1, [i, i+64]).
// Arg 0 = n. Every iteration dispatches one Cfg op with operands of its own.
func CfgLoop() *Fn {
	fn, err := Parse(`
func cfgloop(1 args) {
b0 <entry>:
  v0 = arg 0
  v1 = const 0
  br b1
b1 <head>:  ; preds: b0 b2
  v3 = phi [v1, v10]
  v4 = cmpltu v3, v0
  condbr v4, b2, b3
b2 <body>:  ; preds: b1
  v6 = const 64
  v7 = add v3, v6
  cfg {Kind:0 Slot:1 LoadKernel:2 PFKernel:-1 EWMAGroup:-1 Interval:false TimedStart:false TimedEnd:false GReg:0} args=[3 7]
  v9 = const 1
  v10 = add v3, v9
  br b1
b3 <exit>:  ; preds: b1
  ret _
}
`)
	if err != nil {
		panic(err)
	}
	return fn
}
