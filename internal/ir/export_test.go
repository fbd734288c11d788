package ir

// Decode flattens fn as NewInterp does, for FuzzParseIR in package ir_test:
// a function Verify accepts must decode without a panic.
func Decode(fn *Fn) { decode(fn) }

// CfgLoop builds: for (i = 0; i < n; i++) cfg bounds(slot 1, [i, i+64]).
// Arg 0 = n. Every iteration dispatches one Cfg op with operands of its own.
func CfgLoop() *Fn {
	b := NewBuilder("cfgloop", 1)
	entry := b.NewBlock("entry")
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")

	b.SetBlock(entry)
	n := b.Arg(0)
	zero := b.Const(0)
	b.Br(head)

	b.SetBlock(head)
	i := b.Phi()
	b.CondBr(b.Bin(CmpLTU, i, n), body, exit)

	b.SetBlock(body)
	b.Cfg(CfgInfo{Kind: CfgBounds, Slot: 1, LoadKernel: 2, PFKernel: -1, EWMAGroup: -1}, i, b.Add(i, b.Const(64)))
	i2 := b.Add(i, b.Const(1))
	b.Br(head)

	b.SetBlock(exit)
	b.Ret(NoValue)
	b.SetPhiArgs(i, zero, i2)
	return b.MustFinish()
}
