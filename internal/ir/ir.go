// Package ir defines the small SSA intermediate representation in which the
// benchmarks' timed kernels are written, playing the role LLVM IR plays in
// the paper. The same IR form feeds three consumers: the interpreter (which
// executes the kernel functionally and drives the simulated core with one
// micro-op per dynamic instruction), the software-prefetch-to-event
// conversion pass (the paper's Algorithm 1), and the pragma event-generation
// pass (§6.4).
package ir

// Op is an IR instruction opcode.
type Op int

// Instruction opcodes. All values are 64-bit integers; addresses are values.
const (
	Nop   Op = iota // removed instruction (left by DCE)
	Const           // materialise Imm
	Arg             // function argument Imm

	Add
	Sub
	Mul
	Div // unsigned
	Rem // unsigned
	And
	Or
	Xor
	Shl
	Shr // logical

	CmpEQ // 1 if A == B else 0
	CmpNE
	CmpLT  // signed
	CmpLTU // unsigned
	CmpGE  // signed
	CmpGEU // unsigned

	Phi // one incoming value per predecessor, in Preds order

	Load  // *A
	Store // *A = B
	SWPf  // software prefetch of address A
	Cfg   // prefetcher configuration (CfgInfo + evaluated Args)

	Br     // unconditional jump to Blocks[0]
	CondBr // if A != 0 jump to Blocks[0] else Blocks[1]
	Ret    // return A (or nothing if A == NoValue)
)

var opNames = map[Op]string{
	Nop: "nop", Const: "const", Arg: "arg",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", Shr: "shr",
	CmpEQ: "cmpeq", CmpNE: "cmpne", CmpLT: "cmplt", CmpLTU: "cmpltu",
	CmpGE: "cmpge", CmpGEU: "cmpgeu",
	Phi: "phi", Load: "load", Store: "store", SWPf: "swpf", Cfg: "cfg",
	Br: "br", CondBr: "condbr", Ret: "ret",
}

func (o Op) String() string { return opNames[o] }

// IsBinary reports whether the op takes two value operands A and B.
func (o Op) IsBinary() bool { return o >= Add && o <= CmpGEU }

// IsTerminator reports whether the op ends a basic block.
func (o Op) IsTerminator() bool { return o == Br || o == CondBr || o == Ret }

// Value identifies an instruction (and its SSA result) within a function.
type Value int

// NoValue marks an unused operand slot.
const NoValue Value = -1

// BlockID identifies a basic block within a function.
type BlockID int

// CfgKind selects which prefetcher-configuration action a Cfg instruction
// performs; the arguments are the instruction's Args, evaluated at run time.
type CfgKind int

// Configuration kinds.
const (
	// CfgBounds installs an address-filter range: Args = [lo, hi].
	CfgBounds CfgKind = iota
	// CfgGlobal writes a prefetcher global register: Args = [value].
	CfgGlobal
)

// NoKernelID marks an unset kernel reference in CfgInfo.
const NoKernelID = -1

// CfgInfo carries the compile-time constants of a Cfg instruction.
type CfgInfo struct {
	Kind       CfgKind
	Slot       int  // filter-table slot (CfgBounds)
	LoadKernel int  // kernel id run on demand-load observations, -1 none
	PFKernel   int  // kernel id run on prefetch-fill observations, -1 none
	EWMAGroup  int  // EWMA group this range participates in, -1 none
	Interval   bool // range is the EWMA interval source (e.g. the base array)
	TimedStart bool // loads here start a timed prefetch chain
	TimedEnd   bool // fills here end a timed prefetch chain
	GReg       int  // global register index (CfgGlobal)
}

// Instr is one IR instruction.
type Instr struct {
	Op     Op
	A, B   Value      // primary operands (NoValue if unused)
	Imm    int64      // Const value, Arg index
	Args   []Value    // Phi incoming values; Cfg arguments
	Blocks [2]BlockID // branch targets
	Info   *CfgInfo   // Cfg only
	Sym    string     // optional annotation: region name for memory ops
}

// Operands appends all value operands of the instruction to dst.
func (in *Instr) Operands(dst []Value) []Value {
	if in.A != NoValue {
		dst = append(dst, in.A)
	}
	if in.B != NoValue {
		dst = append(dst, in.B)
	}
	for _, a := range in.Args {
		if a != NoValue {
			dst = append(dst, a)
		}
	}
	return dst
}

// Block is a basic block: a run of instructions ending in a terminator.
type Block struct {
	ID     BlockID
	Instrs []Value
	Preds  []BlockID
	// Pragma marks a loop header annotated "#pragma prefetch" (§6.4).
	Pragma bool
	// Name is an optional label for printing.
	Name string
}

// Fn is a single-function IR unit. Functions cannot call other functions,
// mirroring the paper's restriction on PPU kernels and keeping benchmark
// kernels self-contained.
type Fn struct {
	Name   string
	NArgs  int
	Instrs []Instr
	Blocks []*Block
	Entry  BlockID
}

// Instr returns the instruction defining v.
func (f *Fn) Instr(v Value) *Instr { return &f.Instrs[v] }

// Block returns the block with the given id.
func (f *Fn) Block(id BlockID) *Block { return f.Blocks[id] }

// Succs returns the successor block ids of b: a view of its terminator's
// targets, which the caller must not modify.
func (f *Fn) Succs(b *Block) []BlockID {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := f.Instr(b.Instrs[len(b.Instrs)-1])
	switch last.Op {
	case Br:
		return last.Blocks[:1]
	case CondBr:
		return last.Blocks[:]
	}
	return nil
}

// Clone returns a deep copy of f that shares no memory with it, so a
// compiler pass may rewrite the copy while other goroutines read f. The
// copy's slices are carved from a few arrays, each capped at its length, so
// an append to one reallocates instead of writing over its neighbour.
func (f *Fn) Clone() *Fn {
	c := &Fn{Name: f.Name, NArgs: f.NArgs, Entry: f.Entry, Instrs: append([]Instr(nil), f.Instrs...)}
	nargs, ncfg := 0, 0
	for i := range f.Instrs {
		nargs += len(f.Instrs[i].Args)
		if f.Instrs[i].Info != nil {
			ncfg++
		}
	}
	args := make([]Value, 0, nargs)
	infos := make([]CfgInfo, 0, ncfg)
	for i := range c.Instrs {
		in := &c.Instrs[i]
		if in.Args != nil {
			args, in.Args = carve(args, in.Args)
		}
		if in.Info != nil {
			infos = append(infos, *in.Info)
			in.Info = &infos[len(infos)-1]
		}
	}
	nvals, npreds := 0, 0
	for _, b := range f.Blocks {
		nvals += len(b.Instrs)
		npreds += len(b.Preds)
	}
	vals := make([]Value, 0, nvals)
	preds := make([]BlockID, 0, npreds)
	blocks := make([]Block, len(f.Blocks))
	c.Blocks = make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		blocks[i] = *b
		if b.Instrs != nil {
			vals, blocks[i].Instrs = carve(vals, b.Instrs)
		}
		if b.Preds != nil {
			preds, blocks[i].Preds = carve(preds, b.Preds)
		}
		c.Blocks[i] = &blocks[i]
	}
	return c
}

// carve appends src to the array dst and returns the grown array and the
// appended part, capped at its length.
func carve[T any](dst, src []T) ([]T, []T) {
	n := len(dst)
	dst = append(dst, src...)
	return dst, dst[n:len(dst):len(dst)]
}

// defBlock returns the block containing each instruction.
func (f *Fn) defBlocks() []BlockID {
	db := make([]BlockID, len(f.Instrs))
	for i := range db {
		db[i] = -1
	}
	for _, b := range f.Blocks {
		for _, v := range b.Instrs {
			db[v] = b.ID
		}
	}
	return db
}
