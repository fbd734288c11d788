package ir

import (
	"fmt"
	"slices"

	"eventpf/internal/cpu"
	"eventpf/internal/mem"
)

// ConfigSink receives the effects of Cfg instructions when they dispatch on
// the simulated core; the system package implements it over the
// programmable prefetcher. args belongs to the interpreter and is valid only
// for the call.
type ConfigSink interface {
	Configure(info CfgInfo, args []uint64)
}

// NopSink discards configuration (used when running without the
// programmable prefetcher; the instructions still cost pipeline slots).
type NopSink struct{}

// Configure implements ConfigSink by doing nothing.
func (NopSink) Configure(CfgInfo, []uint64) {}

// Interp executes a function against the functional backing store while
// producing the corresponding micro-op stream for the core timing model:
// one micro-op per dynamic arithmetic, memory, branch or configuration
// instruction, with data dependences threaded through SSA values (and
// through phis, so loop-carried chains such as linked-list walks serialise
// exactly as they would in hardware).
//
// NewInterp decodes the function once into a program (see program); Fill
// walks that program from pc.
type Interp struct {
	prog program
	bk   *mem.Backing
	sink ConfigSink
	env  []slot
	pc   int32 // index into prog.code of the next op to execute

	counter *int64 // shared dynamic micro-op numbering across a core run

	steps    int64
	maxSteps int64
	done     bool
	ret      uint64
	hasRet   bool

	// cfgInfo and cfgArgs are the last Cfg op's configuration, and doCfg,
	// bound to this interpreter once, hands them to sink: it is every Cfg
	// op's Do. One slot is enough because Do runs before the next Fill
	// (cpu.MicroOp.Do).
	cfgInfo CfgInfo
	cfgArgs []uint64
	doCfg   func()
}

// slot is one SSA value at run time: the value, and the id of the micro-op
// that produced it (cpu.NoDep for a constant or argument, which no op
// produces).
type slot struct {
	val uint64
	op  int64
}

// program is a function flattened for execution. Const, Arg and Nop are not
// in it: NewInterp sets the values of the first two once, and the third has
// none. Each remaining instruction is one op in code, block after block, and
// each branch names edges instead of blocks: where the edge lands (past the
// target's phis) and the phi moves made on the way. Every field is immutable
// after decode, so clones share a program.
type program struct {
	fn    *Fn
	code  []dop
	edges []edge
	moves []move
	traps []string // panic messages of the trap ops
	entry int32    // pc of the entry block's first op
	slots int      // env size: one slot per instruction, then phi staging
}

// dop is one decoded op. op is the instruction's Op, or trap; kind is the
// micro-op kind it emits. v is the instruction's value: the slot it writes
// and the micro-op's PC. a and b are operand slots, except that Br's a and
// CondBr's b index edges (CondBr's not-taken edge is b+1), and trap's a
// indexes traps.
type dop struct {
	op   uint8
	kind uint8
	v    int32
	a, b int32
}

// trap is the decoded op that panics with a message found at decode time:
// a phi that is not at the start of its block, a branch edge the target's
// phis have no incoming value for, a block without a terminator. Verify
// rejects all three; a function that skipped it panics only if it reaches
// one, as an interpreter walking the Fn would.
const trap = Ret + 1

// edge is a branch edge: the pc it lands on and its phi moves,
// moves[lo:hi], made in order.
type edge struct{ pc, lo, hi int32 }

// move copies slot src to slot dst.
type move struct{ dst, src int32 }

// opKind maps each instruction that emits a micro-op to the op's kind; the
// binary ops not listed are cpu.OpInt.
var opKind = [Ret + 1]cpu.OpKind{
	Mul: cpu.OpMul, Div: cpu.OpDiv, Rem: cpu.OpDiv,
	Load: cpu.OpLoad, Store: cpu.OpStore, SWPf: cpu.OpSWPf, Cfg: cpu.OpConfig,
	CondBr: cpu.OpBranch,
}

// leadingPhis returns how many phis open block b.
func leadingPhis(fn *Fn, b *Block) int {
	n := 0
	for n < len(b.Instrs) && fn.Instrs[b.Instrs[n]].Op == Phi {
		n++
	}
	return n
}

// decode flattens fn. A first pass places every block, so the second can
// resolve each branch edge as it emits the branch. Trap ops found while
// resolving edges go after the last block.
func decode(fn *Fn) program {
	p := program{fn: fn, slots: len(fn.Instrs)}
	blockPC := make([]int32, len(fn.Blocks))
	var pc, nedges, nmoves int
	for i, b := range fn.Blocks {
		n := leadingPhis(fn, b)
		if BlockID(i) == fn.Entry && n > 0 {
			pc++ // the entry is not entered along an edge: its phis trap
		}
		blockPC[i] = int32(pc)
		for _, v := range b.Instrs[n:] {
			switch fn.Instrs[v].Op {
			case Nop, Const, Arg:
				continue
			case Br:
				nedges++
			case CondBr:
				nedges += 2
			}
			pc++
		}
		if !terminated(fn, b) {
			pc++
		}
		nmoves += n * len(b.Preds)
	}
	bodyLen := pc
	p.entry = blockPC[fn.Entry]
	if leadingPhis(fn, fn.Blocks[fn.Entry]) > 0 {
		p.entry-- // the trap placed before the entry block
	}

	p.code = make([]dop, 0, bodyLen)
	p.edges = make([]edge, 0, nedges)
	p.moves = make([]move, 0, nmoves)
	var tail []dop
	trapOp := func(format string, args ...any) dop {
		p.traps = append(p.traps, fmt.Sprintf(format, args...))
		return dop{op: uint8(trap), a: int32(len(p.traps) - 1)}
	}
	addEdge := func(from, to BlockID) {
		e, msg := p.edge(from, to, blockPC)
		if msg != "" {
			e = edge{pc: int32(bodyLen + len(tail))}
			tail = append(tail, trapOp("ir: %s: %s", fn.Name, msg))
		}
		p.edges = append(p.edges, e)
	}
	for i, b := range fn.Blocks {
		n := leadingPhis(fn, b)
		if BlockID(i) == fn.Entry && n > 0 {
			p.code = append(p.code, trapOp("ir: phi encountered mid-block (verifier should prevent this)"))
		}
		for _, v := range b.Instrs[n:] {
			in := &fn.Instrs[v]
			var d dop
			switch op := in.Op; {
			case op == Nop, op == Const, op == Arg:
				continue
			case op == Phi:
				d = trapOp("ir: phi encountered mid-block (verifier should prevent this)")
			case op < Nop || op > Ret:
				d = trapOp("ir: %s: v%d has unknown op %d", fn.Name, v, op)
			default:
				d = dop{op: uint8(op), kind: uint8(opKind[op]), v: int32(v), a: int32(in.A), b: int32(in.B)}
				switch op {
				case Br:
					d.a = int32(len(p.edges))
					addEdge(b.ID, in.Blocks[0])
				case CondBr:
					d.b = int32(len(p.edges))
					addEdge(b.ID, in.Blocks[0])
					addEdge(b.ID, in.Blocks[1])
				}
			}
			p.code = append(p.code, d)
		}
		if !terminated(fn, b) {
			p.code = append(p.code, trapOp("ir: %s: block b%d ends without a terminator", fn.Name, b.ID))
		}
	}
	p.code = append(p.code, tail...)
	return p
}

// terminated reports whether block b ends in a terminator.
func terminated(fn *Fn, b *Block) bool {
	return len(b.Instrs) > 0 && fn.Instrs[b.Instrs[len(b.Instrs)-1]].Op.IsTerminator()
}

// edge resolves the branch edge from→to, appending its phi moves; a
// non-empty msg says why the edge cannot be taken. The target's phis are
// evaluated in parallel, every incoming value read before any phi is
// written; when a move would read a slot an earlier move of the edge wrote
// (phis that swap, as the Graph500 queues do), the edge stages every value
// in slots past the instructions' and writes the phis from there.
func (p *program) edge(from, to BlockID, blockPC []int32) (e edge, msg string) {
	fn := p.fn
	if to < 0 || int(to) >= len(fn.Blocks) {
		return e, fmt.Sprintf("branch from b%d to missing block b%d", from, to)
	}
	t := fn.Blocks[to]
	e = edge{pc: blockPC[to], lo: int32(len(p.moves))}
	n := leadingPhis(fn, t)
	if n > 0 {
		pi := slices.Index(t.Preds, from)
		if pi < 0 {
			return e, fmt.Sprintf("edge b%d→b%d has no pred slot", from, to)
		}
		for _, v := range t.Instrs[:n] {
			args := fn.Instrs[v].Args
			if pi >= len(args) {
				p.moves = p.moves[:e.lo]
				return e, fmt.Sprintf("phi v%d has no incoming value for edge b%d→b%d", v, from, to)
			}
			p.moves = append(p.moves, move{dst: int32(v), src: int32(args[pi])})
		}
		if !sequential(p.moves[e.lo:]) {
			// The edge's n moves become n moves into staging slots, followed
			// by n moves from there into the phis.
			stage := int32(len(fn.Instrs)) - e.lo
			for i := e.lo; i < e.lo+int32(n); i++ {
				p.moves = append(p.moves, move{dst: p.moves[i].dst, src: stage + i})
				p.moves[i].dst = stage + i
			}
			p.slots = max(p.slots, len(fn.Instrs)+n)
		}
	}
	e.hi = int32(len(p.moves))
	return e, ""
}

// sequential reports whether making ms in order equals making them in
// parallel: no move reads a slot an earlier one wrote.
func sequential(ms []move) bool {
	for j := range ms {
		for i := range ms[:j] {
			if ms[j].src == ms[i].dst {
				return false
			}
		}
	}
	return true
}

// NewInterp prepares an execution of fn. counter is the shared dynamic
// micro-op counter for the core run (so several interpreters can be
// sequenced into one stream); pass new(int64) for a standalone run.
func NewInterp(fn *Fn, bk *mem.Backing, sink ConfigSink, counter *int64, args ...uint64) *Interp {
	if len(args) != fn.NArgs {
		panic(fmt.Sprintf("ir: %s expects %d args, got %d", fn.Name, fn.NArgs, len(args)))
	}
	if sink == nil {
		sink = NopSink{}
	}
	prog := decode(fn)
	it := &Interp{
		prog:     prog,
		bk:       bk,
		sink:     sink,
		env:      make([]slot, prog.slots),
		pc:       prog.entry,
		counter:  counter,
		maxSteps: 1 << 40,
	}
	it.doCfg = it.configure
	// A Const or Arg has one value for the whole execution and no producing
	// op: set here once, so the program need not hold it.
	for i := range it.env {
		it.env[i].op = cpu.NoDep
	}
	for i := range fn.Instrs {
		switch in := &fn.Instrs[i]; in.Op {
		case Const:
			it.env[i].val = uint64(in.Imm)
		case Arg:
			it.env[i].val = args[in.Imm]
		}
	}
	return it
}

// Clone returns an interpreter positioned at exactly the same dynamic
// instruction as it, re-bound to a forked machine's backing store, config
// sink and shared micro-op counter. The decoded program is immutable and
// shared; the SSA environment is copied, so the clone and the original
// advance independently.
func (it *Interp) Clone(bk *mem.Backing, sink ConfigSink, counter *int64) *Interp {
	if sink == nil {
		sink = NopSink{}
	}
	c := *it
	c.bk, c.sink, c.counter = bk, sink, counter
	c.env = slices.Clone(it.env)
	c.cfgArgs, c.doCfg = nil, c.configure
	return &c
}

// configure applies the last Cfg op; it is that op's Do.
func (it *Interp) configure() { it.sink.Configure(it.cfgInfo, it.cfgArgs) }

// SetMaxSteps bounds how many decoded ops — micro-ops and unconditional
// jumps — the interpreter executes (a runaway-loop guard for tests);
// exceeding it panics.
func (it *Interp) SetMaxSteps(n int64) { it.maxSteps = n }

// Done reports whether execution has returned.
func (it *Interp) Done() bool { return it.done }

// Result returns the function's return value, valid once Done.
func (it *Interp) Result() (uint64, bool) { return it.ret, it.hasRet }

// Ops reports how many micro-ops this interpreter has emitted so far.
func (it *Interp) Ops() int64 { return *it.counter }

func (it *Interp) newOp() int64 {
	id := *it.counter
	*it.counter++
	return id
}

// jump takes edge e: its phi moves, then its landing pc.
func (it *Interp) jump(e int32) {
	ed := &it.prog.edges[e]
	for _, m := range it.prog.moves[ed.lo:ed.hi] {
		it.env[m.dst] = it.env[m.src]
	}
	it.pc = ed.pc
}

// emit overwrites *op with a micro-op that is not a taken branch and has no
// dispatch-time effect; the two ops that differ set that one field after.
func emit(op *cpu.MicroOp, kind uint8, pc int32, addr uint64, dep0, dep1 int64) {
	op.Kind, op.PC, op.Addr = cpu.OpKind(kind), int(pc), addr
	op.Deps[0], op.Deps[1] = dep0, dep1
	op.Taken, op.Do = false, nil
}

// Next implements cpu.Stream.
func (it *Interp) Next() (op cpu.MicroOp, ok bool) {
	ok = it.Fill(&op)
	return op, ok
}

// Fill implements cpu.Filler: it executes up to and including the next op
// that is a micro-op and writes that op into *op. Execution is functional at
// pull time — a store has reached the backing store when Fill returns — so
// ops must be pulled one at a time, as the core dispatches them.
func (it *Interp) Fill(op *cpu.MicroOp) bool {
	if it.done {
		return false
	}
	code, env := it.prog.code, it.env
	for {
		it.steps++
		if it.steps > it.maxSteps {
			panic(fmt.Sprintf("ir: %s exceeded %d steps", it.prog.fn.Name, it.maxSteps))
		}
		d := &code[it.pc]
		it.pc++

		var r uint64
		switch Op(d.op) {
		case Add:
			r = env[d.a].val + env[d.b].val
		case Sub:
			r = env[d.a].val - env[d.b].val
		case Mul:
			r = env[d.a].val * env[d.b].val
		case Div:
			y := env[d.b].val
			if y == 0 {
				panic("ir: division by zero")
			}
			r = env[d.a].val / y
		case Rem:
			y := env[d.b].val
			if y == 0 {
				panic("ir: remainder by zero")
			}
			r = env[d.a].val % y
		case And:
			r = env[d.a].val & env[d.b].val
		case Or:
			r = env[d.a].val | env[d.b].val
		case Xor:
			r = env[d.a].val ^ env[d.b].val
		case Shl:
			r = env[d.a].val << (env[d.b].val & 63)
		case Shr:
			r = env[d.a].val >> (env[d.b].val & 63)
		case CmpEQ:
			r = bool64(env[d.a].val == env[d.b].val)
		case CmpNE:
			r = bool64(env[d.a].val != env[d.b].val)
		case CmpLT:
			r = bool64(int64(env[d.a].val) < int64(env[d.b].val))
		case CmpLTU:
			r = bool64(env[d.a].val < env[d.b].val)
		case CmpGE:
			r = bool64(int64(env[d.a].val) >= int64(env[d.b].val))
		case CmpGEU:
			r = bool64(env[d.a].val >= env[d.b].val)

		case Load:
			a := env[d.a]
			dst := &env[d.v]
			dst.val = it.bk.Read64(a.val)
			dst.op = it.newOp()
			emit(op, d.kind, d.v, a.val, a.op, cpu.NoDep)
			return true

		case Store:
			a, b := env[d.a], env[d.b]
			it.bk.Write64(a.val, b.val)
			it.newOp()
			emit(op, d.kind, d.v, a.val, a.op, b.op)
			return true

		case SWPf:
			a := env[d.a]
			it.newOp()
			emit(op, d.kind, d.v, a.val, a.op, cpu.NoDep)
			return true

		case Cfg:
			in := &it.prog.fn.Instrs[d.v]
			it.cfgArgs = it.cfgArgs[:0]
			var dep int64 = cpu.NoDep
			for _, a := range in.Args {
				it.cfgArgs = append(it.cfgArgs, env[a].val)
				if env[a].op != cpu.NoDep {
					dep = env[a].op
				}
			}
			it.cfgInfo = *in.Info
			it.newOp()
			emit(op, d.kind, d.v, 0, dep, cpu.NoDep)
			op.Do = it.doCfg
			return true

		case Br:
			it.jump(d.a)
			continue

		case CondBr:
			c := env[d.a]
			e := d.b
			if c.val == 0 {
				e++
			}
			it.newOp()
			it.jump(e)
			emit(op, d.kind, d.v, 0, c.op, cpu.NoDep)
			op.Taken = c.val != 0
			return true

		case Ret:
			if d.a != int32(NoValue) {
				it.ret = env[d.a].val
				it.hasRet = true
			}
			it.done = true
			return false

		case trap:
			panic(it.prog.traps[d.a])
		}

		// A binary op.
		dep0, dep1 := env[d.a].op, env[d.b].op
		dst := &env[d.v]
		dst.val = r
		dst.op = it.newOp()
		emit(op, d.kind, d.v, 0, dep0, dep1)
		return true
	}
}

func bool64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
