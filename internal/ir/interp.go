package ir

import (
	"fmt"

	"eventpf/internal/cpu"
	"eventpf/internal/mem"
)

// ConfigSink receives the effects of Cfg instructions when they dispatch on
// the simulated core; the system package implements it over the
// programmable prefetcher.
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
type Interp struct {
	fn    *Fn
	bk    *mem.Backing
	sink  ConfigSink
	env   []uint64
	envOp []int64

	block *Block
	idx   int

	// phiVals/phiOps are enterBlock's scratch: the incoming values and
	// producer ids of a block's phis, read before any phi is written. They
	// are reused from one block entry to the next, hold nothing between
	// entries, and are not carried over by Clone.
	phiVals []uint64
	phiOps  []int64

	counter *int64 // shared dynamic micro-op numbering across a core run

	steps    int64
	maxSteps int64
	done     bool
	ret      uint64
	hasRet   bool
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
	it := &Interp{
		fn:       fn,
		bk:       bk,
		sink:     sink,
		env:      make([]uint64, len(fn.Instrs)),
		envOp:    make([]int64, len(fn.Instrs)),
		counter:  counter,
		maxSteps: 1 << 40,
	}
	// A Const or Arg has one value for the whole execution and no producing
	// op: set here once, so executing one is a no-op.
	for i := range fn.Instrs {
		it.envOp[i] = cpu.NoDep
		switch in := &fn.Instrs[i]; in.Op {
		case Const:
			it.env[i] = uint64(in.Imm)
		case Arg:
			it.env[i] = args[in.Imm]
		}
	}
	it.block = fn.Block(fn.Entry)
	return it
}

// Clone returns an interpreter positioned at exactly the same dynamic
// instruction as it, re-bound to a forked machine's backing store, config
// sink and shared micro-op counter. The function body is immutable and
// shared; the SSA environment and control position are deep-copied, so the
// clone and the original advance independently.
func (it *Interp) Clone(bk *mem.Backing, sink ConfigSink, counter *int64) *Interp {
	if sink == nil {
		sink = NopSink{}
	}
	c := &Interp{
		fn:       it.fn,
		bk:       bk,
		sink:     sink,
		env:      append([]uint64(nil), it.env...),
		envOp:    append([]int64(nil), it.envOp...),
		idx:      it.idx,
		counter:  counter,
		steps:    it.steps,
		maxSteps: it.maxSteps,
		done:     it.done,
		ret:      it.ret,
		hasRet:   it.hasRet,
	}
	if it.block != nil {
		c.block = c.fn.Block(it.block.ID)
	}
	return c
}

// SetMaxSteps bounds dynamic instruction count (a runaway-loop guard for
// tests); exceeding it panics.
func (it *Interp) SetMaxSteps(n int64) { it.maxSteps = n }

// Done reports whether execution has returned.
func (it *Interp) Done() bool { return it.done }

// Result returns the function's return value, valid once Done.
func (it *Interp) Result() (uint64, bool) { return it.ret, it.hasRet }

// Ops reports how many micro-ops this interpreter has emitted so far.
func (it *Interp) Ops() int64 { return *it.counter }

func (it *Interp) enterBlock(from BlockID, to BlockID) {
	b := it.fn.Block(to)
	n := 0
	if len(b.Instrs) > 0 && it.fn.Instr(b.Instrs[0]).Op == Phi {
		// The edge's pred slot is the same for every phi of the block.
		pi := -1
		for i, p := range b.Preds {
			if p == from {
				pi = i
				break
			}
		}
		if pi == -1 {
			panic(fmt.Sprintf("ir: %s: edge b%d→b%d has no pred slot", it.fn.Name, from, to))
		}
		// Evaluate phis in parallel: read all incomings before writing any.
		vals, ops := it.phiVals[:0], it.phiOps[:0]
		for _, v := range b.Instrs {
			in := it.fn.Instr(v)
			if in.Op != Phi {
				break
			}
			a := in.Args[pi]
			vals = append(vals, it.env[a])
			ops = append(ops, it.envOp[a])
		}
		n = len(vals)
		for i := 0; i < n; i++ {
			v := b.Instrs[i]
			it.env[v] = vals[i]
			it.envOp[v] = ops[i]
		}
		it.phiVals, it.phiOps = vals, ops
	}
	it.block = b
	it.idx = n
}

func (it *Interp) newOp() int64 {
	id := *it.counter
	*it.counter++
	return id
}

// emit overwrites *op with a micro-op that is not a taken branch and has no
// dispatch-time effect; the two ops that differ set that one field after.
func emit(op *cpu.MicroOp, kind cpu.OpKind, pc Value, addr uint64, dep0, dep1 int64) {
	op.Kind, op.PC, op.Addr = kind, int(pc), addr
	op.Deps[0], op.Deps[1] = dep0, dep1
	op.Taken, op.Do = false, nil
}

// Next implements cpu.Stream.
func (it *Interp) Next() (op cpu.MicroOp, ok bool) {
	ok = it.Fill(&op)
	return op, ok
}

// Fill implements cpu.Filler: it executes up to and including the next
// instruction that is a micro-op and writes that op into *op. Execution is
// functional at pull time — a store has reached the backing store when Fill
// returns — so ops must be pulled one at a time, as the core dispatches them.
func (it *Interp) Fill(op *cpu.MicroOp) bool {
	for !it.done {
		it.steps++
		if it.steps > it.maxSteps {
			panic(fmt.Sprintf("ir: %s exceeded %d steps", it.fn.Name, it.maxSteps))
		}
		v := it.block.Instrs[it.idx]
		in := it.fn.Instr(v)

		switch in.Op {
		case Nop, Const, Arg: // values set once by NewInterp
			it.idx++

		case Phi:
			panic("ir: phi encountered mid-block (verifier should prevent this)")

		case Load:
			addr := it.env[in.A]
			it.env[v] = it.bk.Read64(addr)
			dep := it.envOp[in.A]
			it.envOp[v] = it.newOp()
			it.idx++
			emit(op, cpu.OpLoad, v, addr, dep, cpu.NoDep)
			return true

		case Store:
			addr := it.env[in.A]
			it.bk.Write64(addr, it.env[in.B])
			it.newOp()
			it.idx++
			emit(op, cpu.OpStore, v, addr, it.envOp[in.A], it.envOp[in.B])
			return true

		case SWPf:
			it.newOp()
			it.idx++
			emit(op, cpu.OpSWPf, v, it.env[in.A], it.envOp[in.A], cpu.NoDep)
			return true

		case Cfg:
			args := make([]uint64, len(in.Args))
			var dep int64 = cpu.NoDep
			for i, a := range in.Args {
				args[i] = it.env[a]
				if it.envOp[a] != cpu.NoDep {
					dep = it.envOp[a]
				}
			}
			info := *in.Info
			sink := it.sink
			it.newOp()
			it.idx++
			emit(op, cpu.OpConfig, v, 0, dep, cpu.NoDep)
			op.Do = func() { sink.Configure(info, args) }
			return true

		case Br:
			it.enterBlock(it.block.ID, in.Blocks[0])

		case CondBr:
			taken := it.env[in.A] != 0
			target := in.Blocks[1]
			if taken {
				target = in.Blocks[0]
			}
			dep := it.envOp[in.A]
			it.newOp()
			it.enterBlock(it.block.ID, target)
			emit(op, cpu.OpBranch, v, 0, dep, cpu.NoDep)
			op.Taken = taken
			return true

		case Ret:
			if in.A != NoValue {
				it.ret = it.env[in.A]
				it.hasRet = true
			}
			it.done = true

		default: // binary ops
			dep0, dep1 := it.envOp[in.A], it.envOp[in.B]
			it.env[v] = evalBin(in.Op, it.env[in.A], it.env[in.B])
			it.envOp[v] = it.newOp()
			kind := cpu.OpInt
			switch in.Op {
			case Mul:
				kind = cpu.OpMul
			case Div, Rem:
				kind = cpu.OpDiv
			}
			it.idx++
			emit(op, kind, v, 0, dep0, dep1)
			return true
		}
	}
	return false
}

func evalBin(op Op, a, b uint64) uint64 {
	switch op {
	case Add:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return a * b
	case Div:
		if b == 0 {
			panic("ir: division by zero")
		}
		return a / b
	case Rem:
		if b == 0 {
			panic("ir: remainder by zero")
		}
		return a % b
	case And:
		return a & b
	case Or:
		return a | b
	case Xor:
		return a ^ b
	case Shl:
		return a << (b & 63)
	case Shr:
		return a >> (b & 63)
	case CmpEQ:
		return bool64(a == b)
	case CmpNE:
		return bool64(a != b)
	case CmpLT:
		return bool64(int64(a) < int64(b))
	case CmpLTU:
		return bool64(a < b)
	case CmpGE:
		return bool64(int64(a) >= int64(b))
	case CmpGEU:
		return bool64(a >= b)
	}
	panic("ir: evalBin on " + op.String())
}

func bool64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
