package ir

import (
	"fmt"

	"eventpf/internal/cpu"
	"eventpf/internal/mem"
)

// RefInterp is the interpreter as it was before functions were decoded: a
// switch over the Fn's own instructions, block by block, searching the
// target's predecessor list on every block entry. The decoded Interp must
// produce exactly its micro-ops, return values and stores
// (TestInterpMatchesReference); it is exported for that test, which needs the
// workloads and lives in package ir_test.
type RefInterp struct {
	fn    *Fn
	bk    *mem.Backing
	sink  ConfigSink
	env   []uint64
	envOp []int64

	block *Block
	idx   int

	phiVals []uint64
	phiOps  []int64

	counter *int64
	done    bool
	ret     uint64
	hasRet  bool
}

// NewRefInterp is NewInterp for the reference interpreter.
func NewRefInterp(fn *Fn, bk *mem.Backing, sink ConfigSink, counter *int64, args ...uint64) *RefInterp {
	if len(args) != fn.NArgs {
		panic(fmt.Sprintf("ir: %s expects %d args, got %d", fn.Name, fn.NArgs, len(args)))
	}
	if sink == nil {
		sink = NopSink{}
	}
	it := &RefInterp{
		fn:      fn,
		bk:      bk,
		sink:    sink,
		env:     make([]uint64, len(fn.Instrs)),
		envOp:   make([]int64, len(fn.Instrs)),
		counter: counter,
	}
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

// Clone is Interp.Clone for the reference interpreter.
func (it *RefInterp) Clone(bk *mem.Backing, sink ConfigSink, counter *int64) *RefInterp {
	if sink == nil {
		sink = NopSink{}
	}
	c := &RefInterp{
		fn:      it.fn,
		bk:      bk,
		sink:    sink,
		env:     append([]uint64(nil), it.env...),
		envOp:   append([]int64(nil), it.envOp...),
		idx:     it.idx,
		counter: counter,
		done:    it.done,
		ret:     it.ret,
		hasRet:  it.hasRet,
	}
	if it.block != nil {
		c.block = c.fn.Block(it.block.ID)
	}
	return c
}

// Result returns the function's return value, valid once done.
func (it *RefInterp) Result() (uint64, bool) { return it.ret, it.hasRet }

func (it *RefInterp) enterBlock(from BlockID, to BlockID) {
	b := it.fn.Block(to)
	n := 0
	if len(b.Instrs) > 0 && it.fn.Instr(b.Instrs[0]).Op == Phi {
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

func (it *RefInterp) newOp() int64 {
	id := *it.counter
	*it.counter++
	return id
}

func refEmit(op *cpu.MicroOp, kind cpu.OpKind, pc Value, addr uint64, dep0, dep1 int64) {
	op.Kind, op.PC, op.Addr = kind, int(pc), addr
	op.Deps[0], op.Deps[1] = dep0, dep1
	op.Taken, op.Do = false, nil
}

// Fill is Interp.Fill for the reference interpreter.
func (it *RefInterp) Fill(op *cpu.MicroOp) bool {
	for !it.done {
		v := it.block.Instrs[it.idx]
		in := it.fn.Instr(v)

		switch in.Op {
		case Nop, Const, Arg:
			it.idx++

		case Phi:
			panic("ir: phi encountered mid-block (verifier should prevent this)")

		case Load:
			addr := it.env[in.A]
			it.env[v] = it.bk.Read64(addr)
			dep := it.envOp[in.A]
			it.envOp[v] = it.newOp()
			it.idx++
			refEmit(op, cpu.OpLoad, v, addr, dep, cpu.NoDep)
			return true

		case Store:
			addr := it.env[in.A]
			it.bk.Write64(addr, it.env[in.B])
			it.newOp()
			it.idx++
			refEmit(op, cpu.OpStore, v, addr, it.envOp[in.A], it.envOp[in.B])
			return true

		case SWPf:
			it.newOp()
			it.idx++
			refEmit(op, cpu.OpSWPf, v, it.env[in.A], it.envOp[in.A], cpu.NoDep)
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
			refEmit(op, cpu.OpConfig, v, 0, dep, cpu.NoDep)
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
			refEmit(op, cpu.OpBranch, v, 0, dep, cpu.NoDep)
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
			refEmit(op, kind, v, 0, dep0, dep1)
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
