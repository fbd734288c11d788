package ir

import "fmt"

// Verify checks structural well-formedness: every block ends in exactly one
// terminator, each block's Preds lists exactly the branch edges into it,
// phi argument counts match predecessor counts, operand, argument and block
// indices are in range, and every use is dominated by its definition.
func (f *Fn) Verify() error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("function %s has no blocks", f.Name)
	}
	if f.NArgs < 0 {
		return fmt.Errorf("function %s takes %d args", f.Name, f.NArgs)
	}
	inRange := func(id BlockID) bool { return id >= 0 && int(id) < len(f.Blocks) }
	if !inRange(f.Entry) {
		return fmt.Errorf("entry block b%d does not exist", f.Entry)
	}
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("block b%d is empty", b.ID)
		}
		for _, p := range b.Preds {
			if !inRange(p) {
				return fmt.Errorf("block b%d: predecessor b%d does not exist", b.ID, p)
			}
		}
		for i, v := range b.Instrs {
			in := f.Instr(v)
			isLast := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != isLast {
				return fmt.Errorf("block b%d: terminator placement wrong at v%d (%s)", b.ID, v, in.Op)
			}
			switch in.Op {
			case Arg:
				if in.Imm < 0 || in.Imm >= int64(f.NArgs) {
					return fmt.Errorf("v%d reads argument %d of %d", v, in.Imm, f.NArgs)
				}
			case Br, CondBr:
				targets := in.Blocks[:]
				if in.Op == Br {
					targets = targets[:1]
				}
				for _, t := range targets {
					if !inRange(t) {
						return fmt.Errorf("v%d branches to b%d, which does not exist", v, t)
					}
				}
			}
			if in.Op == Phi {
				if i > 0 && f.Instr(b.Instrs[i-1]).Op != Phi {
					return fmt.Errorf("block b%d: phi v%d not at block start", b.ID, v)
				}
				if len(in.Args) != len(b.Preds) {
					return fmt.Errorf("block b%d: phi v%d has %d args for %d preds",
						b.ID, v, len(in.Args), len(b.Preds))
				}
			}
			var ops []Value
			ops = in.Operands(ops)
			for _, o := range ops {
				if o < 0 || int(o) >= len(f.Instrs) {
					return fmt.Errorf("v%d references out-of-range value v%d", v, o)
				}
			}
		}
	}
	if err := f.verifyPreds(); err != nil {
		return err
	}
	return f.verifyDominance()
}

// verifyPreds checks that each block's Preds is the multiset of branch edges
// into it, in any order. Parse reads Preds from the "; preds:" comment, and
// phis and the interpreter index incoming edges by it.
func (f *Fn) verifyPreds() error {
	for _, b := range f.Blocks {
		for _, p := range b.Preds {
			if n, e := count(b.Preds, p), count(f.Succs(f.Block(p)), b.ID); n != e {
				return fmt.Errorf("block b%d: preds list b%d %d times for %d branch edges", b.ID, p, n, e)
			}
		}
		for _, s := range f.Succs(b) {
			if n, e := count(f.Block(s).Preds, b.ID), count(f.Succs(b), s); n != e {
				return fmt.Errorf("block b%d: preds list b%d %d times for %d branch edges", s, b.ID, n, e)
			}
		}
	}
	return nil
}

func count(ids []BlockID, id BlockID) int {
	n := 0
	for _, x := range ids {
		if x == id {
			n++
		}
	}
	return n
}

// Dominators computes the immediate dominator of every reachable block using
// the Cooper–Harvey–Kennedy iterative algorithm. idom[entry] = entry;
// unreachable blocks get -1.
func (f *Fn) Dominators() []BlockID {
	n := len(f.Blocks)
	// Reverse postorder over the CFG.
	order := make([]BlockID, 0, n)
	seen := make([]bool, n)
	var dfs func(BlockID)
	dfs = func(id BlockID) {
		seen[id] = true
		for _, s := range f.Succs(f.Block(id)) {
			if !seen[s] {
				dfs(s)
			}
		}
		order = append(order, id)
	}
	dfs(f.Entry)
	// order is postorder; reverse it.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	rpoNum := make([]int, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	for i, id := range order {
		rpoNum[id] = i
	}

	idom := make([]BlockID, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[f.Entry] = f.Entry

	intersect := func(a, b BlockID) BlockID {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, id := range order {
			if id == f.Entry {
				continue
			}
			var newIdom BlockID = -1
			for _, p := range f.Block(id).Preds {
				if idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[id] != newIdom {
				idom[id] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether block a dominates block b under idom.
func Dominates(idom []BlockID, a, b BlockID) bool {
	if idom[b] == -1 {
		return false
	}
	for {
		if a == b {
			return true
		}
		next := idom[b]
		if next == b {
			return false // reached entry
		}
		b = next
	}
}

func (f *Fn) verifyDominance() error {
	idom := f.Dominators()
	db := f.defBlocks()
	for _, b := range f.Blocks {
		if idom[b.ID] == -1 {
			continue // unreachable; interpreter will never run it
		}
		for i, v := range b.Instrs {
			in := f.Instr(v)
			if in.Op == Phi {
				// Each incoming value must dominate the matching predecessor.
				for pi, a := range in.Args {
					if a == NoValue {
						continue
					}
					pred := b.Preds[pi]
					if db[a] == -1 {
						return fmt.Errorf("phi v%d arg v%d is not placed in any block", v, a)
					}
					if !Dominates(idom, db[a], pred) {
						return fmt.Errorf("phi v%d: incoming v%d (b%d) does not dominate pred b%d",
							v, a, db[a], pred)
					}
				}
				continue
			}
			var ops []Value
			ops = in.Operands(ops)
			for _, o := range ops {
				ob := db[o]
				if ob == -1 {
					return fmt.Errorf("v%d uses v%d which is in no block", v, o)
				}
				if ob == b.ID {
					// Must appear earlier in the same block.
					found := false
					for _, w := range b.Instrs[:i] {
						if w == o {
							found = true
							break
						}
					}
					if !found {
						return fmt.Errorf("v%d uses v%d before definition in b%d", v, o, b.ID)
					}
				} else if !Dominates(idom, ob, b.ID) {
					return fmt.Errorf("v%d (b%d) uses v%d (b%d) without dominance", v, b.ID, o, ob)
				}
			}
		}
	}
	return nil
}
