package ir

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads the textual form produced by (*Fn).String back into a
// function, enabling golden-file tests and hand-written textual kernels.
// Values are numbered by their position in the text, so text listing the
// blocks in another order than the printer's renumbers them. A line whose
// first non-blank character is ';' is a comment.
func Parse(src string) (*Fn, error) {
	p := &parser{}
	if err := p.run(src); err != nil {
		return nil, err
	}
	if err := p.fn.Verify(); err != nil {
		return nil, fmt.Errorf("ir: parsed function invalid: %w", err)
	}
	return p.fn, nil
}

type parser struct {
	fn  *Fn
	cur *Block
	// valueMap maps source value numbers to actual instruction indices.
	// Printer output allocates ids in build order, which need not match
	// block order, so operands are parsed as raw source numbers and
	// remapped once the whole function is read.
	valueMap map[int]Value
	// refs lists operand slots (instruction index, field) holding raw
	// source numbers to remap once parsing completes.
	refs []ref
}

type ref struct {
	instr Value
	field int // 0 = A, 1 = B, n+2 = Args[n]
}

func (p *parser) run(src string) error {
	lines := strings.Split(src, "\n")
	li := 0
	next := func() (string, bool) {
		for li < len(lines) {
			l := strings.TrimSpace(lines[li])
			li++
			if l != "" && l[0] != ';' {
				return l, true
			}
		}
		return "", false
	}

	head, ok := next()
	if !ok || !strings.HasPrefix(head, "func ") {
		return fmt.Errorf("ir: expected function header, got %q", head)
	}
	paren := strings.Index(head, "(")
	if paren < 0 {
		return fmt.Errorf("ir: bad header %q: no argument count", head)
	}
	var nargs int
	if _, err := fmt.Sscanf(head[paren:], "(%d args) {", &nargs); err != nil {
		return fmt.Errorf("ir: bad header %q: %v", head, err)
	}
	p.fn = &Fn{Name: head[len("func "):paren], NArgs: nargs}
	p.valueMap = map[int]Value{}

	// First pass requires block declarations before use; pre-scan labels. A
	// block takes at least a line, so no block number reaches the line count.
	for _, raw := range lines[li:] {
		l := strings.TrimSpace(raw)
		if strings.HasPrefix(l, "b") && strings.Contains(l, ":") && !strings.Contains(l, "=") &&
			!strings.HasPrefix(l, "br ") {
			idStr := l[1:]
			if i := strings.IndexAny(idStr, " :<"); i >= 0 {
				idStr = idStr[:i]
			}
			if n, err := strconv.Atoi(idStr); err == nil {
				if n >= len(lines) {
					return fmt.Errorf("ir: block b%d in a %d-line function", n, len(lines))
				}
				for len(p.fn.Blocks) <= n {
					p.fn.Blocks = append(p.fn.Blocks, &Block{ID: BlockID(len(p.fn.Blocks))})
				}
			}
		}
	}
	if len(p.fn.Blocks) == 0 {
		return fmt.Errorf("ir: no blocks found")
	}

	for {
		line, ok := next()
		if !ok {
			return fmt.Errorf("ir: unexpected end of input (missing '}')")
		}
		if line == "}" {
			break
		}
		if strings.HasPrefix(line, "b") && strings.Contains(line, ":") &&
			!strings.Contains(line, "=") && !isInstrLine(line) {
			if err := p.blockHeader(line); err != nil {
				return err
			}
			continue
		}
		if p.cur == nil {
			return fmt.Errorf("ir: instruction before any block: %q", line)
		}
		if err := p.instr(line); err != nil {
			return fmt.Errorf("ir: %q: %w", line, err)
		}
	}
	for _, r := range p.refs {
		in := &p.fn.Instrs[r.instr]
		var slot *Value
		switch r.field {
		case 0:
			slot = &in.A
		case 1:
			slot = &in.B
		default:
			slot = &in.Args[r.field-2]
		}
		if *slot == NoValue {
			continue
		}
		v, ok := p.valueMap[int(*slot)]
		if !ok {
			return fmt.Errorf("ir: reference to undefined value v%d", int(*slot))
		}
		*slot = v
	}
	return nil
}

func isInstrLine(l string) bool {
	for _, prefix := range []string{"br ", "condbr ", "ret ", "store ", "swpf ", "cfg "} {
		if strings.HasPrefix(l, prefix) {
			return true
		}
	}
	return false
}

func (p *parser) blockHeader(line string) error {
	// "b3 <exit>:  ; preds: b1 b2" — possibly with "#pragma prefetch".
	body := line
	comment := ""
	if i := strings.Index(line, ";"); i >= 0 {
		body, comment = strings.TrimSpace(line[:i]), line[i+1:]
	}
	pragma := strings.Contains(body, "#pragma prefetch")
	body = strings.TrimSpace(strings.Replace(body, "#pragma prefetch", "", 1))
	nameStart := strings.Index(body, "<")
	blkName := ""
	if nameStart >= 0 {
		nameEnd := strings.Index(body, ">")
		if nameEnd < nameStart {
			return fmt.Errorf("ir: bad block header %q: unclosed name", line)
		}
		blkName = body[nameStart+1 : nameEnd]
		body = body[:nameStart]
	}
	body = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(body), ":"))
	id, err := strconv.Atoi(strings.TrimPrefix(body, "b"))
	if err != nil || id < 0 || id >= len(p.fn.Blocks) {
		return fmt.Errorf("ir: bad block header %q", line)
	}
	blk := p.fn.Blocks[id]
	blk.Name = blkName
	blk.Pragma = pragma
	if i := strings.Index(comment, "preds:"); i >= 0 {
		for _, f := range strings.Fields(comment[i+len("preds:"):]) {
			pid, err := strconv.Atoi(strings.TrimPrefix(f, "b"))
			if err != nil {
				return fmt.Errorf("ir: bad pred %q", f)
			}
			blk.Preds = append(blk.Preds, BlockID(pid))
		}
	}
	p.cur = blk
	return nil
}

// val parses a value token into its raw source number; callers must pass
// the destination slot to ref() so it is remapped after parsing completes.
func (p *parser) val(tok string) (Value, error) {
	tok = strings.TrimSuffix(tok, ",")
	if tok == "_" {
		return NoValue, nil
	}
	n, err := strconv.Atoi(strings.TrimPrefix(tok, "v"))
	if err != nil || n < 0 {
		return NoValue, fmt.Errorf("bad value %q", tok)
	}
	return Value(n), nil
}

func (p *parser) emit(srcNum int, in Instr) {
	v := Value(len(p.fn.Instrs))
	p.fn.Instrs = append(p.fn.Instrs, in)
	p.cur.Instrs = append(p.cur.Instrs, v)
	if srcNum >= 0 {
		p.valueMap[srcNum] = v
	}
	// Register the operand slots of the just-appended instruction for the
	// end-of-parse remapping.
	p.refs = append(p.refs, ref{v, 0}, ref{v, 1})
	for i := range in.Args {
		p.refs = append(p.refs, ref{v, i + 2})
	}
}

func (p *parser) block(tok string) (BlockID, error) {
	tok = strings.TrimSuffix(tok, ",")
	n, err := strconv.Atoi(strings.TrimPrefix(tok, "b"))
	if err != nil || n < 0 || n >= len(p.fn.Blocks) {
		return -1, fmt.Errorf("bad block ref %q", tok)
	}
	return BlockID(n), nil
}

var parseOps = map[string]Op{
	"add": Add, "sub": Sub, "mul": Mul, "div": Div, "rem": Rem,
	"and": And, "or": Or, "xor": Xor, "shl": Shl, "shr": Shr,
	"cmpeq": CmpEQ, "cmpne": CmpNE, "cmplt": CmpLT, "cmpltu": CmpLTU,
	"cmpge": CmpGE, "cmpgeu": CmpGEU,
}

// operands is how many operand tokens each mnemonic other than a binary op
// (two) takes; a phi's incoming values are bracketed instead.
var operands = map[string]int{
	"nop": 0, "const": 1, "arg": 1, "load": 1,
	"store": 2, "swpf": 1, "br": 1, "condbr": 3, "ret": 1,
}

func (p *parser) instr(line string) error {
	sym := ""
	if i := strings.Index(line, ";"); i >= 0 {
		sym = strings.TrimSpace(line[i+1:])
		line = strings.TrimSpace(line[:i])
	}
	f := strings.Fields(strings.ReplaceAll(line, ",", " "))
	if len(f) == 0 {
		return fmt.Errorf("no instruction")
	}

	// Value-producing instructions: "vN = op ...".
	mnem, args := f[0], f[1:]
	value := len(f) >= 3 && f[1] == "="
	if value {
		mnem, args = f[2], f[3:]
	}
	want := operands[mnem]
	if _, ok := parseOps[mnem]; ok {
		want = 2
	}
	if len(args) < want {
		return fmt.Errorf("%s takes %d operands, got %d", mnem, want, len(args))
	}
	if value {
		srcNum, err := strconv.Atoi(strings.TrimPrefix(f[0], "v"))
		if err != nil {
			return fmt.Errorf("bad result %q", f[0])
		}
		switch mnem {
		case "nop":
			p.emit(srcNum, Instr{Op: Nop, A: NoValue, B: NoValue})
		case "const":
			imm, err := strconv.ParseInt(args[0], 10, 64)
			if err != nil {
				return err
			}
			p.emit(srcNum, Instr{Op: Const, A: NoValue, B: NoValue, Imm: imm})
		case "arg":
			imm, err := strconv.ParseInt(args[0], 10, 64)
			if err != nil {
				return err
			}
			p.emit(srcNum, Instr{Op: Arg, A: NoValue, B: NoValue, Imm: imm})
		case "phi":
			// "vN = phi [v1, v2]"
			lb, rb := strings.Index(line, "["), strings.Index(line, "]")
			if lb < 0 || rb < lb {
				return fmt.Errorf("phi without [incoming values]")
			}
			var in []Value
			for _, tok := range strings.Fields(strings.ReplaceAll(line[lb+1:rb], ",", " ")) {
				v, err := p.val(tok)
				if err != nil {
					return err
				}
				in = append(in, v)
			}
			p.emit(srcNum, Instr{Op: Phi, A: NoValue, B: NoValue, Args: in})
		case "load":
			a, err := p.val(args[0])
			if err != nil {
				return err
			}
			p.emit(srcNum, Instr{Op: Load, A: a, B: NoValue, Sym: sym})
		default:
			o, ok := parseOps[mnem]
			if !ok {
				return fmt.Errorf("unknown op %q", mnem)
			}
			a, err := p.val(args[0])
			if err != nil {
				return err
			}
			b, err := p.val(args[1])
			if err != nil {
				return err
			}
			p.emit(srcNum, Instr{Op: o, A: a, B: b})
		}
		return nil
	}

	// Void instructions.
	switch mnem {
	case "store":
		a, err := p.val(args[0])
		if err != nil {
			return err
		}
		b, err := p.val(args[1])
		if err != nil {
			return err
		}
		p.emit(-1, Instr{Op: Store, A: a, B: b, Sym: sym})
	case "swpf":
		a, err := p.val(args[0])
		if err != nil {
			return err
		}
		p.emit(-1, Instr{Op: SWPf, A: a, B: NoValue, Sym: sym})
	case "br":
		t, err := p.block(args[0])
		if err != nil {
			return err
		}
		p.emit(-1, Instr{Op: Br, A: NoValue, B: NoValue, Blocks: [2]BlockID{t, -1}})
	case "condbr":
		c, err := p.val(args[0])
		if err != nil {
			return err
		}
		t1, err := p.block(args[1])
		if err != nil {
			return err
		}
		t2, err := p.block(args[2])
		if err != nil {
			return err
		}
		p.emit(-1, Instr{Op: CondBr, A: c, B: NoValue, Blocks: [2]BlockID{t1, t2}})
	case "ret":
		a, err := p.val(args[0])
		if err != nil {
			return err
		}
		p.emit(-1, Instr{Op: Ret, A: a, B: NoValue, Blocks: [2]BlockID{-1, -1}})
	case "cfg":
		return p.cfg(line)
	default:
		return fmt.Errorf("unknown instruction %q", mnem)
	}
	return nil
}

// cfg parses the printer's "cfg {Kind:1 Slot:0 … GReg:2} args=[12 13]": the
// CfgInfo fields by name, then the raw source numbers of the arguments.
func (p *parser) cfg(line string) error {
	lb, rb := strings.Index(line, "{"), strings.Index(line, "}")
	if lb < 0 || rb < lb {
		return fmt.Errorf("cfg without {fields}")
	}
	info := &CfgInfo{}
	ints := map[string]*int{"Slot": &info.Slot, "LoadKernel": &info.LoadKernel, "PFKernel": &info.PFKernel,
		"EWMAGroup": &info.EWMAGroup, "GReg": &info.GReg}
	bools := map[string]*bool{"Interval": &info.Interval, "TimedStart": &info.TimedStart, "TimedEnd": &info.TimedEnd}
	for _, f := range strings.Fields(line[lb+1 : rb]) {
		name, val, ok := strings.Cut(f, ":")
		var err error
		switch {
		case !ok:
			err = fmt.Errorf("bad cfg field %q", f)
		case name == "Kind":
			var k int
			k, err = strconv.Atoi(val)
			info.Kind = CfgKind(k)
		case ints[name] != nil:
			*ints[name], err = strconv.Atoi(val)
		case bools[name] != nil:
			*bools[name], err = strconv.ParseBool(val)
		default:
			err = fmt.Errorf("unknown cfg field %q", name)
		}
		if err != nil {
			return err
		}
	}
	rest := strings.TrimSpace(line[rb+1:])
	if !strings.HasPrefix(rest, "args=[") || !strings.HasSuffix(rest, "]") {
		return fmt.Errorf("cfg without args=[values]")
	}
	var args []Value
	for _, tok := range strings.Fields(rest[len("args=[") : len(rest)-1]) {
		n, err := strconv.Atoi(tok)
		if err != nil || n < 0 {
			return fmt.Errorf("bad cfg argument %q", tok)
		}
		args = append(args, Value(n))
	}
	p.emit(-1, Instr{Op: Cfg, A: NoValue, B: NoValue, Info: info, Args: args})
	return nil
}
