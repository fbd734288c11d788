package ir

import (
	"fmt"
	"strings"
)

// String renders the function in the readable assembly-like form Parse
// reads back.
func (f *Fn) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(%d args) {\n", f.Name, f.NArgs)
	for _, b := range f.Blocks {
		label := fmt.Sprintf("b%d", b.ID)
		if b.Name != "" {
			label += " <" + b.Name + ">"
		}
		if b.Pragma {
			label += " #pragma prefetch"
		}
		fmt.Fprintf(&sb, "%s:", label)
		if len(b.Preds) > 0 {
			fmt.Fprintf(&sb, "  ; preds:")
			for _, p := range b.Preds {
				fmt.Fprintf(&sb, " b%d", p)
			}
		}
		sb.WriteByte('\n')
		for _, v := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", f.instrString(v))
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

func (f *Fn) instrString(v Value) string {
	in := f.Instr(v)
	val := func(x Value) string {
		if x == NoValue {
			return "_"
		}
		return fmt.Sprintf("v%d", x)
	}
	switch in.Op {
	case Nop:
		return fmt.Sprintf("v%d = nop", v)
	case Const:
		return fmt.Sprintf("v%d = const %d", v, in.Imm)
	case Arg:
		return fmt.Sprintf("v%d = arg %d", v, in.Imm)
	case Phi:
		parts := make([]string, len(in.Args))
		for i, a := range in.Args {
			parts[i] = val(a)
		}
		return fmt.Sprintf("v%d = phi [%s]", v, strings.Join(parts, ", "))
	case Load:
		s := fmt.Sprintf("v%d = load %s", v, val(in.A))
		if in.Sym != "" {
			s += " ; " + in.Sym
		}
		return s
	case Store:
		s := fmt.Sprintf("store %s, %s", val(in.A), val(in.B))
		if in.Sym != "" {
			s += " ; " + in.Sym
		}
		return s
	case SWPf:
		s := fmt.Sprintf("swpf %s", val(in.A))
		if in.Sym != "" {
			s += " ; " + in.Sym
		}
		return s
	case Cfg:
		return fmt.Sprintf("cfg %+v args=%v", *in.Info, in.Args)
	case Br:
		return fmt.Sprintf("br b%d", in.Blocks[0])
	case CondBr:
		return fmt.Sprintf("condbr %s, b%d, b%d", val(in.A), in.Blocks[0], in.Blocks[1])
	case Ret:
		return fmt.Sprintf("ret %s", val(in.A))
	default:
		return fmt.Sprintf("v%d = %s %s, %s", v, in.Op, val(in.A), val(in.B))
	}
}
