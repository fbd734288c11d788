package ppu

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble parses kernel source text into instructions. The syntax is one
// instruction per line, with optional "label:" lines and ";" comments:
//
//	; on_A_load: prefetch two lines ahead (figure 4b)
//	        vaddr  r1
//	        addi   r1, r1, 128
//	        pf     r1
//	        halt
//
// Branch targets are labels. Registers are r0–r15, globals g0–g63 and EWMA
// groups e0–e7 where the instruction takes them.
func Assemble(src string) ([]Instr, error) {
	type fixup struct {
		instr int
		label string
		line  int
	}
	var prog []Instr
	labels := map[string]int{}
	var fixups []fixup

	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasSuffix(line, ":") {
			name := strings.TrimSuffix(line, ":")
			if _, dup := labels[name]; dup {
				return nil, fmt.Errorf("line %d: duplicate label %q", lineNo+1, name)
			}
			labels[name] = len(prog)
			continue
		}

		errf := func(format string, a ...interface{}) error {
			return fmt.Errorf("line %d (%q): %s", lineNo+1, strings.TrimSpace(raw), fmt.Sprintf(format, a...))
		}
		fields := strings.Fields(strings.ReplaceAll(line, ",", " "))
		if len(fields) == 0 {
			return nil, errf("no mnemonic")
		}
		mnem, args := fields[0], fields[1:]

		reg := func(s string) (uint8, error) {
			if !strings.HasPrefix(s, "r") {
				return 0, errf("expected register, got %q", s)
			}
			n, err := strconv.Atoi(s[1:])
			if err != nil || n < 0 || n >= NumRegs {
				return 0, errf("bad register %q", s)
			}
			return uint8(n), nil
		}
		num := func(s string) (int64, error) {
			n, err := strconv.ParseInt(s, 0, 64)
			if err != nil {
				return 0, errf("bad immediate %q", s)
			}
			return n, nil
		}
		prefixed := func(s, prefix string, limit int) (int64, error) {
			if !strings.HasPrefix(s, prefix) {
				return 0, errf("expected %s-operand, got %q", prefix, s)
			}
			n, err := strconv.Atoi(s[len(prefix):])
			if err != nil || n < 0 || n >= limit {
				return 0, errf("bad %s-operand %q", prefix, s)
			}
			return int64(n), nil
		}
		want := func(n int) error {
			if len(args) != n {
				return errf("want %d operands, got %d", n, len(args))
			}
			return nil
		}

		var in Instr
		var err error
		emit3R := func(op Opcode) {
			if err = want(3); err != nil {
				return
			}
			in.Op = op
			if in.Rd, err = reg(args[0]); err != nil {
				return
			}
			if in.Ra, err = reg(args[1]); err != nil {
				return
			}
			in.Rb, err = reg(args[2])
		}
		emit2RI := func(op Opcode) {
			if err = want(3); err != nil {
				return
			}
			in.Op = op
			if in.Rd, err = reg(args[0]); err != nil {
				return
			}
			if in.Ra, err = reg(args[1]); err != nil {
				return
			}
			in.Imm, err = num(args[2])
		}
		branch := func(op Opcode) {
			if err = want(3); err != nil {
				return
			}
			in.Op = op
			if in.Ra, err = reg(args[0]); err != nil {
				return
			}
			if in.Rb, err = reg(args[1]); err != nil {
				return
			}
			fixups = append(fixups, fixup{len(prog), args[2], lineNo + 1})
		}

		switch mnem {
		case "halt":
			if err = want(0); err == nil {
				in.Op = HALT
			}
		case "movi":
			if err = want(2); err == nil {
				in.Op = MOVI
				if in.Rd, err = reg(args[0]); err == nil {
					in.Imm, err = num(args[1])
				}
			}
		case "mov":
			if err = want(2); err == nil {
				in.Op = MOV
				if in.Rd, err = reg(args[0]); err == nil {
					in.Ra, err = reg(args[1])
				}
			}
		case "add":
			emit3R(ADD)
		case "sub":
			emit3R(SUB)
		case "mul":
			emit3R(MUL)
		case "div":
			emit3R(DIV)
		case "and":
			emit3R(AND)
		case "or":
			emit3R(OR)
		case "xor":
			emit3R(XOR)
		case "shl":
			emit3R(SHL)
		case "shr":
			emit3R(SHR)
		case "addi":
			emit2RI(ADDI)
		case "andi":
			emit2RI(ANDI)
		case "muli":
			emit2RI(MULI)
		case "shli":
			emit2RI(SHLI)
		case "shri":
			emit2RI(SHRI)
		case "ldlinei":
			if err = want(2); err == nil {
				in.Op = LDLINEI
				if in.Rd, err = reg(args[0]); err == nil {
					in.Imm, err = num(args[1])
				}
			}
		case "ldline":
			if err = want(2); err == nil {
				in.Op = LDLINE
				if in.Rd, err = reg(args[0]); err == nil {
					in.Ra, err = reg(args[1])
				}
			}
		case "lddata":
			if err = want(1); err == nil {
				in.Op = LDDATA
				in.Rd, err = reg(args[0])
			}
		case "vaddr":
			if err = want(1); err == nil {
				in.Op = VADDR
				in.Rd, err = reg(args[0])
			}
		case "ldg":
			if err = want(2); err == nil {
				in.Op = LDG
				if in.Rd, err = reg(args[0]); err == nil {
					in.Imm, err = prefixed(args[1], "g", NumGlobals)
				}
			}
		case "stg":
			if err = want(2); err == nil {
				in.Op = STG
				if in.Imm, err = prefixed(args[0], "g", NumGlobals); err == nil {
					in.Ra, err = reg(args[1])
				}
			}
		case "ldewma":
			if err = want(2); err == nil {
				in.Op = LDEWMA
				if in.Rd, err = reg(args[0]); err == nil {
					in.Imm, err = prefixed(args[1], "e", 8)
				}
			}
		case "pf":
			if err = want(1); err == nil {
				in.Op = PF
				in.Ra, err = reg(args[0])
			}
		case "pftag":
			if err = want(2); err == nil {
				in.Op = PFTAG
				if in.Ra, err = reg(args[0]); err == nil {
					in.Imm, err = num(args[1])
				}
			}
		case "beq":
			branch(BEQ)
		case "bne":
			branch(BNE)
		case "blt":
			branch(BLT)
		case "bge":
			branch(BGE)
		case "jmp":
			if err = want(1); err == nil {
				in.Op = JMP
				fixups = append(fixups, fixup{len(prog), args[0], lineNo + 1})
			}
		default:
			return nil, errf("unknown mnemonic %q", mnem)
		}
		if err != nil {
			return nil, err
		}
		prog = append(prog, in)
	}

	for _, f := range fixups {
		target, ok := labels[f.label]
		if !ok {
			return nil, fmt.Errorf("line %d: undefined label %q", f.line, f.label)
		}
		prog[f.instr].Imm = int64(target)
	}
	return prog, nil
}

// MustAssemble is Assemble, panicking on error; for fixed kernels compiled
// into benchmark definitions.
func MustAssemble(src string) []Instr {
	prog, err := Assemble(src)
	if err != nil {
		panic("ppu: " + err.Error())
	}
	return prog
}
