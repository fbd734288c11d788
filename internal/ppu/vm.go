package ppu

import "eventpf/internal/mem"

// Env is everything a kernel may read or affect while handling one event.
type Env struct {
	// VAddr is the virtual address that triggered the event.
	VAddr uint64
	// Line is the captured cache line (for prefetch-fill events, and for
	// load events where the snooped line is forwarded).
	Line [mem.LineSize / 8]uint64
	// Globals are the shared prefetcher global registers.
	Globals *[NumGlobals]uint64
	// Lookahead returns the current EWMA look-ahead distance for a group.
	Lookahead func(group int) uint64
	// EmitPF receives each generated prefetch: the target address, the
	// kernel tag to run on fill (NoTag for end-of-chain), and the kernel
	// cycle count at which the instruction executed, so the prefetcher can
	// timestamp the request. In blocked mode (§7.2, Figure 11) returning
	// block=true suspends the VM at this instruction.
	EmitPF func(addr uint64, tag int, cycle int64) (block bool)
}

// NoTag marks an untagged (end-of-chain) prefetch.
const NoTag = -1

// Status reports how a VM run ended.
type Status int

// VM run outcomes.
const (
	// Done: the kernel halted (or faulted — faults terminate events
	// silently per §5.1; see VM.Faulted).
	Done Status = iota
	// Blocked: EmitPF requested a stall (blocked mode); call Run again to
	// resume after the fill returns.
	Blocked
)

// MaxKernelInstrs bounds one event's execution; exceeding it terminates the
// event, standing in for the paper's trap-on-misbehaviour rule.
const MaxKernelInstrs = 4096

// VM executes one kernel invocation: Reset begins one (PPUs keep no state
// between events, §5.1), Run carries it to its halt. It is resumable only to
// support blocked mode. The zero VM is a halted kernel.
type VM struct {
	prog []Instr
	env  *Env

	regs    [NumRegs]uint64
	pc      int
	cycles  int64
	faulted bool
}

// Reset reinitialises m for a fresh invocation of prog, so one VM value
// serves one kernel run after another.
func (m *VM) Reset(prog []Instr, env *Env) {
	*m = VM{prog: prog, env: env}
}

// Bind points m at env and leaves the invocation where it is: a VM copied by
// assignment (a machine fork copying a suspended kernel) still reads and emits
// through the original's environment until it is bound to its own.
func (m *VM) Bind(env *Env) { m.env = env }

// Cycles returns how many PPU cycles the kernel has consumed so far. Every
// instruction costs one cycle except DIV, which costs eight (the
// microcontroller-class cores have no fast divider).
func (m *VM) Cycles() int64 { return m.cycles }

// Faulted reports whether the event was terminated by a fault (division by
// zero, a global register that does not exist, or instruction-budget
// exhaustion).
func (m *VM) Faulted() bool { return m.faulted }

// Run executes until the kernel halts, faults, or blocks.
func (m *VM) Run() Status {
	for {
		if m.pc < 0 || m.pc >= len(m.prog) {
			return Done // running off the end behaves as halt
		}
		if m.cycles >= MaxKernelInstrs {
			m.faulted = true
			return Done
		}
		in := m.prog[m.pc]
		m.cycles++
		switch in.Op {
		case HALT:
			return Done
		case MOVI:
			m.regs[in.Rd] = uint64(in.Imm)
		case MOV:
			m.regs[in.Rd] = m.regs[in.Ra]
		case ADD:
			m.regs[in.Rd] = m.regs[in.Ra] + m.regs[in.Rb]
		case SUB:
			m.regs[in.Rd] = m.regs[in.Ra] - m.regs[in.Rb]
		case MUL:
			m.regs[in.Rd] = m.regs[in.Ra] * m.regs[in.Rb]
		case DIV:
			if m.regs[in.Rb] == 0 {
				m.faulted = true // divide by zero terminates the event (§5.1)
				return Done
			}
			m.cycles += 7
			m.regs[in.Rd] = m.regs[in.Ra] / m.regs[in.Rb]
		case AND:
			m.regs[in.Rd] = m.regs[in.Ra] & m.regs[in.Rb]
		case OR:
			m.regs[in.Rd] = m.regs[in.Ra] | m.regs[in.Rb]
		case XOR:
			m.regs[in.Rd] = m.regs[in.Ra] ^ m.regs[in.Rb]
		case SHL:
			m.regs[in.Rd] = m.regs[in.Ra] << (m.regs[in.Rb] & 63)
		case SHR:
			m.regs[in.Rd] = m.regs[in.Ra] >> (m.regs[in.Rb] & 63)
		case ADDI:
			m.regs[in.Rd] = m.regs[in.Ra] + uint64(in.Imm)
		case ANDI:
			m.regs[in.Rd] = m.regs[in.Ra] & uint64(in.Imm)
		case MULI:
			m.regs[in.Rd] = m.regs[in.Ra] * uint64(in.Imm)
		case SHLI:
			m.regs[in.Rd] = m.regs[in.Ra] << (uint64(in.Imm) & 63)
		case SHRI:
			m.regs[in.Rd] = m.regs[in.Ra] >> (uint64(in.Imm) & 63)
		case LDLINE:
			m.regs[in.Rd] = m.env.Line[(m.regs[in.Ra]&63)/8]
		case LDLINEI:
			m.regs[in.Rd] = m.env.Line[(uint64(in.Imm)&63)/8]
		case LDDATA:
			m.regs[in.Rd] = m.env.Line[(m.env.VAddr&63)/8]
		case VADDR:
			m.regs[in.Rd] = m.env.VAddr
		case LDG:
			if uint64(in.Imm) >= NumGlobals {
				m.faulted = true // no such global register (§5.1)
				return Done
			}
			m.regs[in.Rd] = m.env.Globals[in.Imm]
		case STG:
			if uint64(in.Imm) >= NumGlobals {
				m.faulted = true
				return Done
			}
			m.env.Globals[in.Imm] = m.regs[in.Ra]
		case LDEWMA:
			m.regs[in.Rd] = m.env.Lookahead(int(in.Imm))
		case PF:
			m.pc++
			if m.env.EmitPF(m.regs[in.Ra], NoTag, m.cycles) {
				return Blocked
			}
			continue
		case PFTAG:
			m.pc++
			if m.env.EmitPF(m.regs[in.Ra], int(in.Imm), m.cycles) {
				return Blocked
			}
			continue
		case BEQ:
			if m.regs[in.Ra] == m.regs[in.Rb] {
				m.pc = int(in.Imm)
				continue
			}
		case BNE:
			if m.regs[in.Ra] != m.regs[in.Rb] {
				m.pc = int(in.Imm)
				continue
			}
		case BLT:
			if m.regs[in.Ra] < m.regs[in.Rb] {
				m.pc = int(in.Imm)
				continue
			}
		case BGE:
			if m.regs[in.Ra] >= m.regs[in.Rb] {
				m.pc = int(in.Imm)
				continue
			}
		case JMP:
			m.pc = int(in.Imm)
			continue
		}
		m.pc++
	}
}
