// Block-threaded execution engine.
//
// The reference interpreter (CPU.Run) pays a fixed per-instruction tax:
// a return-address check, a step-budget check, a fetch bounds/alignment
// check, a tracer nil-check, and a 40-way opcode switch over operands
// that are re-read from the decoded Instruction on every execution. For
// the per-packet hot path — millions of simulated instructions per trace
// — that tax dominates the run time.
//
// Translate compiles the decoded text segment once, at load time, into a
// flat array of pre-decoded micro-ops grouped into the basic blocks of
// an analysis.BlockMap. Within a block the engine executes straight-line
// with no fetch checks at all: the entry PC is validated once at the
// block boundary, the step budget is charged per block (falling back to
// a truncated body only when the budget would expire mid-block), and
// every operand — register indexes, sign- or zero-extended immediates,
// the pre-shifted LUI constant, branch and jump targets — was resolved
// during translation. Static branch/JAL targets dispatch directly to the
// target instruction index; only the indirect JALR pays a full PC
// validation, exactly like the interpreter's fetch path.
//
// The engine has one dispatch loop and one body. It keeps the CPU's
// Account inline, and tells the tracer, when one is attached, about
// whole block passes and data accesses only; with neither attached, each
// hook costs a nil test.
//
// The interpreter remains the oracle: for any program and input the two
// engines produce identical register files, memory images, step counts,
// stop reasons, fault kind/PC/Addr and derived statistics. The oracle
// matrix in internal/core/oracle_test.go pins that contract.
package vm

import (
	"repro/internal/analysis"
	"repro/internal/isa"
)

// Micro-op codes. ALU ops whose destination is the zero register are
// translated to uNOP (architecturally they have no effect); loads keep
// their full fault-check/trace behavior and only the write-back is
// discarded, matching the interpreter.
const (
	uNOP uint8 = iota
	uADD
	uSUB
	uAND
	uOR
	uXOR
	uSLL
	uSRL
	uSRA
	uSLT
	uSLTU
	uMUL
	uADDI
	uANDI
	uORI
	uXORI
	uSLLI
	uSRLI
	uSRAI
	uSLTI
	uSLTIU
	uLI // rd <- imm (LUI with the <<12 applied at translation time)
	uLB
	uLBU
	uLH
	uLHU
	uLW
	uSB
	uSH
	uSW
	uBEQ
	uBNE
	uBLT
	uBGE
	uBLTU
	uBGEU
	uJAL
	uJALR
	uHALT
	uBAD // undecodable instruction: FaultBadInstr when executed

)

// noTarget is the aux value of a static control transfer whose target
// is not an instruction: ReturnAddress or an address outside the text
// segment. Taking the transfer goes through the slow entry, which
// returns, or raises FaultBadFetch at the target pc after the budget
// check, like the interpreter.
const noTarget int32 = -1

// microOp is one pre-decoded instruction packed into 8 bytes, so the
// dispatch loop reads it with one load and keeps it in a register: code
// in bits 0-7, rd, rs1 and rs2 in bits 8-15, 16-23 and 24-31, and imm in
// bits 32-63. (An 8-byte struct of the same five fields is not kept in a
// register; the loop would spill it and reload each field.) The register
// accessors mask to the architectural range, which lets the compiler
// drop the register-file bounds checks. imm holds the ready-to-use
// immediate: sign/zero-extended for ALU and memory ops, the full shifted
// constant for uLI, and for branches and uJAL the byte offset from the
// instruction's own pc to the target (4 + imm*4).
type microOp uint64

func (o microOp) code() uint8 { return uint8(o) }
func (o microOp) rd() uint8   { return uint8(o>>8) & 15 }
func (o microOp) rs1() uint8  { return uint8(o>>16) & 15 }
func (o microOp) rs2() uint8  { return uint8(o>>24) & 15 }
func (o microOp) imm() uint32 { return uint32(o >> 32) }

// Program is a translated text segment, ready for block-threaded
// execution on any CPU whose text base matches the one it was translated
// for. A Program is immutable after Translate and safe to share between
// cores (each CPU carries its own mutable state). Instruction j's pc is
// textBase + 4j, computed only where it is read.
type Program struct {
	ops      []microOp // one per instruction
	aux      []int32   // branch/JAL target instruction index, or noTarget; read only by taken transfers
	textBase uint32
	endAt    []int32 // instruction index -> exclusive end of its block
}

// Translate compiles a decoded text segment into a block-threaded
// Program using the given basic-block decomposition, which must have
// been built from the same text and textBase.
func Translate(text []isa.Instruction, textBase uint32, blocks *analysis.BlockMap) *Program {
	n := len(text)
	p := &Program{
		ops:      make([]microOp, n),
		aux:      make([]int32, n),
		textBase: textBase,
		endAt:    make([]int32, n),
	}
	for i, in := range text {
		p.endAt[i] = int32(blocks.EndIndex(blocks.BlockOfIndex(i)))
		p.ops[i], p.aux[i] = translateOne(i, in, textBase, n)
	}
	return p
}

// aluCode maps the register-register and register-immediate ALU opcodes
// to their micro-op codes (same dispatch, pre-masked operands).
var aluCode = map[isa.Opcode]uint8{
	isa.ADD: uADD, isa.SUB: uSUB, isa.AND: uAND, isa.OR: uOR, isa.XOR: uXOR,
	isa.SLL: uSLL, isa.SRL: uSRL, isa.SRA: uSRA, isa.SLT: uSLT, isa.SLTU: uSLTU,
	isa.MUL:  uMUL,
	isa.ADDI: uADDI, isa.ANDI: uANDI, isa.ORI: uORI, isa.XORI: uXORI,
	isa.SLLI: uSLLI, isa.SRLI: uSRLI, isa.SRAI: uSRAI, isa.SLTI: uSLTI,
	isa.SLTIU: uSLTIU,
}

var memCode = map[isa.Opcode]uint8{
	isa.LB: uLB, isa.LBU: uLBU, isa.LH: uLH, isa.LHU: uLHU, isa.LW: uLW,
	isa.SB: uSB, isa.SH: uSH, isa.SW: uSW,
}

var branchCode = map[isa.Opcode]uint8{
	isa.BEQ: uBEQ, isa.BNE: uBNE, isa.BLT: uBLT,
	isa.BGE: uBGE, isa.BLTU: uBLTU, isa.BGEU: uBGEU,
}

func translateOne(i int, in isa.Instruction, textBase uint32, n int) (microOp, int32) {
	var code uint8
	imm := uint32(in.Imm)
	pc := textBase + uint32(i)*isa.WordSize
	var aux int32
	switch {
	case aluCode[in.Op] != 0:
		if in.Rd == isa.Zero {
			return microOp(uNOP), 0
		}
		code = aluCode[in.Op]
	case in.Op == isa.LUI:
		if in.Rd == isa.Zero {
			return microOp(uNOP), 0
		}
		code, imm = uLI, imm<<12
	case memCode[in.Op] != 0:
		code = memCode[in.Op]
	case branchCode[in.Op] != 0:
		code, imm = branchCode[in.Op], isa.WordSize+imm*isa.WordSize // byte offset from pc
		aux = staticTarget(pc+imm, textBase, n)
	case in.Op == isa.JAL:
		code, imm = uJAL, isa.WordSize+imm*isa.WordSize
		aux = staticTarget(pc+imm, textBase, n)
	case in.Op == isa.JALR:
		code = uJALR
	case in.Op == isa.HALT:
		code = uHALT
	default:
		code = uBAD
	}
	return microOp(code) | microOp(in.Rd&15)<<8 | microOp(in.Rs1&15)<<16 | microOp(in.Rs2&15)<<24 |
		microOp(imm)<<32, aux
}

// staticTarget resolves a translation-time-known control transfer target
// to an instruction index, using the interpreter's exact uint32 wrapping
// semantics for the bounds test.
func staticTarget(target, textBase uint32, n int) int32 {
	if off := target - textBase; target != ReturnAddress && off%isa.WordSize == 0 && off/isa.WordSize < uint32(n) {
		return int32(off / isa.WordSize)
	}
	return noTarget
}

// RunProgram executes the translated program starting at c.PC until the
// application halts, returns to ReturnAddress, faults, or exceeds
// maxSteps — the block-threaded equivalent of Run, with the identical
// observable contract: same final registers and memory, same step count,
// same stop reason, and the same fault kind, PC and address on every
// failure. p must have been translated from the text segment and base
// this CPU was created with.
//
// Steps are charged per block, and c.Regs, c.PC and c.packetWriteHigh
// are updated only at run exit, except that a Tracer finds c.PC at the
// pc the interpreter would hold at each of its calls. (A local register
// file keeps the writes of nearly every instruction off the CPU, whose
// cache lines it may share with objects other cores write.) The Tracer
// sees a Pass per block pass and a Mem per data access.
func (c *CPU) RunProgram(p *Program, maxSteps uint64) (steps uint64, reason StopReason, err error) {
	return c.runFast(p, maxSteps)
}

// runFast is RunProgram's dispatch loop. It keeps the CPU's account
// inline and tells its tracer about every block pass and data access;
// see Tracer for the contract.
func (c *CPU) runFast(p *Program, maxSteps uint64) (steps uint64, reason StopReason, rerr error) {
	regs := c.Regs
	mem := c.Mem
	pktHigh := c.packetWriteHigh
	a := c.Account
	c.bind()
	defer func() { //pblint:allow — once per run, not per dispatch
		c.Regs = regs
		c.charge(steps)
		if pktHigh > c.packetWriteHigh {
			c.packetWriteHigh = pktHigh
		}
	}()

	next := c.PC // the pc to run next
	idx := -1    // next's instruction index, once known to be in text; else < 0
	j := 0       // the instruction running
	var f *Fault // the fault j raised
outer:
	for {
		if idx < 0 {
			// Slow entry: arbitrary PC (run start, JALR, out-of-text
			// static targets, fall-through past the end). The check order
			// matches the interpreter: return address, budget, fetch.
			if next == ReturnAddress {
				c.PC = next
				return steps, StopReturn, nil
			}
			if steps >= maxSteps {
				c.PC = next
				return steps, 0, &Fault{Kind: FaultStepLimit, PC: next}
			}
			off := next - p.textBase
			if off%isa.WordSize != 0 || off/isa.WordSize >= uint32(len(p.ops)) {
				c.PC = next
				return steps, 0, &Fault{Kind: FaultBadFetch, PC: next}
			}
			idx = int(off / isa.WordSize)
		} else if steps >= maxSteps {
			c.PC = next
			return steps, 0, &Fault{Kind: FaultStepLimit, PC: next}
		}

		// The pass reads what it needs from p here and at its end, so no
		// loop value stays live across the block body: each live value
		// costs every instruction a reload at the loop head.
		ops := p.ops
		end := int(p.endAt[idx])
		if rem := maxSteps - steps; uint64(end-idx) > rem {
			// The budget expires mid-block: execute only the affordable
			// prefix; the re-entry check above raises the step-limit
			// fault at the exact instruction the interpreter would.
			end = idx + int(rem)
		}
		if end > len(ops) {
			// Never taken (endAt values are block bounds); it teaches the
			// compiler end <= len(ops) so ops[j] below needs no bounds
			// check.
			end = len(ops)
		}
		for j = idx; j < end; j++ {
			op := ops[j]
			switch op.code() {
			case uNOP:
			case uADD:
				regs[op.rd()] = regs[op.rs1()] + regs[op.rs2()]
			case uSUB:
				regs[op.rd()] = regs[op.rs1()] - regs[op.rs2()]
			case uAND:
				regs[op.rd()] = regs[op.rs1()] & regs[op.rs2()]
			case uOR:
				regs[op.rd()] = regs[op.rs1()] | regs[op.rs2()]
			case uXOR:
				regs[op.rd()] = regs[op.rs1()] ^ regs[op.rs2()]
			case uSLL:
				regs[op.rd()] = regs[op.rs1()] << (regs[op.rs2()] & 31)
			case uSRL:
				regs[op.rd()] = regs[op.rs1()] >> (regs[op.rs2()] & 31)
			case uSRA:
				regs[op.rd()] = uint32(int32(regs[op.rs1()]) >> (regs[op.rs2()] & 31))
			case uSLT:
				regs[op.rd()] = b2u(int32(regs[op.rs1()]) < int32(regs[op.rs2()]))
			case uSLTU:
				regs[op.rd()] = b2u(regs[op.rs1()] < regs[op.rs2()])
			case uMUL:
				regs[op.rd()] = regs[op.rs1()] * regs[op.rs2()]
			case uADDI:
				regs[op.rd()] = regs[op.rs1()] + op.imm()
			case uANDI:
				regs[op.rd()] = regs[op.rs1()] & op.imm()
			case uORI:
				regs[op.rd()] = regs[op.rs1()] | op.imm()
			case uXORI:
				regs[op.rd()] = regs[op.rs1()] ^ op.imm()
			case uSLLI:
				regs[op.rd()] = regs[op.rs1()] << (op.imm() & 31)
			case uSRLI:
				regs[op.rd()] = regs[op.rs1()] >> (op.imm() & 31)
			case uSRAI:
				regs[op.rd()] = uint32(int32(regs[op.rs1()]) >> (op.imm() & 31))
			case uSLTI:
				regs[op.rd()] = b2u(int32(regs[op.rs1()]) < int32(op.imm()))
			case uSLTIU:
				regs[op.rd()] = b2u(regs[op.rs1()] < op.imm())
			case uLI:
				regs[op.rd()] = op.imm()

			case uLB:
				addr := regs[op.rs1()] + op.imm()
				s, off := mem.find(addr)
				if s == nil {
					if s, off, f = c.miss(addr, 1, false, p.pc(j)); f != nil {
						goto fault
					}
				}
				s.access(off, false)
				c.reportMem(p.pc(j), addr, 1, false, s.r)
				if op.rd() != 0 {
					regs[op.rd()] = uint32(int32(int8(read8(s.b, off))))
				}
			case uLBU:
				addr := regs[op.rs1()] + op.imm()
				s, off := mem.find(addr)
				if s == nil {
					if s, off, f = c.miss(addr, 1, false, p.pc(j)); f != nil {
						goto fault
					}
				}
				s.access(off, false)
				c.reportMem(p.pc(j), addr, 1, false, s.r)
				if op.rd() != 0 {
					regs[op.rd()] = uint32(read8(s.b, off))
				}
			case uLH:
				addr := regs[op.rs1()] + op.imm()
				s, off := mem.find(addr)
				if addr&1 != 0 || s == nil {
					if s, off, f = c.miss(addr, 2, false, p.pc(j)); f != nil {
						goto fault
					}
				}
				s.access(off, false)
				c.reportMem(p.pc(j), addr, 2, false, s.r)
				if op.rd() != 0 {
					regs[op.rd()] = uint32(int32(int16(read16(s.b, off))))
				}
			case uLHU:
				addr := regs[op.rs1()] + op.imm()
				s, off := mem.find(addr)
				if addr&1 != 0 || s == nil {
					if s, off, f = c.miss(addr, 2, false, p.pc(j)); f != nil {
						goto fault
					}
				}
				s.access(off, false)
				c.reportMem(p.pc(j), addr, 2, false, s.r)
				if op.rd() != 0 {
					regs[op.rd()] = uint32(read16(s.b, off))
				}
			case uLW:
				addr := regs[op.rs1()] + op.imm()
				s, off := mem.find(addr)
				if addr&3 != 0 || s == nil {
					if s, off, f = c.miss(addr, 4, false, p.pc(j)); f != nil {
						goto fault
					}
				}
				s.access(off, false)
				c.reportMem(p.pc(j), addr, 4, false, s.r)
				if op.rd() != 0 {
					regs[op.rd()] = read32(s.b, off)
				}

			case uSB:
				addr := regs[op.rs1()] + op.imm()
				s, off := mem.find(addr)
				if s == nil {
					if s, off, f = c.miss(addr, 1, true, p.pc(j)); f != nil {
						goto fault
					}
				}
				if s.r == RegionPacket && addr+1 > pktHigh {
					pktHigh = addr + 1
				}
				s.access(off, true)
				c.reportMem(p.pc(j), addr, 1, true, s.r)
				s.b[off] = uint8(regs[op.rd()])
			case uSH:
				addr := regs[op.rs1()] + op.imm()
				s, off := mem.find(addr)
				if addr&1 != 0 || s == nil {
					if s, off, f = c.miss(addr, 2, true, p.pc(j)); f != nil {
						goto fault
					}
				}
				if s.r == RegionPacket && addr+2 > pktHigh {
					pktHigh = addr + 2
				}
				s.access(off, true)
				c.reportMem(p.pc(j), addr, 2, true, s.r)
				write16(s.b, off, uint16(regs[op.rd()]))
			case uSW:
				addr := regs[op.rs1()] + op.imm()
				s, off := mem.find(addr)
				if addr&3 != 0 || s == nil {
					if s, off, f = c.miss(addr, 4, true, p.pc(j)); f != nil {
						goto fault
					}
				}
				if s.r == RegionPacket && addr+4 > pktHigh {
					pktHigh = addr + 4
				}
				s.access(off, true)
				c.reportMem(p.pc(j), addr, 4, true, s.r)
				write32(s.b, off, regs[op.rd()])

			case uBEQ:
				if regs[op.rs1()] == regs[op.rs2()] {
					goto taken
				}
			case uBNE:
				if regs[op.rs1()] != regs[op.rs2()] {
					goto taken
				}
			case uBLT:
				if int32(regs[op.rs1()]) < int32(regs[op.rs2()]) {
					goto taken
				}
			case uBGE:
				if int32(regs[op.rs1()]) >= int32(regs[op.rs2()]) {
					goto taken
				}
			case uBLTU:
				if regs[op.rs1()] < regs[op.rs2()] {
					goto taken
				}
			case uBGEU:
				if regs[op.rs1()] >= regs[op.rs2()] {
					goto taken
				}

			case uJAL:
				if op.rd() != 0 {
					regs[op.rd()] = p.pc(j + 1)
				}
				goto taken
			case uJALR:
				target := (regs[op.rs1()] + op.imm()) &^ 3
				if op.rd() != 0 {
					regs[op.rd()] = p.pc(j + 1)
				}
				steps += uint64(j-idx) + 1
				a.pass(idx, j)
				c.tracePass(idx, j, target)
				idx, next = -1, target
				continue outer

			case uHALT:
				pc := p.pc(j)
				steps += uint64(j-idx) + 1
				a.pass(idx, j)
				c.tracePass(idx, j, pc)
				c.PC = pc
				return steps, StopHalt, nil
			case uBAD:
				f = &Fault{Kind: FaultBadInstr, PC: p.pc(j)}
				goto fault
			}
		}
		// Block body exhausted without a control transfer: either the
		// budget truncated it, the block was split by a following leader,
		// or execution ran past the last instruction. The re-entry checks
		// sort the three cases out (step limit / next block / bad fetch).
		steps += uint64(end - idx)
		next = p.pc(end)
		a.pass(idx, end-1)
		c.tracePass(idx, end-1, next)
		if idx = end; end >= len(p.ops) {
			idx = -1
		}
		continue
	taken:
		// A taken branch or JAL at j ends the pass; its static target is
		// pc+imm, and aux holds its index unless the slow entry must
		// check it.
		next = p.pc(j) + ops[j].imm()
		steps += uint64(j-idx) + 1
		a.pass(idx, j)
		c.tracePass(idx, j, next)
		idx = int(p.aux[j])
	}
fault:
	// The instruction at j raised f, ending the pass.
	c.PC = f.PC
	steps += uint64(j-idx) + 1
	a.pass(idx, j)
	c.tracePass(idx, j, f.PC)
	return steps, 0, f
}

// tracePass reports the block pass first..last, whose steps are
// charged, to the tracer, when one is attached. next is the pc the
// interpreter holds after last, which a tracer that panics sees as the
// fault pc. It runs on every block pass, after the account's pass.
func (c *CPU) tracePass(first, last int, next uint32) {
	if c.Tracer != nil {
		c.PC = next
		c.Tracer.Pass(first, last)
	}
}

// reportMem reports a data access to the tracer, when one is attached,
// at the pc of the accessing instruction, as the interpreter does.
func (c *CPU) reportMem(pc, addr uint32, size uint8, write bool, r Region) {
	if c.Tracer != nil {
		c.PC = pc
		c.Tracer.Mem(pc, addr, size, write, r)
	}
}

// pc returns the address of instruction j.
func (p *Program) pc(j int) uint32 { return p.textBase + uint32(j)*isa.WordSize }
