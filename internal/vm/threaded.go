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
	"encoding/binary"

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

// Special aux values for statically resolved control-transfer targets.
const (
	// auxFault marks a static target outside the text segment; taking the
	// transfer raises FaultBadFetch at the target PC (recomputed from the
	// imm byte offset), after the budget check, like the interpreter.
	auxFault int32 = -1
	// auxReturn marks a static target equal to ReturnAddress.
	auxReturn int32 = -2
)

// microOp is one pre-decoded instruction. Register fields are masked to
// the architectural range at translation time (and re-masked with &15 at
// the use sites, which is what actually lets the compiler drop the
// register-file bounds checks). imm holds the ready-to-use
// immediate: sign/zero-extended for ALU and memory ops, the full shifted
// constant for uLI, and for branches and uJAL the byte offset from the
// instruction's own PC to the target (4 + imm*4), which the fault path
// uses to recompute an out-of-text target address.
type microOp struct {
	code uint8
	rd   uint8
	rs1  uint8
	rs2  uint8
	imm  uint32
	aux  int32 // branch/JAL target instruction index, or auxFault/auxReturn
}

// Program is a translated text segment, ready for block-threaded
// execution on any CPU whose text base matches the one it was translated
// for. A Program is immutable after Translate and safe to share between
// cores (each CPU carries its own mutable state).
type Program struct {
	ops      []microOp // one per instruction
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
		textBase: textBase,
		endAt:    make([]int32, n),
	}
	for i, in := range text {
		p.endAt[i] = int32(blocks.EndIndex(blocks.BlockOfIndex(i)))
		p.ops[i] = translateOne(i, in, textBase, n)
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

func translateOne(i int, in isa.Instruction, textBase uint32, n int) microOp {
	op := microOp{
		rd:  uint8(in.Rd) & 15,
		rs1: uint8(in.Rs1) & 15,
		rs2: uint8(in.Rs2) & 15,
		imm: uint32(in.Imm),
	}
	pc := textBase + uint32(i)*isa.WordSize
	switch {
	case aluCode[in.Op] != 0:
		if in.Rd == isa.Zero {
			return microOp{code: uNOP}
		}
		op.code = aluCode[in.Op]
	case in.Op == isa.LUI:
		if in.Rd == isa.Zero {
			return microOp{code: uNOP}
		}
		op.code = uLI
		op.imm = uint32(in.Imm) << 12
	case memCode[in.Op] != 0:
		op.code = memCode[in.Op]
	case branchCode[in.Op] != 0:
		op.code = branchCode[in.Op]
		op.imm = isa.WordSize + uint32(in.Imm)*isa.WordSize // byte offset from pc
		op.aux = staticTarget(pc+op.imm, textBase, n)
	case in.Op == isa.JAL:
		op.code = uJAL
		op.imm = isa.WordSize + uint32(in.Imm)*isa.WordSize
		op.aux = staticTarget(pc+op.imm, textBase, n)
	case in.Op == isa.JALR:
		op.code = uJALR
	case in.Op == isa.HALT:
		op.code = uHALT
	default:
		op.code = uBAD
	}
	return op
}

// staticTarget resolves a translation-time-known control transfer target
// to an instruction index, using the interpreter's exact uint32 wrapping
// semantics for the bounds test.
func staticTarget(target, textBase uint32, n int) int32 {
	if target == ReturnAddress {
		return auxReturn
	}
	off := target - textBase
	if off%isa.WordSize == 0 && off/isa.WordSize < uint32(n) {
		return int32(off / isa.WordSize)
	}
	return auxFault
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
	ops := p.ops
	endAt := p.endAt
	textBase := p.textBase
	n := uint32(len(ops))
	pktHigh := c.packetWriteHigh
	a, bt := c.Account, c.Tracer
	defer func() { //pblint:allow — once per run, not per dispatch
		c.Regs = regs
		c.charge(steps)
		if pktHigh > c.packetWriteHigh {
			c.packetWriteHigh = pktHigh
		}
	}()

	pcv := c.PC // pending control-transfer target, when idx < 0
	idx := -1   // entry instruction index, when >= 0 (already validated in-text)
outer:
	for {
		if idx < 0 {
			// Slow entry: arbitrary PC (run start, JALR, out-of-text
			// static targets, fall-through past the end). The check order
			// matches the interpreter: return address, budget, fetch.
			if pcv == ReturnAddress {
				c.PC = pcv
				return steps, StopReturn, nil
			}
			if steps >= maxSteps {
				c.PC = pcv
				return steps, 0, &Fault{Kind: FaultStepLimit, PC: pcv}
			}
			off := pcv - textBase
			if off%isa.WordSize != 0 || off/isa.WordSize >= n {
				c.PC = pcv
				return steps, 0, &Fault{Kind: FaultBadFetch, PC: pcv}
			}
			idx = int(off / isa.WordSize)
		} else if steps >= maxSteps {
			pc := textBase + uint32(idx)*isa.WordSize
			c.PC = pc
			return steps, 0, &Fault{Kind: FaultStepLimit, PC: pc}
		}

		end := int(endAt[idx])
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
		pc := textBase + uint32(idx)*isa.WordSize
		j := idx
		for ; j < end; j++ {
			op := &ops[j]
			switch op.code {
			case uNOP:
			case uADD:
				regs[op.rd&15] = regs[op.rs1&15] + regs[op.rs2&15]
			case uSUB:
				regs[op.rd&15] = regs[op.rs1&15] - regs[op.rs2&15]
			case uAND:
				regs[op.rd&15] = regs[op.rs1&15] & regs[op.rs2&15]
			case uOR:
				regs[op.rd&15] = regs[op.rs1&15] | regs[op.rs2&15]
			case uXOR:
				regs[op.rd&15] = regs[op.rs1&15] ^ regs[op.rs2&15]
			case uSLL:
				regs[op.rd&15] = regs[op.rs1&15] << (regs[op.rs2&15] & 31)
			case uSRL:
				regs[op.rd&15] = regs[op.rs1&15] >> (regs[op.rs2&15] & 31)
			case uSRA:
				regs[op.rd&15] = uint32(int32(regs[op.rs1&15]) >> (regs[op.rs2&15] & 31))
			case uSLT:
				regs[op.rd&15] = b2u(int32(regs[op.rs1&15]) < int32(regs[op.rs2&15]))
			case uSLTU:
				regs[op.rd&15] = b2u(regs[op.rs1&15] < regs[op.rs2&15])
			case uMUL:
				regs[op.rd&15] = regs[op.rs1&15] * regs[op.rs2&15]
			case uADDI:
				regs[op.rd&15] = regs[op.rs1&15] + op.imm
			case uANDI:
				regs[op.rd&15] = regs[op.rs1&15] & op.imm
			case uORI:
				regs[op.rd&15] = regs[op.rs1&15] | op.imm
			case uXORI:
				regs[op.rd&15] = regs[op.rs1&15] ^ op.imm
			case uSLLI:
				regs[op.rd&15] = regs[op.rs1&15] << (op.imm & 31)
			case uSRLI:
				regs[op.rd&15] = regs[op.rs1&15] >> (op.imm & 31)
			case uSRAI:
				regs[op.rd&15] = uint32(int32(regs[op.rs1&15]) >> (op.imm & 31))
			case uSLTI:
				regs[op.rd&15] = b2u(int32(regs[op.rs1&15]) < int32(op.imm))
			case uSLTIU:
				regs[op.rd&15] = b2u(regs[op.rs1&15] < op.imm)
			case uLI:
				regs[op.rd&15] = op.imm

			case uLB:
				addr := regs[op.rs1&15] + op.imm
				s, off := mem.find(addr)
				if s == nil {
					var f *Fault
					if s, off, f = c.miss(addr, 1, false, pc); f != nil {
						return c.trap(a, bt, steps, idx, j, f)
					}
				}
				a.access(s.r, off, false)
				c.reportMem(bt, pc, addr, 1, false, s.r)
				if op.rd != 0 {
					regs[op.rd&15] = uint32(int32(int8(read8(s.b, off))))
				}
			case uLBU:
				addr := regs[op.rs1&15] + op.imm
				s, off := mem.find(addr)
				if s == nil {
					var f *Fault
					if s, off, f = c.miss(addr, 1, false, pc); f != nil {
						return c.trap(a, bt, steps, idx, j, f)
					}
				}
				a.access(s.r, off, false)
				c.reportMem(bt, pc, addr, 1, false, s.r)
				if op.rd != 0 {
					regs[op.rd&15] = uint32(read8(s.b, off))
				}
			case uLH:
				addr := regs[op.rs1&15] + op.imm
				s, off := mem.find(addr)
				if addr&1 != 0 || s == nil {
					var f *Fault
					if s, off, f = c.miss(addr, 2, false, pc); f != nil {
						return c.trap(a, bt, steps, idx, j, f)
					}
				}
				a.access(s.r, off, false)
				c.reportMem(bt, pc, addr, 2, false, s.r)
				if op.rd != 0 {
					regs[op.rd&15] = uint32(int32(int16(read16(s.b, off))))
				}
			case uLHU:
				addr := regs[op.rs1&15] + op.imm
				s, off := mem.find(addr)
				if addr&1 != 0 || s == nil {
					var f *Fault
					if s, off, f = c.miss(addr, 2, false, pc); f != nil {
						return c.trap(a, bt, steps, idx, j, f)
					}
				}
				a.access(s.r, off, false)
				c.reportMem(bt, pc, addr, 2, false, s.r)
				if op.rd != 0 {
					regs[op.rd&15] = uint32(read16(s.b, off))
				}
			case uLW:
				addr := regs[op.rs1&15] + op.imm
				s, off := mem.find(addr)
				if addr&3 != 0 || s == nil {
					var f *Fault
					if s, off, f = c.miss(addr, 4, false, pc); f != nil {
						return c.trap(a, bt, steps, idx, j, f)
					}
				}
				a.access(s.r, off, false)
				c.reportMem(bt, pc, addr, 4, false, s.r)
				if op.rd != 0 {
					regs[op.rd&15] = read32(s.b, off)
				}

			case uSB:
				addr := regs[op.rs1&15] + op.imm
				s, off := mem.find(addr)
				if s == nil {
					var f *Fault
					if s, off, f = c.miss(addr, 1, true, pc); f != nil {
						return c.trap(a, bt, steps, idx, j, f)
					}
				}
				if s.r == RegionPacket && addr+1 > pktHigh {
					pktHigh = addr + 1
				}
				a.access(s.r, off, true)
				c.reportMem(bt, pc, addr, 1, true, s.r)
				s.b[off] = uint8(regs[op.rd&15])
			case uSH:
				addr := regs[op.rs1&15] + op.imm
				s, off := mem.find(addr)
				if addr&1 != 0 || s == nil {
					var f *Fault
					if s, off, f = c.miss(addr, 2, true, pc); f != nil {
						return c.trap(a, bt, steps, idx, j, f)
					}
				}
				if s.r == RegionPacket && addr+2 > pktHigh {
					pktHigh = addr + 2
				}
				a.access(s.r, off, true)
				c.reportMem(bt, pc, addr, 2, true, s.r)
				binary.LittleEndian.PutUint16(s.b[off:], uint16(regs[op.rd&15]))
			case uSW:
				addr := regs[op.rs1&15] + op.imm
				s, off := mem.find(addr)
				if addr&3 != 0 || s == nil {
					var f *Fault
					if s, off, f = c.miss(addr, 4, true, pc); f != nil {
						return c.trap(a, bt, steps, idx, j, f)
					}
				}
				if s.r == RegionPacket && addr+4 > pktHigh {
					pktHigh = addr + 4
				}
				a.access(s.r, off, true)
				c.reportMem(bt, pc, addr, 4, true, s.r)
				binary.LittleEndian.PutUint32(s.b[off:], regs[op.rd&15])

			case uBEQ:
				if regs[op.rs1&15] == regs[op.rs2&15] {
					goto taken
				}
			case uBNE:
				if regs[op.rs1&15] != regs[op.rs2&15] {
					goto taken
				}
			case uBLT:
				if int32(regs[op.rs1&15]) < int32(regs[op.rs2&15]) {
					goto taken
				}
			case uBGE:
				if int32(regs[op.rs1&15]) >= int32(regs[op.rs2&15]) {
					goto taken
				}
			case uBLTU:
				if regs[op.rs1&15] < regs[op.rs2&15] {
					goto taken
				}
			case uBGEU:
				if regs[op.rs1&15] >= regs[op.rs2&15] {
					goto taken
				}

			case uJAL:
				if op.rd != 0 {
					regs[op.rd&15] = pc + isa.WordSize
				}
				goto taken
			case uJALR:
				target := (regs[op.rs1&15] + op.imm) &^ 3
				if op.rd != 0 {
					regs[op.rd&15] = pc + isa.WordSize
				}
				steps += uint64(j-idx) + 1
				c.passEnd(a, bt, idx, j, target)
				idx, pcv = -1, target
				continue outer

			case uHALT:
				steps += uint64(j-idx) + 1
				c.passEnd(a, bt, idx, j, pc)
				c.PC = pc
				return steps, StopHalt, nil
			case uBAD:
				return c.trap(a, bt, steps, idx, j, &Fault{Kind: FaultBadInstr, PC: pc})
			}
			pc += isa.WordSize
		}
		// Block body exhausted without a control transfer: either the
		// budget truncated it, the block was split by a following leader,
		// or execution ran past the last instruction. The re-entry checks
		// sort the three cases out (step limit / next block / bad fetch).
		steps += uint64(end - idx)
		c.passEnd(a, bt, idx, end-1, pc)
		if uint32(end) < n {
			idx = end
		} else {
			idx, pcv = -1, textBase+uint32(end)*isa.WordSize
		}
		continue
	taken:
		// A taken branch or JAL at j ends the pass; its static target is
		// pc+imm.
		steps += uint64(j-idx) + 1
		c.passEnd(a, bt, idx, j, pc+ops[j].imm)
		idx, pcv = branchTo(&ops[j], pc)
	}
}

// passEnd ends the block pass first..last, whose steps are charged: it
// accounts the pass in a and reports it to bt, when they are attached.
// Once a pass is known to run nothing new in the packet, the account
// costs one stamp compare. next is the pc the interpreter holds after
// last, which a tracer that panics sees as the fault pc. passEnd runs on
// every block pass, so it must stay within the compiler's inlining
// budget, with the rest in reportPass.
func (c *CPU) passEnd(a *Account, bt Tracer, first, last int, next uint32) {
	if bt != nil || a != nil && a.whole[first] != a.epoch {
		c.reportPass(first, last, next)
	}
}

// reportPass is passEnd's slow path, for the CPU's account and tracer.
func (c *CPU) reportPass(first, last int, next uint32) {
	c.Account.pass(first, last)
	if c.Tracer != nil {
		c.PC = next
		c.Tracer.Pass(first, last)
	}
}

// reportMem reports a data access to bt, when one is attached, at the pc
// of the accessing instruction, as the interpreter does.
func (c *CPU) reportMem(bt Tracer, pc, addr uint32, size uint8, write bool, r Region) {
	if bt != nil {
		c.PC = pc
		bt.Mem(pc, addr, size, write, r)
	}
}

// trap ends a run on fault f, raised by the last instruction of the
// block pass first..last.
func (c *CPU) trap(a *Account, bt Tracer, steps uint64, first, last int, f *Fault) (uint64, StopReason, error) {
	c.PC = f.PC
	steps += uint64(last-first) + 1
	c.passEnd(a, bt, first, last, f.PC)
	return steps, 0, f
}

// branchTo turns a taken static control transfer into the next dispatch
// state: a validated instruction index for in-text targets, or a slow
// pending PC (idx -1) for ReturnAddress and out-of-text targets.
func branchTo(op *microOp, pc uint32) (idx int, pcv uint32) {
	if op.aux >= 0 {
		return int(op.aux), 0
	}
	if op.aux == auxReturn {
		return -1, ReturnAddress
	}
	return -1, pc + op.imm
}
