// Package vm implements the PB32 instruction-level simulator that executes
// PacketBench applications.
//
// The simulator models a single network-processor core: sixteen 32-bit
// registers, a program counter, and a little-endian byte-addressed
// memory of semantically tagged regions (text, packet data, program
// data, stack), each data region backed by one growable slice (see
// Memory). The region tags are what make PacketBench-style
// workload characterization possible: every memory reference the
// application performs is classified as a packet-memory or non-packet-
// memory access, a distinction the paper identifies as essential for
// network processor design and one that general-purpose simulators do not
// make.
//
// Selective accounting — the paper's mechanism for excluding framework
// processing from the collected statistics — falls out of the design: the
// PacketBench framework (trace parsing, packet placement, route-table
// construction) runs as native host code that writes directly into
// simulated memory via the Memory type, while only application code is
// fetched and executed by the CPU. The Account and the Tracer hook
// therefore observe exactly the instructions the application itself
// would execute on a network processor core, and nothing else.
package vm

import (
	"fmt"

	"repro/internal/isa"
)

// Region classifies an address within the simulated address space. The
// split between RegionPacket and RegionData mirrors the paper's distinction
// between packet memory (the buffer the framework placed the packet in) and
// non-packet memory (routing tables, flow tables, application state).
type Region uint8

// The address-space regions of a PacketBench core.
const (
	RegionNone   Region = iota // unmapped; any access faults
	RegionText   Region = iota // instructions; writes fault
	RegionPacket               // packet buffer placed by the framework
	RegionData                 // application static data and heap
	RegionStack                // call stack
)

var regionNames = map[Region]string{
	RegionNone:   "unmapped",
	RegionText:   "text",
	RegionPacket: "packet",
	RegionData:   "data",
	RegionStack:  "stack",
}

// String returns the lower-case region name.
func (r Region) String() string {
	if n, ok := regionNames[r]; ok {
		return n
	}
	return fmt.Sprintf("region?%d", uint8(r))
}

// Layout defines the boundaries of each region. All bounds are half-open:
// a region spans [Base, End).
type Layout struct {
	TextBase, TextEnd     uint32
	PacketBase, PacketEnd uint32
	DataBase, DataEnd     uint32
	StackBase, StackEnd   uint32
}

// Classify returns the region containing addr.
func (l Layout) Classify(addr uint32) Region {
	switch {
	case addr >= l.TextBase && addr < l.TextEnd:
		return RegionText
	case addr >= l.PacketBase && addr < l.PacketEnd:
		return RegionPacket
	case addr >= l.DataBase && addr < l.DataEnd:
		return RegionData
	case addr >= l.StackBase && addr < l.StackEnd:
		return RegionStack
	}
	return RegionNone
}

// Check reports why the layout cannot back a Memory: a region whose
// bounds are not word aligned or are reversed, or two regions that
// overlap.
func (l Layout) Check() error {
	spans := [...][2]uint32{{l.TextBase, l.TextEnd}, {l.PacketBase, l.PacketEnd},
		{l.DataBase, l.DataEnd}, {l.StackBase, l.StackEnd}}
	for i, s := range spans {
		if s[0]%4|s[1]%4 != 0 || s[1] < s[0] {
			return fmt.Errorf("vm: %v region [%#x, %#x) is reversed or not word aligned", Region(i+1), s[0], s[1])
		}
		for j, t := range spans[:i] {
			if s[0] < t[1] && t[0] < s[1] {
				return fmt.Errorf("vm: %v region [%#x, %#x) overlaps the %v region", Region(i+1), s[0], s[1], Region(j+1))
			}
		}
	}
	return nil
}

// Tracer observes application execution: which instructions ran and
// which data memory each one touched. Selective accounting's counts come
// from the CPU's Account with no call per event; a tracer is for
// observers that need the events themselves, such as per-packet traces,
// per-instruction counts or a microarchitectural model. Implementations
// must be cheap; a nil Tracer costs the run a nil test per event.
//
// Both engines report the same stream. The interpreter (CPU.Run) reports
// each instruction as a one-instruction pass; the block-threaded loop
// (CPU.RunProgram) reports whole block passes. At each call CPU.PC holds
// the interpreter's pc: the accessing instruction's for Mem, the one
// after the pass for Pass (the last instruction's if it halts or faults).
type Tracer interface {
	// Pass reports that the instructions at text indexes first..last
	// (inclusive) executed once each, in order, inside one basic block.
	// A pass ends at the instruction that transfers control, halts or
	// faults — a faulting instruction is included — or at the block end
	// or the last instruction the step budget affords. A conditional
	// branch ends its block, so it is always the last instruction of its
	// pass. Mem events of the pass's instructions come before its Pass
	// call.
	Pass(first, last int)
	// Mem is called for each data memory access (never for instruction
	// fetches). size is 1, 2 or 4; region is the classification of addr.
	Mem(pc uint32, addr uint32, size uint8, write bool, region Region)
}

// FaultKind enumerates the ways simulated execution can fail. It
// implements error so a bare kind can be used as an errors.Is target:
//
//	if errors.Is(err, vm.FaultStepLimit) { ... }
type FaultKind uint8

// The fault kinds raised by the simulator. FaultOversizePacket and
// FaultHostPanic are raised by the framework around the simulator (packet
// placement and panic recovery) rather than by the instruction loop, but
// share the taxonomy so error policies can treat every per-packet failure
// uniformly.
const (
	FaultNone           FaultKind = iota
	FaultBadFetch                 // pc outside the text segment
	FaultUnmapped                 // data access to an unmapped address
	FaultUnaligned                // halfword/word access to a misaligned address
	FaultTextWrite                // store into the text segment
	FaultStepLimit                // execution exceeded the step budget
	FaultBadInstr                 // undecodable instruction (cannot happen with assembled code)
	FaultOversizePacket           // packet larger than the packet buffer
	FaultHostPanic                // panic recovered during simulated execution
)

var faultNames = map[FaultKind]string{
	FaultBadFetch:       "instruction fetch outside text segment",
	FaultUnmapped:       "access to unmapped address",
	FaultUnaligned:      "unaligned access",
	FaultTextWrite:      "store into text segment",
	FaultStepLimit:      "step limit exceeded",
	FaultBadInstr:       "undecodable instruction",
	FaultOversizePacket: "packet exceeds the packet buffer",
	FaultHostPanic:      "panic during simulated execution",
}

// String returns the human-readable fault name.
func (k FaultKind) String() string {
	if k == FaultNone {
		return "none"
	}
	if n, ok := faultNames[k]; ok {
		return n
	}
	return fmt.Sprintf("fault?%d", uint8(k))
}

// Error implements error, making a FaultKind usable directly as an
// errors.Is target for any wrapped *Fault of that kind.
func (k FaultKind) Error() string { return "vm: " + k.String() }

// Fault is the error returned when simulated execution traps.
type Fault struct {
	Kind FaultKind
	PC   uint32 // pc of the faulting instruction
	Addr uint32 // offending data address, when applicable
}

func (f *Fault) Error() string {
	// Kind.String, not Kind itself: fmt would pick the Error method
	// (which already carries the "vm: " prefix) and double it.
	return fmt.Sprintf("vm: %s at pc=%#x addr=%#x", f.Kind.String(), f.PC, f.Addr)
}

// Unwrap exposes the kind, so errors.Is(err, vm.FaultUnmapped) matches
// through arbitrary wrapping.
func (f *Fault) Unwrap() error { return f.Kind }

// Is reports whether target names the same failure: a FaultKind matches
// by kind alone; a *Fault matches by kind with zero PC/Addr fields acting
// as wildcards, so errors.Is(err, &vm.Fault{Kind: vm.FaultUnmapped})
// works without knowing the faulting address.
func (f *Fault) Is(target error) bool {
	switch t := target.(type) {
	case FaultKind:
		return f.Kind == t
	case *Fault:
		return f.Kind == t.Kind &&
			(t.PC == 0 || t.PC == f.PC) &&
			(t.Addr == 0 || t.Addr == f.Addr)
	}
	return false
}

// StopReason reports why Run returned without a fault.
type StopReason uint8

// Reasons a Run completes normally.
const (
	StopHalt   StopReason = iota // the application executed HALT
	StopReturn                   // the application returned to ReturnAddress
)

// ReturnAddress is the magic link-register value the framework passes to
// the application: a jump to it (the final "ret") ends the run. It sits in
// otherwise unmappable high memory, word aligned.
const ReturnAddress uint32 = 0xFFFFFFF0

// CPU is one simulated PB32 core.
type CPU struct {
	Regs [isa.NumRegs]uint32
	PC   uint32

	// Mem is the core's memory; its layout classifies every access.
	Mem *Memory
	// Account, when non-nil, keeps the per-packet account of every run
	// inline (see Account).
	Account *Account
	// Tracer, when non-nil, observes every executed pass and data
	// access. Only observers that need the events themselves attach
	// one: the statistics collector for its Detail traces and PCCounts,
	// the microarch profiler, and third-party tracers.
	Tracer Tracer

	text     []isa.Instruction
	textBase uint32
	steps    uint64 // instructions executed over the CPU's lifetime

	// packetWriteHigh is the exclusive end address of the highest
	// packet-region store since the last ResetPacketWriteHigh. The
	// framework uses it to bound how much of the packet buffer a run can
	// have dirtied, so the next packet placement only has to clear bytes
	// that were actually written.
	packetWriteHigh uint32
}

// New creates a CPU executing the given pre-decoded text segment over
// mem, whose layout gives the text bounds a data access is classified
// against.
func New(text []isa.Instruction, textBase uint32, mem *Memory) *CPU {
	return &CPU{Mem: mem, text: text, textBase: textBase}
}

// Steps returns the total number of instructions executed by this CPU
// since creation.
func (c *CPU) Steps() uint64 { return c.steps }

// PacketWriteHigh returns the exclusive end address of the highest
// packet-region store since the last ResetPacketWriteHigh, or zero if the
// packet buffer was not written.
func (c *CPU) PacketWriteHigh() uint32 { return c.packetWriteHigh }

// ResetPacketWriteHigh clears the packet-store watermark; the framework
// calls it before each packet run.
func (c *CPU) ResetPacketWriteHigh() { c.packetWriteHigh = 0 }

// Reg returns the value of register r (a convenience for host code).
func (c *CPU) Reg(r isa.Reg) uint32 { return c.Regs[r] }

// SetReg assigns register r. Writes to the zero register are discarded,
// matching the architecture.
func (c *CPU) SetReg(r isa.Reg, v uint32) {
	if r != isa.Zero {
		c.Regs[r] = v
	}
}

// Run executes instructions starting at c.PC until the application halts,
// returns to ReturnAddress, faults, or exceeds maxSteps. It returns the
// number of instructions executed by this call. Each executed
// instruction, a faulting one included, reaches the Account and the
// Tracer as a one-instruction pass after its Mem events. A run stopped
// by maxSteps resumes from c.PC as if it had never stopped.
func (c *CPU) Run(maxSteps uint64) (steps uint64, reason StopReason, err error) {
	c.bind()
	defer func() { c.charge(steps) }()
	for {
		if c.PC == ReturnAddress {
			return steps, StopReturn, nil
		}
		if steps >= maxSteps {
			return steps, 0, &Fault{Kind: FaultStepLimit, PC: c.PC}
		}
		off := c.PC - c.textBase
		if off%isa.WordSize != 0 || off/isa.WordSize >= uint32(len(c.text)) {
			return steps, 0, &Fault{Kind: FaultBadFetch, PC: c.PC}
		}
		i := int(off / isa.WordSize)
		steps++
		halt, err := c.execute(c.text[i])
		c.Account.pass(i, i)
		if c.Tracer != nil {
			c.Tracer.Pass(i, i)
		}
		if err != nil {
			return steps, 0, err
		}
		if halt {
			return steps, StopHalt, nil
		}
	}
}

// bind starts a run: the memory's regions mark the coverage sets of the
// CPU's account, if it marks any, and count the run's accesses from 0.
func (c *CPU) bind() {
	for r := RegionPacket; r <= RegionStack; r++ {
		s := &c.Mem.seg[r]
		s.n, s.mark = [2]uint64{}, nil
		if c.Account != nil {
			s.mark = c.Account.marking[r]
		}
	}
}

// charge ends a run: it adds the run's steps to the CPU's lifetime count,
// and its steps and accesses to the CPU's account.
func (c *CPU) charge(steps uint64) {
	c.steps += steps
	if a := c.Account; a != nil {
		a.Instructions += steps
		for r := RegionPacket; r <= RegionStack; r++ {
			a.Accesses[r][0] += c.Mem.seg[r].n[0]
			a.Accesses[r][1] += c.Mem.seg[r].n[1]
		}
	}
}

// execute runs one instruction, updating registers, memory and the pc.
func (c *CPU) execute(in isa.Instruction) (halt bool, err error) {
	pc := c.PC
	next := pc + isa.WordSize
	rs1 := c.Regs[in.Rs1]
	rs2 := c.Regs[in.Rs2]
	imm := uint32(in.Imm)

	setRd := func(v uint32) {
		if in.Rd != isa.Zero {
			c.Regs[in.Rd] = v
		}
	}

	switch in.Op {
	case isa.ADD:
		setRd(rs1 + rs2)
	case isa.SUB:
		setRd(rs1 - rs2)
	case isa.AND:
		setRd(rs1 & rs2)
	case isa.OR:
		setRd(rs1 | rs2)
	case isa.XOR:
		setRd(rs1 ^ rs2)
	case isa.SLL:
		setRd(rs1 << (rs2 & 31))
	case isa.SRL:
		setRd(rs1 >> (rs2 & 31))
	case isa.SRA:
		setRd(uint32(int32(rs1) >> (rs2 & 31)))
	case isa.SLT:
		setRd(b2u(int32(rs1) < int32(rs2)))
	case isa.SLTU:
		setRd(b2u(rs1 < rs2))
	case isa.MUL:
		setRd(rs1 * rs2)

	case isa.ADDI:
		setRd(rs1 + imm)
	case isa.ANDI:
		setRd(rs1 & imm)
	case isa.ORI:
		setRd(rs1 | imm)
	case isa.XORI:
		setRd(rs1 ^ imm)
	case isa.SLLI:
		setRd(rs1 << (imm & 31))
	case isa.SRLI:
		setRd(rs1 >> (imm & 31))
	case isa.SRAI:
		setRd(uint32(int32(rs1) >> (imm & 31)))
	case isa.SLTI:
		setRd(b2u(int32(rs1) < in.Imm))
	case isa.SLTIU:
		setRd(b2u(rs1 < imm))

	case isa.LUI:
		setRd(imm << 12)

	case isa.LB, isa.LBU, isa.LH, isa.LHU, isa.LW:
		addr := rs1 + imm
		v, err := c.load(pc, addr, in.Op)
		if err != nil {
			return false, err
		}
		setRd(v)

	case isa.SB, isa.SH, isa.SW:
		addr := rs1 + imm
		if err := c.store(pc, addr, in.Op, c.Regs[in.Rd]); err != nil {
			return false, err
		}

	case isa.BEQ:
		if rs1 == rs2 {
			next = pc + isa.WordSize + imm*isa.WordSize
		}
	case isa.BNE:
		if rs1 != rs2 {
			next = pc + isa.WordSize + imm*isa.WordSize
		}
	case isa.BLT:
		if int32(rs1) < int32(rs2) {
			next = pc + isa.WordSize + imm*isa.WordSize
		}
	case isa.BGE:
		if int32(rs1) >= int32(rs2) {
			next = pc + isa.WordSize + imm*isa.WordSize
		}
	case isa.BLTU:
		if rs1 < rs2 {
			next = pc + isa.WordSize + imm*isa.WordSize
		}
	case isa.BGEU:
		if rs1 >= rs2 {
			next = pc + isa.WordSize + imm*isa.WordSize
		}

	case isa.JAL:
		setRd(next)
		next = pc + isa.WordSize + imm*isa.WordSize
	case isa.JALR:
		target := (rs1 + imm) &^ 3
		setRd(pc + isa.WordSize)
		next = target

	case isa.HALT:
		return true, nil

	default:
		return false, &Fault{Kind: FaultBadInstr, PC: pc}
	}
	c.PC = next
	return false, nil
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// load performs a data read with alignment checking, region
// classification and tracing.
func (c *CPU) load(pc, addr uint32, op isa.Opcode) (uint32, error) {
	size := uint32(op.MemSize())
	s, off := c.Mem.find(addr)
	if addr%size != 0 || s == nil {
		var f *Fault
		if s, off, f = c.miss(addr, size, false, pc); f != nil {
			return 0, f
		}
	}
	s.access(off, false)
	if c.Tracer != nil {
		c.Tracer.Mem(pc, addr, uint8(size), false, s.r)
	}
	b := s.b
	switch op {
	case isa.LB:
		return uint32(int32(int8(read8(b, off)))), nil
	case isa.LBU:
		return uint32(read8(b, off)), nil
	case isa.LH:
		return uint32(int32(int16(read16(b, off)))), nil
	case isa.LHU:
		return uint32(read16(b, off)), nil
	}
	return read32(b, off), nil
}

// store performs a data write with alignment checking, region
// classification and tracing.
func (c *CPU) store(pc, addr uint32, op isa.Opcode, v uint32) error {
	size := uint32(op.MemSize())
	s, off := c.Mem.find(addr)
	if addr%size != 0 || s == nil {
		var f *Fault
		if s, off, f = c.miss(addr, size, true, pc); f != nil {
			return f
		}
	}
	if s.r == RegionPacket && addr+size > c.packetWriteHigh {
		c.packetWriteHigh = addr + size
	}
	s.access(off, true)
	if c.Tracer != nil {
		c.Tracer.Mem(pc, addr, uint8(size), true, s.r)
	}
	b := s.b
	switch op {
	case isa.SB:
		b[off] = uint8(v)
	case isa.SH:
		write16(b, off, uint16(v))
	case isa.SW:
		write32(b, off, v)
	}
	return nil
}

// miss resolves a data access of size bytes that Memory.find did not
// serve, with the interpreter's checks in its order: alignment, then
// region. It returns the access's region and the offset in it. A store
// past the region's slice grows it; a load there reads zero and grows
// nothing.
func (c *CPU) miss(addr, size uint32, write bool, pc uint32) (*segment, uint32, *Fault) {
	if addr&(size-1) != 0 {
		return nil, 0, &Fault{Kind: FaultUnaligned, PC: pc, Addr: addr}
	}
	r := c.Mem.layout.Classify(addr)
	if r == RegionText && write {
		return nil, 0, &Fault{Kind: FaultTextWrite, PC: pc, Addr: addr}
	}
	if r == RegionNone || r == RegionText {
		// Reading the text segment as data is disallowed: PacketBench
		// applications keep constants in the data segment, and a text read
		// almost always indicates a pointer bug in the application.
		return nil, 0, &Fault{Kind: FaultUnmapped, PC: pc, Addr: addr}
	}
	s := &c.Mem.seg[r]
	off := addr - s.base
	if write {
		s.grow(off + size)
	}
	return s, off, nil
}

// MultiTracer fans tracer events out to several tracers, letting the
// workload collector and a microarchitectural profiler observe the same
// run.
type MultiTracer []Tracer

// Mem implements Tracer.
func (m MultiTracer) Mem(pc, addr uint32, size uint8, write bool, region Region) {
	for _, t := range m {
		t.Mem(pc, addr, size, write, region)
	}
}

// Pass implements Tracer.
func (m MultiTracer) Pass(first, last int) {
	for _, t := range m {
		t.Pass(first, last)
	}
}
