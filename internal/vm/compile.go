// Compiled execution tier: trace-specialized Go closures.
//
// The block-threaded loops (threaded.go) already eliminate fetch checks
// and pre-decode operands, but every retired instruction still pays one
// trip around a dispatch switch. This file climbs the next rung: hot
// basic-block chains are lowered, at run time, into chains of
// specialized Go closures — one continuation-passing closure per
// instruction, each capturing its pre-masked register indexes, ready
// immediate, its own PC, and its static position in the chain. Between
// instructions there is no dispatch at all: a closure does its work and
// calls the next one, and the CPU and register-file pointers travel in
// machine registers through Go's register-based calling convention,
// which is as close to "guest state in host locals" as the language
// allows without emitting code.
//
// A chain is a superblock: starting from a hot block leader the builder
// follows fallthrough edges, unconditional jumps, and branches the
// verifier proved always-taken (uGOTO), crossing block boundaries until
// it meets an indirect jump, a HALT, a revisited instruction, an
// ineligible block, or the length cap. Conditional branches inside the
// chain become guards: the not-taken edge stays in the chain, the taken
// edge exits — except when the taken target is the chain head, which
// makes the branch a loop latch the runner re-enters without leaving
// the compiled tier. Verifier facts (internal/staticcheck, PR 8) elide
// the alignment and region checks of proven memory operands inside the
// region, exactly as TranslateWithFacts does for the threaded body.
//
// Every way out of a chain is a typed side-exit stub that materializes
// the full CPU state before returning to the dispatcher: the stub
// writes the exit kind, the exact number of instructions the chain
// retired (a static constant — straight-line position needs no runtime
// counter), and the continuation (validated instruction index, pending
// PC, or fault kind/PC/address) into the CPU's exit frame. Register
// writes always go straight to the architectural register file, so at
// any exit — including a mid-chain fault — the registers, the step
// count, c.PC and the fault record are bit-identical to what the
// interpreter produces at the same instruction.
//
// Selection is profile-guided, two ways. Offline: CompileConfig.Hot
// carries block leaders ranked from a recorded profile's exact PCCounts
// (internal/profile.HotBlocks), compiled eagerly. Online: the runner
// counts cold entries per block leader and promotes a block to a chain
// after PromoteAfter hits. Cold blocks run on the reference interpreter
// (CPU.Run) one block at a time — the interpreter keeps its state fully
// materialized at every instruction, so mixed-tier runs stay exact by
// construction, and a spurious per-block step-limit is re-dispatched
// rather than surfaced.
//
// Tier rules mirror the established contracts: a Tracer forces the
// threaded traced loop (per-instruction event order is pinned to the
// interpreter), and Compile refuses to build anything without verifier
// facts — an unverified (NoVerify) program can never reach the compiled
// tier, the same no-proof-no-elision line the threaded engine draws.
package vm

import (
	"encoding/binary"

	"repro/internal/isa"
)

// CompiledExitReason classifies how control left a compiled chain and
// returned to the dispatcher. The values are dense so per-reason exit
// counters live in a small array (telemetry exports them as
// compiled_exits_total{reason}).
type CompiledExitReason uint8

// Side-exit reasons.
const (
	// CexitEnd: the chain ran to its end and fell through to the next
	// instruction (block split, length cap, or ineligible successor).
	CexitEnd CompiledExitReason = iota
	// CexitLoop: a loop latch jumped back to the chain head; the runner
	// re-enters the same chain without leaving the compiled tier.
	CexitLoop
	// CexitBranch: a guard (unproven conditional branch) was taken.
	CexitBranch
	// CexitJump: a static jump (JAL or proven-always branch) left the
	// chain.
	CexitJump
	// CexitJalr: an indirect jump; the target PC needs full validation.
	CexitJalr
	// CexitHalt: the program halted inside the chain.
	CexitHalt
	// CexitFault: a checked memory access faulted mid-chain.
	CexitFault
	// CexitBudget: the runner declined to enter a chain because the
	// remaining step budget does not cover its longest path; the block
	// runs on the cold tier instead, which raises any step-limit fault
	// at the exact instruction the interpreter would.
	CexitBudget

	// NumCompiledExitReasons is the number of distinct exit reasons.
	NumCompiledExitReasons
)

var cexitNames = [NumCompiledExitReasons]string{
	"end", "loop", "branch", "jump", "jalr", "halt", "fault", "budget",
}

// String returns the telemetry label for the exit reason.
func (r CompiledExitReason) String() string {
	if r < NumCompiledExitReasons {
		return cexitNames[r]
	}
	return "unknown"
}

// cstep is one compiled instruction: do the work, then either call the
// captured continuation or write a side exit into c's frame and return.
// The CPU and register-file pointers are threaded through the calls as
// arguments — Go's register ABI keeps both in machine registers across
// the whole chain, so the hot closures touch memory only for the guest
// accesses themselves.
type cstep func(c *CPU, regs *[isa.NumRegs]uint32)

// cframe is the typed side-exit record exactly one terminal stub writes
// per chain run, on its way back to runCompiled. It lives inside the
// CPU so entering a chain allocates nothing.
type cframe struct {
	kind  CompiledExitReason
	pos   uint32 // instructions the chain retired, incl. the exiting one
	idx   int32  // validated next instruction index, or -1
	pcv   uint32 // pending PC when idx < 0; the HALT's own PC for CexitHalt
	fkind FaultKind
	fpc   uint32
	faddr uint32
}

// chain is one compiled superblock, entered only at its head.
type chain struct {
	// n is the chain's longest path in retired instructions (the
	// straight-line path: every side exit retires at most n). The runner
	// enters only when the remaining budget covers n, so compiled code
	// never needs a step-budget check between instructions.
	n     uint32
	entry cstep
}

// DefaultPromoteAfter is the online promotion threshold: a block whose
// leader the cold tier has entered this many times is compiled on the
// spot. Low enough that a per-packet hot loop is promoted within the
// first packets of a run, high enough that straight-line glue code
// stays on the cold tier where it costs nothing to skip.
const DefaultPromoteAfter = 16

// maxChainLen caps the number of compiled closures per chain. Chains
// are entered only when the step budget covers their full length, so an
// over-long chain would starve near-budget runs into the cold tier;
// 128 covers every loop body in the bundled apps several times over.
const maxChainLen = 128

// CompileConfig selects which blocks the compiler specializes.
type CompileConfig struct {
	// Hot lists instruction indexes of block leaders to compile eagerly
	// — offline profile-guided selection, typically the top blocks of a
	// recorded profile ranked by internal/profile.HotBlocks. Entries
	// that are not leaders of eligible blocks are ignored.
	Hot []int32
	// PromoteAfter is the online promotion threshold in block entries.
	// Zero selects DefaultPromoteAfter; a negative value disables
	// online promotion entirely (offline Hot list only).
	PromoteAfter int
}

// CompiledStats summarizes compiled-tier activity for telemetry.
type CompiledStats struct {
	// BlocksCompiled counts blocks whose leader roots a compiled chain
	// (offline and online promotions both).
	BlocksCompiled uint64
	// Exits counts chain side exits by reason, CexitLoop included (one
	// count per loop iteration that stayed in the compiled tier).
	Exits [NumCompiledExitReasons]uint64
}

// CompiledProgram is a Program plus its compiled-tier state: chains
// rooted at hot block leaders, online promotion counters, and exit
// statistics. Unlike a Program it is mutable at run time (online
// promotion installs new chains, the runner bumps counters), so a
// CompiledProgram must not be shared between CPUs — each core compiles
// its own, the same way each core owns its CPU.
type CompiledProgram struct {
	p     *Program
	facts *TranslationFacts
	// chains[i] is the compiled superblock rooted at instruction i, nil
	// for everything that is not a compiled leader.
	chains []*chain
	// counts[b] is the cold-tier entry count of block b's leader;
	// tried[b] marks blocks already compiled or found ineligible.
	counts  []uint32
	tried   []bool
	promote uint32
	online  bool
	stats   CompiledStats
}

// Compile builds the compiled execution tier for a translated program.
// facts must carry the verifier's proof for this exact program: the
// compiled tier exists only for verified programs, so a nil facts
// refuses to compile (callers fall back to the threaded engine — the
// same no-proof-no-elision contract the proof-guided translator enforces).
// cfg.Hot seeds eager chains; everything else is promoted online.
func Compile(p *Program, facts *TranslationFacts, cfg CompileConfig) *CompiledProgram {
	if p == nil || facts == nil || len(p.ops) == 0 {
		return nil
	}
	cp := &CompiledProgram{
		p:      p,
		facts:  facts,
		chains: make([]*chain, len(p.ops)),
		counts: make([]uint32, p.NumBlocks()),
		tried:  make([]bool, p.NumBlocks()),
		online: cfg.PromoteAfter >= 0,
	}
	promote := cfg.PromoteAfter
	if promote <= 0 {
		promote = DefaultPromoteAfter
	}
	cp.promote = uint32(promote)
	for _, h := range cfg.Hot {
		if h >= 0 && int(h) < len(p.ops) {
			cp.compileAt(h)
		}
	}
	return cp
}

// Program returns the underlying translated program.
func (cp *CompiledProgram) Program() *Program { return cp.p }

// Stats returns a snapshot of the compiled-tier statistics.
func (cp *CompiledProgram) Stats() CompiledStats { return cp.stats }

// compileAt builds and installs the chain rooted at instruction idx.
// It reports whether a chain is installed there (pre-existing included).
func (cp *CompiledProgram) compileAt(idx int32) bool {
	if cp.chains[idx] != nil {
		return true
	}
	b := cp.p.blockOf[idx]
	if cp.p.leader[b] != idx {
		return false
	}
	if cp.facts.deadAt(int(b)) || !cp.facts.chainOKAt(int(b)) {
		return false
	}
	ch := cp.buildChain(int(idx))
	if ch == nil {
		return false
	}
	cp.chains[idx] = ch
	cp.stats.BlocksCompiled++
	return true
}

// Roles a chain slot can play; they select the closure shape.
const (
	roleOp       uint8 = iota // straight-line op, continues to the next slot
	roleLink                  // JAL link write, jump target continues the chain
	roleGuard                 // conditional branch: taken edge exits (or latches)
	roleGuardInv              // unrolled latch copy: taken edge continues, fall-through exits
	roleJump                  // unconditional exit (JAL/uGOTO leaving the chain)
	roleJalr                  // indirect jump: dynamic target, always exits
	roleHalt
)

// Slot fusion kinds: adjacent non-faulting slots merged into one closure
// (the compiled tier's superinstructions, specialized at build time so
// the merged closure has no inner dispatch).
const (
	fkNone     uint8 = iota
	fkLdAlu          // unchecked word load + ALU
	fkAluAlu         // hot ALU pair
	fkAluSt          // ALU + unchecked word store
	fkAluGuard       // ALU + conditional branch (counted-loop latches)
)

// cslot is one instruction of a chain during building, with everything
// the closure factory needs captured statically.
type cslot struct {
	op   microOp
	op2  microOp // second component when fk != fkNone
	fk   uint8
	pc   uint32
	pos  uint32 // instructions retired through this op on the chain path
	role uint8
	link bool               // roleJump: also write the JAL link register
	kind CompiledExitReason // exit kind for roleGuard/roleJump
	tIdx int32              // validated taken/jump target index, or -1
	tPcv uint32             // pending PC when tIdx < 0
}

// buildChain lowers the superblock rooted at head into a closure chain,
// or returns nil when nothing can be compiled there (the head retires
// zero instructions on every path — e.g. an undecodable instruction).
func (cp *CompiledProgram) buildChain(head int) *chain {
	p, facts := cp.p, cp.facts
	n := len(p.ops)
	seen := make([]bool, n)
	slots := make([]cslot, 0, 16)
	pos := uint32(0)
	i := head
	needEnd := false

walk:
	for {
		if i >= n || seen[i] || len(slots) >= maxChainLen {
			needEnd = true
			break
		}
		if b := int(p.blockOf[i]); facts.deadAt(b) || !facts.chainOKAt(b) {
			// Facts claim nothing about dead blocks and the verifier
			// withheld chain eligibility: leave it to the checked tiers.
			needEnd = true
			break
		}
		op := facts.provenOp(p, i)
		pc := p.textBase + uint32(i)*isa.WordSize
		seen[i] = true
		switch {
		case op.code == uNOP:
			// Retires but has no effect and cannot fault: the chain
			// carries it as a position bump, not a closure.
			pos++
			i++
		case op.code == uGOTO || op.code == uJAL:
			pos++
			link := op.code == uJAL && op.rd != 0
			if t := op.aux; t >= 0 && int(t) == head {
				// Unconditional loop latch back to the chain head.
				slots = append(slots, cslot{op: op, pc: pc, pos: pos,
					role: roleJump, link: link, kind: CexitLoop, tIdx: t})
				break walk
			} else if t >= 0 && !seen[int(t)] {
				// Follow the jump: the chain continues at the target.
				if link {
					slots = append(slots, cslot{op: op, pc: pc, pos: pos, role: roleLink})
				}
				i = int(t)
			} else {
				// Out of text, to ReturnAddress, or back into the chain:
				// exit with the statically resolved continuation.
				ti, tp := branchTo(&op, pc)
				slots = append(slots, cslot{op: op, pc: pc, pos: pos,
					role: roleJump, link: link, kind: CexitJump, tIdx: int32(ti), tPcv: tp})
				break walk
			}
		case isBranchCode(op.code):
			pos++
			ti, tp := branchTo(&op, pc)
			s := cslot{op: op, pc: pc, pos: pos, role: roleGuard,
				kind: CexitBranch, tIdx: int32(ti), tPcv: tp}
			if ti >= 0 && ti == head {
				// Loop latch: taken re-enters the chain via the runner.
				s.kind = CexitLoop
			}
			slots = append(slots, s)
			i++
		case op.code == uJALR:
			pos++
			slots = append(slots, cslot{op: op, pc: pc, pos: pos, role: roleJalr})
			break walk
		case op.code == uHALT:
			pos++
			slots = append(slots, cslot{op: op, pc: pc, pos: pos, role: roleHalt})
			break walk
		case op.code == uBAD:
			// Undecodable: leave it to the fully-checked tiers.
			needEnd = true
			break walk
		default:
			pos++
			slots = append(slots, cslot{op: op, pc: pc, pos: pos, role: roleOp})
			i++
		}
	}
	if pos == 0 {
		// The chain retires nothing (head is undecodable or ineligible):
		// entering it would make no progress, so don't build it.
		return nil
	}

	// Merge adjacent non-faulting slots into superinstruction closures,
	// then unroll a conditional loop latch so the dispatcher round-trip
	// amortizes over several iterations.
	slots = fuseSlots(slots)
	slots, pos = unrollLatch(slots, pos, n, p.textBase)

	// Assemble the closures back to front, so each factory captures its
	// already-built continuation.
	var next cstep
	if needEnd {
		endPos := pos
		eIdx, ePcv := int32(i), uint32(0)
		if i >= n {
			// Fell through past the last instruction: the slow path
			// raises FaultBadFetch at the first out-of-text PC, exactly
			// like the threaded epilogue.
			eIdx, ePcv = -1, p.textBase+uint32(n)*isa.WordSize
		}
		next = func(c *CPU, regs *[isa.NumRegs]uint32) {
			c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = CexitEnd, endPos, eIdx, ePcv
		}
	}
	for k := len(slots) - 1; k >= 0; k-- {
		if slots[k].fk != fkNone {
			next = makeFusedStep(&slots[k], next)
		} else {
			next = makeStep(&slots[k], next)
		}
	}
	return &chain{n: pos, entry: next}
}

// aluFusable marks the ALU codes the fused closure factory specializes
// as the partner of a load or store component. Sized over the whole
// code range a chain slot can carry — provenOp rewrites proven memory
// ops to the unchecked codes (uULW..uUSW) and folded branches to uGOTO,
// all past uBAD, and those must index as false, not out of range.
var aluFusable = [uGOTO + 1]bool{
	uADD: true, uSUB: true, uAND: true, uOR: true, uXOR: true,
	uADDI: true, uANDI: true, uORI: true, uXORI: true,
}

// aluPairs is the set of hot ALU+ALU pairs with a specialized fused
// closure — the counted-loop and hash-mix idioms the guest profiler
// shows hottest.
var aluPairs = map[[2]uint8]bool{
	{uANDI, uADD}: true, {uADD, uXOR}: true, {uXOR, uADD}: true,
	{uAND, uADD}: true, {uADD, uADDI}: true, {uADDI, uADDI}: true,
	{uSLLI, uOR}: true, {uSRLI, uANDI}: true,
}

// fuseKind classifies an adjacent slot pair for fusion, fkNone when the
// pair has no specialized closure. Only non-faulting first components
// are ever fused: a fused slot carries one exit position (the second
// op's), so the first op must not be able to side-exit on its own.
func fuseKind(a, b *cslot) uint8 {
	if a.role != roleOp {
		return fkNone
	}
	ac, bc := a.op.code, b.op.code
	switch b.role {
	case roleOp:
		switch {
		case ac == uULW && aluFusable[bc]:
			return fkLdAlu
		case bc == uUSW && aluFusable[ac]:
			return fkAluSt
		case aluPairs[[2]uint8{ac, bc}]:
			return fkAluAlu
		}
	case roleGuard:
		if ac == uADDI {
			return fkAluGuard
		}
	}
	return fkNone
}

// fuseSlots merges adjacent slot pairs with specialized fused closures,
// greedily left to right. The merged slot keeps the second op's exit
// metadata.
func fuseSlots(slots []cslot) []cslot {
	out := make([]cslot, 0, len(slots))
	for k := 0; k < len(slots); k++ {
		if k+1 < len(slots) {
			if fk := fuseKind(&slots[k], &slots[k+1]); fk != fkNone {
				m := slots[k+1]
				m.op, m.op2, m.fk = slots[k].op, slots[k+1].op, fk
				out = append(out, m)
				k++
				continue
			}
		}
		out = append(out, slots[k])
	}
	return out
}

// latchUnroll is how many loop iterations an unrolled chain runs per
// dispatcher entry, and latchUnrollMax caps the unrolled body so the
// budget pre-check (which must cover the whole chain) cannot starve
// short-budget runs into the cold tier.
const (
	latchUnroll    = 4
	latchUnrollMax = 256
)

// unrollLatch unrolls a chain whose body closes with a conditional loop
// latch: the body is replicated latchUnroll-1 times with the latch
// inverted (taken falls through to the next copy inline; not-taken —
// loop done — side-exits to the latch's fall-through), followed by the
// original chain with the real latch, so one dispatcher entry retires
// up to latchUnroll iterations. Exit positions are rebased per copy;
// every side exit still reports the exact retire count.
func unrollLatch(slots []cslot, pos uint32, ntext int, textBase uint32) ([]cslot, uint32) {
	last := -1
	for k := range slots {
		if slots[k].kind == CexitLoop && slots[k].role == roleGuard {
			last = k
		}
	}
	if last < 0 {
		return slots, pos
	}
	span := slots[last].pos
	if span == 0 || uint64(span)*latchUnroll > latchUnrollMax {
		return slots, pos
	}
	// The latch's fall-through continuation, for the inverted copies.
	fpc := slots[last].pc + isa.WordSize
	fIdx := int32(-1)
	if off := fpc - textBase; off/isa.WordSize < uint32(ntext) {
		fIdx = int32(off / isa.WordSize)
	}
	out := make([]cslot, 0, (last+1)*(latchUnroll-1)+len(slots))
	for u := 0; u < latchUnroll-1; u++ {
		base := uint32(u) * span
		for k := 0; k <= last; k++ {
			s := slots[k]
			s.pos += base
			if k == last {
				s.role = roleGuardInv
				s.kind = CexitBranch
				s.tIdx = fIdx
				s.tPcv = fpc
			}
			out = append(out, s)
		}
	}
	base := uint32(latchUnroll-1) * span
	for k := range slots {
		s := slots[k]
		s.pos += base
		out = append(out, s)
	}
	return out, pos + base
}

// makeStep builds the specialized closure for one chain slot. Every
// operand the closure needs is captured as a local here — register
// indexes pre-masked at translation time (re-masked with &15 at the use
// sites to drop the register-file bounds checks), the ready immediate,
// the slot's own PC and static retire position — so the closure bodies
// do pure data flow: no decoding, no dispatch, no allocation, and no
// step accounting until a side exit writes its static position.
func makeStep(s *cslot, nx cstep) cstep {
	op := s.op
	rd, rs1, rs2 := op.rd, op.rs1, op.rs2
	imm := op.imm
	pc := s.pc
	epos := s.pos
	kind := s.kind
	tIdx, tPcv := s.tIdx, s.tPcv

	switch s.role {
	case roleHalt:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			c.cframe.kind, c.cframe.pos, c.cframe.pcv = CexitHalt, epos, pc
		}
	case roleJalr:
		lpc := pc + isa.WordSize
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			t := (regs[rs1&15] + imm) &^ 3
			if rd != 0 {
				regs[rd&15] = lpc
			}
			c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = CexitJalr, epos, -1, t
		}
	case roleJump:
		if s.link {
			lpc := pc + isa.WordSize
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = lpc
				c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
			}
		}
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
		}
	case roleLink:
		lpc := pc + isa.WordSize
		return func(c *CPU, regs *[isa.NumRegs]uint32) { regs[rd&15] = lpc; nx(c, regs) }
	case roleGuard:
		switch op.code {
		case uBEQ:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				if regs[rs1&15] == regs[rs2&15] {
					c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
					return
				}
				nx(c, regs)
			}
		case uBNE:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				if regs[rs1&15] != regs[rs2&15] {
					c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
					return
				}
				nx(c, regs)
			}
		case uBLT:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				if int32(regs[rs1&15]) < int32(regs[rs2&15]) {
					c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
					return
				}
				nx(c, regs)
			}
		case uBGE:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				if int32(regs[rs1&15]) >= int32(regs[rs2&15]) {
					c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
					return
				}
				nx(c, regs)
			}
		case uBLTU:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				if regs[rs1&15] < regs[rs2&15] {
					c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
					return
				}
				nx(c, regs)
			}
		case uBGEU:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				if regs[rs1&15] >= regs[rs2&15] {
					c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
					return
				}
				nx(c, regs)
			}
		}
	case roleGuardInv:
		// Unrolled latch copy: the taken edge continues inline into the
		// next body copy; not-taken (loop done) exits to the latch's
		// fall-through, carried in tIdx/tPcv.
		switch op.code {
		case uBEQ:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				if regs[rs1&15] == regs[rs2&15] {
					nx(c, regs)
					return
				}
				c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
			}
		case uBNE:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				if regs[rs1&15] != regs[rs2&15] {
					nx(c, regs)
					return
				}
				c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
			}
		case uBLT:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				if int32(regs[rs1&15]) < int32(regs[rs2&15]) {
					nx(c, regs)
					return
				}
				c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
			}
		case uBGE:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				if int32(regs[rs1&15]) >= int32(regs[rs2&15]) {
					nx(c, regs)
					return
				}
				c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
			}
		case uBLTU:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				if regs[rs1&15] < regs[rs2&15] {
					nx(c, regs)
					return
				}
				c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
			}
		case uBGEU:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				if regs[rs1&15] >= regs[rs2&15] {
					nx(c, regs)
					return
				}
				c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
			}
		}
	}

	// roleOp: straight-line ALU and memory closures.
	switch op.code {
	case uADD:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = regs[rs1&15] + regs[rs2&15]
			nx(c, regs)
		}
	case uSUB:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = regs[rs1&15] - regs[rs2&15]
			nx(c, regs)
		}
	case uAND:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = regs[rs1&15] & regs[rs2&15]
			nx(c, regs)
		}
	case uOR:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = regs[rs1&15] | regs[rs2&15]
			nx(c, regs)
		}
	case uXOR:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = regs[rs1&15] ^ regs[rs2&15]
			nx(c, regs)
		}
	case uSLL:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = regs[rs1&15] << (regs[rs2&15] & 31)
			nx(c, regs)
		}
	case uSRL:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = regs[rs1&15] >> (regs[rs2&15] & 31)
			nx(c, regs)
		}
	case uSRA:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = uint32(int32(regs[rs1&15]) >> (regs[rs2&15] & 31))
			nx(c, regs)
		}
	case uSLT:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = b2u(int32(regs[rs1&15]) < int32(regs[rs2&15]))
			nx(c, regs)
		}
	case uSLTU:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = b2u(regs[rs1&15] < regs[rs2&15])
			nx(c, regs)
		}
	case uMUL:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = regs[rs1&15] * regs[rs2&15]
			nx(c, regs)
		}
	case uADDI:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = regs[rs1&15] + imm
			nx(c, regs)
		}
	case uANDI:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = regs[rs1&15] & imm
			nx(c, regs)
		}
	case uORI:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = regs[rs1&15] | imm
			nx(c, regs)
		}
	case uXORI:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = regs[rs1&15] ^ imm
			nx(c, regs)
		}
	case uSLLI:
		sh := imm & 31
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = regs[rs1&15] << sh
			nx(c, regs)
		}
	case uSRLI:
		sh := imm & 31
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = regs[rs1&15] >> sh
			nx(c, regs)
		}
	case uSRAI:
		sh := imm & 31
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = uint32(int32(regs[rs1&15]) >> sh)
			nx(c, regs)
		}
	case uSLTI:
		si := int32(imm)
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = b2u(int32(regs[rs1&15]) < si)
			nx(c, regs)
		}
	case uSLTIU:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = b2u(regs[rs1&15] < imm)
			nx(c, regs)
		}
	case uLI:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = imm
			nx(c, regs)
		}

	// Unchecked loads: the verifier proved alignment and region, so the
	// closure is a bare page-cache read (rd != 0 by construction — the
	// inert case became uNOP in provenOp).
	case uULB:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = uint32(int32(int8(c.cachedRead8(regs[rs1&15] + imm))))
			nx(c, regs)
		}
	case uULBU:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = uint32(c.cachedRead8(regs[rs1&15] + imm))
			nx(c, regs)
		}
	case uULH:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = uint32(int32(int16(c.cachedRead16(regs[rs1&15] + imm))))
			nx(c, regs)
		}
	case uULHU:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = uint32(c.cachedRead16(regs[rs1&15] + imm))
			nx(c, regs)
		}
	case uULW:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			regs[rd&15] = c.cachedRead32(regs[rs1&15] + imm)
			nx(c, regs)
		}

	// Unchecked stores: proven region travels in rs2; only packet-region
	// stores owe the dirty-high watermark.
	case uUSB:
		if Region(rs2) == RegionPacket {
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				addr := regs[rs1&15] + imm
				if addr+1 > c.packetWriteHigh {
					c.packetWriteHigh = addr + 1
				}
				c.cachedPage(addr)[addr&(pageSize-1)] = uint8(regs[rd&15])
				nx(c, regs)
			}
		}
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			addr := regs[rs1&15] + imm
			c.cachedPage(addr)[addr&(pageSize-1)] = uint8(regs[rd&15])
			nx(c, regs)
		}
	case uUSH:
		if Region(rs2) == RegionPacket {
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				addr := regs[rs1&15] + imm
				if addr+2 > c.packetWriteHigh {
					c.packetWriteHigh = addr + 2
				}
				o := addr & (pageSize - 1)
				pg := c.cachedPage(addr)
				binary.LittleEndian.PutUint16(pg[o:o+2:o+2], uint16(regs[rd&15]))
				nx(c, regs)
			}
		}
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			addr := regs[rs1&15] + imm
			o := addr & (pageSize - 1)
			pg := c.cachedPage(addr)
			binary.LittleEndian.PutUint16(pg[o:o+2:o+2], uint16(regs[rd&15]))
			nx(c, regs)
		}
	case uUSW:
		if Region(rs2) == RegionPacket {
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				addr := regs[rs1&15] + imm
				if addr+4 > c.packetWriteHigh {
					c.packetWriteHigh = addr + 4
				}
				o := addr & (pageSize - 1)
				pg := c.cachedPage(addr)
				binary.LittleEndian.PutUint32(pg[o:o+4:o+4], regs[rd&15])
				nx(c, regs)
			}
		}
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			addr := regs[rs1&15] + imm
			o := addr & (pageSize - 1)
			pg := c.cachedPage(addr)
			binary.LittleEndian.PutUint32(pg[o:o+4:o+4], regs[rd&15])
			nx(c, regs)
		}

	// Checked loads: unproven operands keep the interpreter's exact
	// fault checks; a failure is a typed side exit with the full fault
	// record (the runner materializes the *Fault so the closure body
	// stays allocation-free).
	case uLB:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			addr := regs[rs1&15] + imm
			if r := c.Layout.Classify(addr); r == RegionNone || r == RegionText {
				c.cframe = cframe{kind: CexitFault, pos: epos, fkind: FaultUnmapped, fpc: pc, faddr: addr}
				return
			}
			if rd != 0 {
				regs[rd&15] = uint32(int32(int8(c.cachedRead8(addr))))
			}
			nx(c, regs)
		}
	case uLBU:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			addr := regs[rs1&15] + imm
			if r := c.Layout.Classify(addr); r == RegionNone || r == RegionText {
				c.cframe = cframe{kind: CexitFault, pos: epos, fkind: FaultUnmapped, fpc: pc, faddr: addr}
				return
			}
			if rd != 0 {
				regs[rd&15] = uint32(c.cachedRead8(addr))
			}
			nx(c, regs)
		}
	case uLH:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			addr := regs[rs1&15] + imm
			if addr&1 != 0 {
				c.cframe = cframe{kind: CexitFault, pos: epos, fkind: FaultUnaligned, fpc: pc, faddr: addr}
				return
			}
			if r := c.Layout.Classify(addr); r == RegionNone || r == RegionText {
				c.cframe = cframe{kind: CexitFault, pos: epos, fkind: FaultUnmapped, fpc: pc, faddr: addr}
				return
			}
			if rd != 0 {
				regs[rd&15] = uint32(int32(int16(c.cachedRead16(addr))))
			}
			nx(c, regs)
		}
	case uLHU:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			addr := regs[rs1&15] + imm
			if addr&1 != 0 {
				c.cframe = cframe{kind: CexitFault, pos: epos, fkind: FaultUnaligned, fpc: pc, faddr: addr}
				return
			}
			if r := c.Layout.Classify(addr); r == RegionNone || r == RegionText {
				c.cframe = cframe{kind: CexitFault, pos: epos, fkind: FaultUnmapped, fpc: pc, faddr: addr}
				return
			}
			if rd != 0 {
				regs[rd&15] = uint32(c.cachedRead16(addr))
			}
			nx(c, regs)
		}
	case uLW:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			addr := regs[rs1&15] + imm
			if addr&3 != 0 {
				c.cframe = cframe{kind: CexitFault, pos: epos, fkind: FaultUnaligned, fpc: pc, faddr: addr}
				return
			}
			if r := c.Layout.Classify(addr); r == RegionNone || r == RegionText {
				c.cframe = cframe{kind: CexitFault, pos: epos, fkind: FaultUnmapped, fpc: pc, faddr: addr}
				return
			}
			if rd != 0 {
				regs[rd&15] = c.cachedRead32(addr)
			}
			nx(c, regs)
		}

	// Checked stores.
	case uSB:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			addr := regs[rs1&15] + imm
			region := c.Layout.Classify(addr)
			if region == RegionText || region == RegionNone {
				c.cframe = cframe{kind: CexitFault, pos: epos, fkind: storeFaultKind(region), fpc: pc, faddr: addr}
				return
			}
			if region == RegionPacket && addr+1 > c.packetWriteHigh {
				c.packetWriteHigh = addr + 1
			}
			c.cachedPage(addr)[addr&(pageSize-1)] = uint8(regs[rd&15])
			nx(c, regs)
		}
	case uSH:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			addr := regs[rs1&15] + imm
			if addr&1 != 0 {
				c.cframe = cframe{kind: CexitFault, pos: epos, fkind: FaultUnaligned, fpc: pc, faddr: addr}
				return
			}
			region := c.Layout.Classify(addr)
			if region == RegionText || region == RegionNone {
				c.cframe = cframe{kind: CexitFault, pos: epos, fkind: storeFaultKind(region), fpc: pc, faddr: addr}
				return
			}
			if region == RegionPacket && addr+2 > c.packetWriteHigh {
				c.packetWriteHigh = addr + 2
			}
			o := addr & (pageSize - 1)
			pg := c.cachedPage(addr)
			binary.LittleEndian.PutUint16(pg[o:o+2:o+2], uint16(regs[rd&15]))
			nx(c, regs)
		}
	case uSW:
		return func(c *CPU, regs *[isa.NumRegs]uint32) {
			addr := regs[rs1&15] + imm
			if addr&3 != 0 {
				c.cframe = cframe{kind: CexitFault, pos: epos, fkind: FaultUnaligned, fpc: pc, faddr: addr}
				return
			}
			region := c.Layout.Classify(addr)
			if region == RegionText || region == RegionNone {
				c.cframe = cframe{kind: CexitFault, pos: epos, fkind: storeFaultKind(region), fpc: pc, faddr: addr}
				return
			}
			if region == RegionPacket && addr+4 > c.packetWriteHigh {
				c.packetWriteHigh = addr + 4
			}
			o := addr & (pageSize - 1)
			pg := c.cachedPage(addr)
			binary.LittleEndian.PutUint32(pg[o:o+4:o+4], regs[rd&15])
			nx(c, regs)
		}
	}

	// Unreachable: the walk terminates every chain at control ops and
	// undecodable instructions before they could land here. Keep the
	// checked tiers' behavior for safety anyway.
	return func(c *CPU, regs *[isa.NumRegs]uint32) {
		c.cframe = cframe{kind: CexitFault, pos: epos, fkind: FaultBadInstr, fpc: pc}
	}
}

// makeFusedStep builds the single closure for a fused slot pair. Every
// component combination is specialized here at build time — a fused
// closure has no inner dispatch — and a combination without a case
// decomposes back into its two single-op closures, so fuseKind and this
// factory cannot drift apart observably.
func makeFusedStep(s *cslot, nx cstep) cstep {
	a, b := s.op, s.op2
	rd, rs1, rs2 := a.rd, a.rs1, a.rs2
	imm := a.imm
	rd2, rs3, rs4 := b.rd, b.rs1, b.rs2
	imm2 := b.imm
	epos := s.pos
	kind := s.kind
	tIdx, tPcv := s.tIdx, s.tPcv

	switch s.fk {
	case fkLdAlu:
		// a: proven word load, b: ALU (any operands — the pair executes
		// strictly in sequence, so overlap needs no special casing).
		switch b.code {
		case uADD:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = c.cachedRead32(regs[rs1&15] + imm)
				regs[rd2&15] = regs[rs3&15] + regs[rs4&15]
				nx(c, regs)
			}
		case uSUB:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = c.cachedRead32(regs[rs1&15] + imm)
				regs[rd2&15] = regs[rs3&15] - regs[rs4&15]
				nx(c, regs)
			}
		case uAND:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = c.cachedRead32(regs[rs1&15] + imm)
				regs[rd2&15] = regs[rs3&15] & regs[rs4&15]
				nx(c, regs)
			}
		case uOR:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = c.cachedRead32(regs[rs1&15] + imm)
				regs[rd2&15] = regs[rs3&15] | regs[rs4&15]
				nx(c, regs)
			}
		case uXOR:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = c.cachedRead32(regs[rs1&15] + imm)
				regs[rd2&15] = regs[rs3&15] ^ regs[rs4&15]
				nx(c, regs)
			}
		case uADDI:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = c.cachedRead32(regs[rs1&15] + imm)
				regs[rd2&15] = regs[rs3&15] + imm2
				nx(c, regs)
			}
		case uANDI:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = c.cachedRead32(regs[rs1&15] + imm)
				regs[rd2&15] = regs[rs3&15] & imm2
				nx(c, regs)
			}
		case uORI:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = c.cachedRead32(regs[rs1&15] + imm)
				regs[rd2&15] = regs[rs3&15] | imm2
				nx(c, regs)
			}
		case uXORI:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = c.cachedRead32(regs[rs1&15] + imm)
				regs[rd2&15] = regs[rs3&15] ^ imm2
				nx(c, regs)
			}
		}

	case fkAluSt:
		// a: ALU, b: proven word store (value regs[rd2], base regs[rs3],
		// proven region in rs4). The watermark branch is a captured bool,
		// perfectly predicted per closure.
		pkt := Region(rs4) == RegionPacket
		switch a.code {
		case uADD:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = regs[rs1&15] + regs[rs2&15]
				addr := regs[rs3&15] + imm2
				if pkt && addr+4 > c.packetWriteHigh {
					c.packetWriteHigh = addr + 4
				}
				o := addr & (pageSize - 1)
				pg := c.cachedPage(addr)
				binary.LittleEndian.PutUint32(pg[o:o+4:o+4], regs[rd2&15])
				nx(c, regs)
			}
		case uSUB:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = regs[rs1&15] - regs[rs2&15]
				addr := regs[rs3&15] + imm2
				if pkt && addr+4 > c.packetWriteHigh {
					c.packetWriteHigh = addr + 4
				}
				o := addr & (pageSize - 1)
				pg := c.cachedPage(addr)
				binary.LittleEndian.PutUint32(pg[o:o+4:o+4], regs[rd2&15])
				nx(c, regs)
			}
		case uAND:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = regs[rs1&15] & regs[rs2&15]
				addr := regs[rs3&15] + imm2
				if pkt && addr+4 > c.packetWriteHigh {
					c.packetWriteHigh = addr + 4
				}
				o := addr & (pageSize - 1)
				pg := c.cachedPage(addr)
				binary.LittleEndian.PutUint32(pg[o:o+4:o+4], regs[rd2&15])
				nx(c, regs)
			}
		case uOR:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = regs[rs1&15] | regs[rs2&15]
				addr := regs[rs3&15] + imm2
				if pkt && addr+4 > c.packetWriteHigh {
					c.packetWriteHigh = addr + 4
				}
				o := addr & (pageSize - 1)
				pg := c.cachedPage(addr)
				binary.LittleEndian.PutUint32(pg[o:o+4:o+4], regs[rd2&15])
				nx(c, regs)
			}
		case uXOR:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = regs[rs1&15] ^ regs[rs2&15]
				addr := regs[rs3&15] + imm2
				if pkt && addr+4 > c.packetWriteHigh {
					c.packetWriteHigh = addr + 4
				}
				o := addr & (pageSize - 1)
				pg := c.cachedPage(addr)
				binary.LittleEndian.PutUint32(pg[o:o+4:o+4], regs[rd2&15])
				nx(c, regs)
			}
		case uADDI:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = regs[rs1&15] + imm
				addr := regs[rs3&15] + imm2
				if pkt && addr+4 > c.packetWriteHigh {
					c.packetWriteHigh = addr + 4
				}
				o := addr & (pageSize - 1)
				pg := c.cachedPage(addr)
				binary.LittleEndian.PutUint32(pg[o:o+4:o+4], regs[rd2&15])
				nx(c, regs)
			}
		case uANDI:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = regs[rs1&15] & imm
				addr := regs[rs3&15] + imm2
				if pkt && addr+4 > c.packetWriteHigh {
					c.packetWriteHigh = addr + 4
				}
				o := addr & (pageSize - 1)
				pg := c.cachedPage(addr)
				binary.LittleEndian.PutUint32(pg[o:o+4:o+4], regs[rd2&15])
				nx(c, regs)
			}
		case uORI:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = regs[rs1&15] | imm
				addr := regs[rs3&15] + imm2
				if pkt && addr+4 > c.packetWriteHigh {
					c.packetWriteHigh = addr + 4
				}
				o := addr & (pageSize - 1)
				pg := c.cachedPage(addr)
				binary.LittleEndian.PutUint32(pg[o:o+4:o+4], regs[rd2&15])
				nx(c, regs)
			}
		case uXORI:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = regs[rs1&15] ^ imm
				addr := regs[rs3&15] + imm2
				if pkt && addr+4 > c.packetWriteHigh {
					c.packetWriteHigh = addr + 4
				}
				o := addr & (pageSize - 1)
				pg := c.cachedPage(addr)
				binary.LittleEndian.PutUint32(pg[o:o+4:o+4], regs[rd2&15])
				nx(c, regs)
			}
		}

	case fkAluAlu:
		switch [2]uint8{a.code, b.code} {
		case [2]uint8{uANDI, uADD}:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = regs[rs1&15] & imm
				regs[rd2&15] = regs[rs3&15] + regs[rs4&15]
				nx(c, regs)
			}
		case [2]uint8{uADD, uXOR}:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = regs[rs1&15] + regs[rs2&15]
				regs[rd2&15] = regs[rs3&15] ^ regs[rs4&15]
				nx(c, regs)
			}
		case [2]uint8{uXOR, uADD}:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = regs[rs1&15] ^ regs[rs2&15]
				regs[rd2&15] = regs[rs3&15] + regs[rs4&15]
				nx(c, regs)
			}
		case [2]uint8{uAND, uADD}:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = regs[rs1&15] & regs[rs2&15]
				regs[rd2&15] = regs[rs3&15] + regs[rs4&15]
				nx(c, regs)
			}
		case [2]uint8{uADD, uADDI}:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = regs[rs1&15] + regs[rs2&15]
				regs[rd2&15] = regs[rs3&15] + imm2
				nx(c, regs)
			}
		case [2]uint8{uADDI, uADDI}:
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = regs[rs1&15] + imm
				regs[rd2&15] = regs[rs3&15] + imm2
				nx(c, regs)
			}
		case [2]uint8{uSLLI, uOR}:
			sh := imm & 31
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = regs[rs1&15] << sh
				regs[rd2&15] = regs[rs3&15] | regs[rs4&15]
				nx(c, regs)
			}
		case [2]uint8{uSRLI, uANDI}:
			sh := imm & 31
			return func(c *CPU, regs *[isa.NumRegs]uint32) {
				regs[rd&15] = regs[rs1&15] >> sh
				regs[rd2&15] = regs[rs3&15] & imm2
				nx(c, regs)
			}
		}

	case fkAluGuard:
		// a: uADDI, b: conditional branch — the counted-loop latch shape.
		if s.role == roleGuardInv {
			switch b.code {
			case uBEQ:
				return func(c *CPU, regs *[isa.NumRegs]uint32) {
					regs[rd&15] = regs[rs1&15] + imm
					if regs[rs3&15] == regs[rs4&15] {
						nx(c, regs)
						return
					}
					c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
				}
			case uBNE:
				return func(c *CPU, regs *[isa.NumRegs]uint32) {
					regs[rd&15] = regs[rs1&15] + imm
					if regs[rs3&15] != regs[rs4&15] {
						nx(c, regs)
						return
					}
					c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
				}
			case uBLT:
				return func(c *CPU, regs *[isa.NumRegs]uint32) {
					regs[rd&15] = regs[rs1&15] + imm
					if int32(regs[rs3&15]) < int32(regs[rs4&15]) {
						nx(c, regs)
						return
					}
					c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
				}
			case uBGE:
				return func(c *CPU, regs *[isa.NumRegs]uint32) {
					regs[rd&15] = regs[rs1&15] + imm
					if int32(regs[rs3&15]) >= int32(regs[rs4&15]) {
						nx(c, regs)
						return
					}
					c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
				}
			case uBLTU:
				return func(c *CPU, regs *[isa.NumRegs]uint32) {
					regs[rd&15] = regs[rs1&15] + imm
					if regs[rs3&15] < regs[rs4&15] {
						nx(c, regs)
						return
					}
					c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
				}
			case uBGEU:
				return func(c *CPU, regs *[isa.NumRegs]uint32) {
					regs[rd&15] = regs[rs1&15] + imm
					if regs[rs3&15] >= regs[rs4&15] {
						nx(c, regs)
						return
					}
					c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
				}
			}
		} else {
			switch b.code {
			case uBEQ:
				return func(c *CPU, regs *[isa.NumRegs]uint32) {
					regs[rd&15] = regs[rs1&15] + imm
					if regs[rs3&15] == regs[rs4&15] {
						c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
						return
					}
					nx(c, regs)
				}
			case uBNE:
				return func(c *CPU, regs *[isa.NumRegs]uint32) {
					regs[rd&15] = regs[rs1&15] + imm
					if regs[rs3&15] != regs[rs4&15] {
						c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
						return
					}
					nx(c, regs)
				}
			case uBLT:
				return func(c *CPU, regs *[isa.NumRegs]uint32) {
					regs[rd&15] = regs[rs1&15] + imm
					if int32(regs[rs3&15]) < int32(regs[rs4&15]) {
						c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
						return
					}
					nx(c, regs)
				}
			case uBGE:
				return func(c *CPU, regs *[isa.NumRegs]uint32) {
					regs[rd&15] = regs[rs1&15] + imm
					if int32(regs[rs3&15]) >= int32(regs[rs4&15]) {
						c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
						return
					}
					nx(c, regs)
				}
			case uBLTU:
				return func(c *CPU, regs *[isa.NumRegs]uint32) {
					regs[rd&15] = regs[rs1&15] + imm
					if regs[rs3&15] < regs[rs4&15] {
						c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
						return
					}
					nx(c, regs)
				}
			case uBGEU:
				return func(c *CPU, regs *[isa.NumRegs]uint32) {
					regs[rd&15] = regs[rs1&15] + imm
					if regs[rs3&15] >= regs[rs4&15] {
						c.cframe.kind, c.cframe.pos, c.cframe.idx, c.cframe.pcv = kind, epos, tIdx, tPcv
						return
					}
					nx(c, regs)
				}
			}
		}
	}

	// No specialized case: decompose into the two single-op closures.
	// The first component is non-faulting by fuseKind's construction, so
	// its slot's pc/pos are never observed.
	sec := *s
	sec.op, sec.fk = s.op2, fkNone
	second := makeStep(&sec, nx)
	fst := cslot{op: s.op, role: roleOp, pc: s.pc - isa.WordSize, pos: epos - 1}
	return makeStep(&fst, second)
}

// storeFaultKind is storeFault without the allocation: the fault kind
// for a store into a text or unmapped region.
func storeFaultKind(region Region) FaultKind {
	if region == RegionText {
		return FaultTextWrite
	}
	return FaultUnmapped
}

// RunCompiled executes the program with the compiled tier enabled: hot
// chains run as specialized closures, everything else runs on the
// reference interpreter one block at a time, and online promotion moves
// blocks from the second set into the first. The observable contract is
// RunProgram's, bit for bit. A traced run falls back to the threaded
// traced loop: the compiled tier cannot replay the interpreter's
// per-instruction event order, so it never runs under a Tracer.
func (c *CPU) RunCompiled(cp *CompiledProgram, maxSteps uint64) (steps uint64, reason StopReason, err error) {
	if c.Tracer != nil {
		return c.runTraced(cp.p, maxSteps)
	}
	return c.runCompiled(cp, maxSteps)
}

// runCompiled is the untraced mixed-tier dispatch loop.
//
//pblint:hotpath runCompiled
func (c *CPU) runCompiled(cp *CompiledProgram, maxSteps uint64) (steps uint64, reason StopReason, rerr error) {
	p := cp.p
	textBase := p.textBase
	n := uint32(len(p.ops))
	regs := &c.Regs
	// Instructions retired by compiled chains, owed to the lifetime
	// counter (the cold tier's interpreter charges c.steps itself), and
	// loop-latch exits, owed to the telemetry counter. Both accumulate
	// in locals and flush once per run.
	var csteps, loopExits uint64
	defer func() { //pblint:allow — once per run, not per block
		c.steps += csteps
		cp.stats.Exits[CexitLoop&7] += loopExits
	}()

	pcv := c.PC // pending control-transfer target, when idx < 0
	idx := -1   // entry instruction index, when >= 0 (already validated in-text)
	for {
		if idx < 0 {
			// Slow entry: arbitrary PC. The check order matches the
			// interpreter: return address, budget, fetch.
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
		}

		// Hot tier: run the chain rooted here, if one is compiled and
		// the remaining budget covers its longest path (entering with
		// less would need a budget check between closures; the cold
		// tier below raises any step-limit fault at the exact
		// instruction instead).
		for {
			ch := cp.chains[idx]
			if ch == nil {
				if cp.online {
					b := p.blockOf[idx]
					if p.leader[b] == int32(idx) && !cp.tried[b] {
						cp.counts[b]++
						if cp.counts[b] >= cp.promote {
							cp.tried[b] = true
							if cp.compileAt(int32(idx)) {
								continue // enter the fresh chain this entry
							}
						}
					}
				}
				break
			}
			if rem := maxSteps - steps; uint64(ch.n) > rem {
				cp.stats.Exits[CexitBudget&7]++
				break
			}
			// Latch fast path: a taken loop latch re-enters the same
			// chain without touching the dispatch state above.
			f := &c.cframe
			for {
				ch.entry(c, regs)
				if f.kind != CexitLoop {
					break
				}
				steps += uint64(f.pos)
				csteps += uint64(f.pos)
				loopExits++
				if uint64(ch.n) > maxSteps-steps {
					cp.stats.Exits[CexitBudget&7]++
					break
				}
			}
			if f.kind == CexitLoop {
				break // ran out of budget mid-loop: cold tier from here
			}
			steps += uint64(f.pos)
			csteps += uint64(f.pos)
			cp.stats.Exits[f.kind&7]++
			switch f.kind {
			case CexitHalt:
				c.PC = f.pcv
				return steps, StopHalt, nil
			case CexitFault:
				c.PC = f.fpc
				return steps, 0, &Fault{Kind: f.fkind, PC: f.fpc, Addr: f.faddr}
			default: // CexitEnd, CexitBranch, CexitJump, CexitJalr
				if f.idx >= 0 {
					idx = int(f.idx)
					continue // maybe straight into the next chain
				}
				idx, pcv = -1, f.pcv
			}
			break
		}
		if idx < 0 {
			continue // dynamic target: slow re-validation above
		}

		// Cold tier: the reference interpreter runs the rest of this
		// basic block. Its state is fully materialized at every
		// instruction, so mixing tiers cannot be observed; want never
		// overruns the block because a branch is always a terminator.
		c.PC = textBase + uint32(idx)*isa.WordSize
		want := uint64(int(p.endAt[idx]) - idx)
		if rem := maxSteps - steps; want > rem {
			want = rem
		}
		sub, stop, err := c.Run(want)
		steps += sub
		if err != nil {
			if fe, ok := err.(*Fault); ok && fe.Kind == FaultStepLimit && steps < maxSteps {
				// Only the per-block allowance expired, not the real
				// budget: not a fault. Keep dispatching at the
				// interpreter's PC (the next unexecuted instruction).
				idx, pcv = -1, c.PC
				continue
			}
			return steps, 0, err
		}
		// err == nil: the interpreter stopped for real (halt or return).
		return steps, stop, nil
	}
}
