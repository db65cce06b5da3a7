package staticcheck

import (
	"fmt"
	"io"
	"math/bits"
	"sort"

	"repro/internal/asm"
	"repro/internal/diag"
	"repro/internal/isa"
	"repro/internal/vm"
)

// The facts pipeline extends the verifier from diagnostics into proofs:
// a context-sensitive abstract interpretation over unsigned intervals
// and known bits that exports per-instruction Facts — provably
// in-bounds memory operands, always/never-taken branches, provably
// redundant masks, unreachable instructions. The facts are diagnostics
// only: pbvet -facts dumps them, and the const-branch, redundant-mask
// and facts-dead-code warnings derive from them. No engine reads them;
// every program runs the fully-checked translation.
//
// Soundness contract. Every exported fact must hold on every execution
// that enters the program at one of the declared entry points with the
// framework's dispatch ABI: all registers zeroed, then a0 = packet
// base, a1 = packet length (at most the packet buffer size), sp = top
// of stack, ra = the magic return address (core.Bench sets exactly this
// state before every packet). The analysis therefore refuses to claim
// anything — Facts.Tame is false and every fact is empty — whenever it
// cannot follow the program completely: an indirect jump through a
// non-constant register, a call deeper than the context cap, an entry
// or jump into the middle of a basic block, or a state-space blowup.
// Unlike the diagnostic analyses, which over-approximate in whichever
// direction keeps their warnings useful, facts only ever
// under-approximate: "no proof" is always safe, because a missing fact
// can only silence a facts warning, never make one false.
//
// Calls are not summarized but virtually inlined: a linking JAL pushes
// the call site onto an abstract call string and the analysis continues
// into the callee, so each call site's arguments stay precise (the
// bundled apps pass distinct packet offsets to the same helper). A
// JALR must resolve to a single constant target: the magic return
// address (program exit), the return address of the innermost frame
// (return — the call string pops), or an in-text block leader (intra-
// procedural indirect jump). Saved registers restored through the
// stack stay constant across calls because word-sized stack and data
// slots at constant addresses are tracked as part of the abstract
// state, and a store can only invalidate slots it may alias (a store
// proven into the packet region never kills a stack slot).
//
// Termination: intervals widen to a small ladder of landmark bounds
// after a few fixpoint visits of the same block, known-bits and slot
// maps only ever shrink, and the context depth and state count are
// capped (overflow flips the program to untame rather than looping).

// fval is the abstract value of one register: an unsigned interval
// [lo, hi] (inclusive) plus known bits (bit i of m set means bit i of
// the value is v's bit i on every execution). The invariant v&^m == 0
// holds after norm.
type fval struct {
	lo, hi uint32
	m, v   uint32
}

func ftop() fval           { return fval{0, ^uint32(0), 0, 0} }
func fconst(c uint32) fval { return fval{c, c, ^uint32(0), c} }
func fbound(lo, hi uint32) fval {
	return norm(fval{lo, hi, 0, 0})
}

func (f fval) isConst() bool { return f.lo == f.hi }

// norm reconciles the interval and known-bits views: known bits bound
// the interval (all-unknown-bits-zero below, all-ones above), and the
// common binary prefix of lo and hi is known to every value in between.
func norm(f fval) fval {
	if f.v > f.lo {
		f.lo = f.v
	}
	if max := f.v | ^f.m; max < f.hi {
		f.hi = max
	}
	x := f.lo ^ f.hi
	pm := ^uint32(0) << (32 - uint32(bits.LeadingZeros32(x)))
	if x == 0 {
		pm = ^uint32(0)
	}
	f.m |= pm
	f.v = (f.v | (f.lo & pm)) & f.m
	return f
}

// join is the lattice union of two path states.
func join(a, b fval) fval {
	m := a.m & b.m &^ (a.v ^ b.v)
	return norm(fval{min(a.lo, b.lo), max(a.hi, b.hi), m, a.v & m})
}

// intersect refines a by b (both must hold); ok is false when the
// combination is infeasible.
func intersect(a, b fval) (fval, bool) {
	if (a.m&b.m)&(a.v^b.v) != 0 {
		return fval{}, false
	}
	lo, hi := max(a.lo, b.lo), min(a.hi, b.hi)
	if lo > hi {
		return fval{}, false
	}
	m := a.m | b.m
	f := norm(fval{lo, hi, m, (a.v | b.v) & m})
	if f.lo > f.hi {
		return fval{}, false
	}
	return f, true
}

// Interval landmarks for widening: unstable upper bounds are rounded up
// to the next landmark so loop counters settle in a few iterations
// instead of climbing one step per fixpoint visit.
var widenLandmarks = [...]uint32{0x3F, 0xFF, 0xFFFF, 0xFFFFF, 0x00FFFFFF, 0x7FFFFFFF, ^uint32(0)}

// widen accelerates old ∪ new at a loop head.
func widen(old, nw fval) fval {
	j := join(old, nw)
	if j.lo < old.lo {
		j.lo = 0
	}
	if j.hi > old.hi {
		for _, l := range widenLandmarks {
			if j.hi <= l {
				j.hi = l
				break
			}
		}
	}
	return norm(j)
}

// ---- transfer functions -------------------------------------------------

func fadd(a, b fval) fval {
	f := ftop()
	lo64 := uint64(a.lo) + uint64(b.lo)
	hi64 := uint64(a.hi) + uint64(b.hi)
	const wrap = uint64(1) << 32
	switch {
	case hi64 < wrap:
		f.lo, f.hi = uint32(lo64), uint32(hi64)
	case lo64 >= wrap:
		// Both ends wrap exactly once (hi64 < 2^33): the sum is still an
		// interval modulo 2^32. This is how a constant negative offset
		// (addi sp, sp, -4) stays precise.
		f.lo, f.hi = uint32(lo64-wrap), uint32(hi64-wrap)
	}
	// The low k bits of a+b depend only on the low k bits of the
	// operands, so the common run of trailing known bits is exact.
	k := min(bits.TrailingZeros32(^a.m), bits.TrailingZeros32(^b.m))
	if k > 0 {
		mask := ^uint32(0)
		if k < 32 {
			mask = 1<<uint(k) - 1
		}
		f.m |= mask
		f.v = (a.v + b.v) & mask
	}
	return norm(f)
}

func fsub(a, b fval) fval {
	f := ftop()
	if a.lo >= b.hi {
		f.lo, f.hi = a.lo-b.hi, a.hi-b.lo
	}
	k := min(bits.TrailingZeros32(^a.m), bits.TrailingZeros32(^b.m))
	if k > 0 {
		mask := ^uint32(0)
		if k < 32 {
			mask = 1<<uint(k) - 1
		}
		f.m |= mask
		f.v = (a.v - b.v) & mask
	}
	return norm(f)
}

func fand(a, b fval) fval {
	ones := a.m & a.v & b.m & b.v
	zeros := (a.m &^ a.v) | (b.m &^ b.v)
	m := ones | zeros
	return norm(fval{ones, min(a.hi, b.hi), m, ones})
}

func forr(a, b fval) fval {
	ones := (a.m & a.v) | (b.m & b.v)
	zeros := (a.m &^ a.v) & (b.m &^ b.v)
	m := ones | zeros
	return norm(fval{max(max(a.lo, b.lo), ones), ones | ^m, m, ones})
}

func fxor(a, b fval) fval {
	m := a.m & b.m
	v := (a.v ^ b.v) & m
	return norm(fval{v, v | ^m, m, v})
}

func fshl(a fval, s uint32) fval {
	s &= 31
	f := ftop()
	if a.hi <= ^uint32(0)>>s {
		f.lo, f.hi = a.lo<<s, a.hi<<s
	}
	f.m = a.m << s
	if s > 0 {
		f.m |= ^(^uint32(0) << s) // low s bits known zero
	}
	f.v = a.v << s
	return norm(f)
}

func fshr(a fval, s uint32) fval {
	s &= 31
	m := a.m >> s
	if s > 0 {
		m |= ^uint32(0) << (32 - s) // high s bits known zero
	}
	return norm(fval{a.lo >> s, a.hi >> s, m, a.v >> s})
}

// fflag builds the abstract value of a comparison result.
func fflag(always, never bool) fval {
	switch {
	case always:
		return fconst(1)
	case never:
		return fconst(0)
	default:
		return fval{0, 1, ^uint32(1), 0}
	}
}

// toBiased maps a value into the domain where signed comparison becomes
// unsigned (x ^ 0x8000_0000 order-isomorphism). An interval straddling
// the sign boundary maps to top.
func toBiased(a fval) fval {
	const bias = uint32(0x80000000)
	if (a.lo >= bias) != (a.hi >= bias) {
		nv := a.v
		if a.m&bias != 0 {
			nv ^= bias
		}
		return norm(fval{0, ^uint32(0), a.m &^ bias, nv &^ bias})
	}
	nv := a.v
	if a.m&bias != 0 {
		nv ^= bias
	}
	return fval{a.lo ^ bias, a.hi ^ bias, a.m, nv}
}

// cmpFacts decides whether the branch condition is provably constant.
func cmpFacts(op isa.Opcode, a, b fval) (always, never bool) {
	eqNever := a.hi < b.lo || b.hi < a.lo || (a.m&b.m)&(a.v^b.v) != 0
	eqAlways := a.isConst() && b.isConst() && a.lo == b.lo
	switch op {
	case isa.BEQ:
		return eqAlways, eqNever
	case isa.BNE:
		return eqNever, eqAlways
	case isa.BLTU:
		return a.hi < b.lo, a.lo >= b.hi
	case isa.BGEU:
		return a.lo >= b.hi, a.hi < b.lo
	case isa.BLT:
		ba, bb := toBiased(a), toBiased(b)
		return ba.hi < bb.lo, ba.lo >= bb.hi
	case isa.BGE:
		ba, bb := toBiased(a), toBiased(b)
		return ba.lo >= bb.hi, ba.hi < bb.lo
	}
	return false, false
}

// refineLTU refines (a, b) under the constraint a < b (unsigned);
// ok is false when the constraint is infeasible.
func refineLTU(a, b fval) (fval, fval, bool) {
	if b.hi == 0 || a.lo == ^uint32(0) {
		return a, b, false
	}
	ra := norm(fval{a.lo, min(a.hi, b.hi-1), a.m, a.v})
	rb := norm(fval{max(b.lo, a.lo+1), b.hi, b.m, b.v})
	if ra.lo > ra.hi || rb.lo > rb.hi {
		return a, b, false
	}
	return ra, rb, true
}

// refineGEU refines (a, b) under a >= b (unsigned).
func refineGEU(a, b fval) (fval, fval, bool) {
	ra := norm(fval{max(a.lo, b.lo), a.hi, a.m, a.v})
	rb := norm(fval{b.lo, min(b.hi, a.hi), b.m, b.v})
	if ra.lo > ra.hi || rb.lo > rb.hi {
		return a, b, false
	}
	return ra, rb, true
}

// unbias maps a refined biased-domain value back, falling back to the
// unrefined original when the result is not representable.
func unbias(refined, orig fval) fval {
	const bias = uint32(0x80000000)
	if (refined.lo >= bias) != (refined.hi >= bias) {
		return orig
	}
	nv := refined.v
	if refined.m&bias != 0 {
		nv ^= bias
	}
	f := fval{refined.lo ^ bias, refined.hi ^ bias, refined.m, nv}
	if g, ok := intersect(f, orig); ok {
		return g
	}
	return orig
}

// excludeConst trims a constant endpoint from an interval (for the
// not-equal edge of BEQ/BNE).
func excludeConst(a fval, c uint32) (fval, bool) {
	if a.isConst() {
		if a.lo == c {
			return a, false
		}
		return a, true
	}
	if a.lo == c {
		return norm(fval{c + 1, a.hi, a.m, a.v}), true
	}
	if a.hi == c {
		return norm(fval{a.lo, c - 1, a.m, a.v}), true
	}
	return a, true
}

// refineBranch computes the refined operand values on one edge of a
// conditional branch. taken selects which edge; ok=false means the edge
// is infeasible.
func refineBranch(op isa.Opcode, a, b fval, taken bool) (fval, fval, bool) {
	// Normalize to "a < b" / "a >= b" style constraints.
	switch op {
	case isa.BEQ, isa.BNE:
		eq := (op == isa.BEQ) == taken
		if eq {
			c, ok := intersect(a, b)
			if !ok {
				return a, b, false
			}
			return c, c, true
		}
		// Not equal: only a constant endpoint can be trimmed.
		if b.isConst() {
			ra, ok := excludeConst(a, b.lo)
			return ra, b, ok
		}
		if a.isConst() {
			rb, ok := excludeConst(b, a.lo)
			return a, rb, ok
		}
		return a, b, true
	case isa.BLTU:
		if taken {
			return refineLTU(a, b)
		}
		return refineGEU(a, b)
	case isa.BGEU:
		if taken {
			return refineGEU(a, b)
		}
		return refineLTU(a, b)
	case isa.BLT, isa.BGE:
		lt := (op == isa.BLT) == taken
		ba, bb := toBiased(a), toBiased(b)
		var ra, rb fval
		var ok bool
		if lt {
			ra, rb, ok = refineLTU(ba, bb)
		} else {
			ra, rb, ok = refineGEU(ba, bb)
		}
		if !ok {
			return a, b, false
		}
		return unbias(ra, a), unbias(rb, b), true
	}
	return a, b, true
}

// ---- abstract machine state ---------------------------------------------

// slotVal is the tracked value of one word-aligned memory word at a
// constant address (saved registers on the stack, app globals).
type slotVal struct {
	val    fval
	region vm.Region
}

const maxSlots = 64

type fstate struct {
	regs  [isa.NumRegs]fval
	slots map[uint32]slotVal
}

func (s *fstate) clone() *fstate {
	c := &fstate{regs: s.regs}
	if len(s.slots) > 0 {
		c.slots = make(map[uint32]slotVal, len(s.slots))
		for k, v := range s.slots {
			c.slots[k] = v
		}
	}
	return c
}

// merge joins other into s, returning whether s changed. wide selects
// widening for the interval parts.
func (s *fstate) merge(other *fstate, wide bool) bool {
	changed := false
	for r := range s.regs {
		var j fval
		if wide {
			j = widen(s.regs[r], other.regs[r])
		} else {
			j = join(s.regs[r], other.regs[r])
		}
		if j != s.regs[r] {
			s.regs[r] = j
			changed = true
		}
	}
	for k, sv := range s.slots {
		ov, ok := other.slots[k]
		if !ok || ov.region != sv.region {
			delete(s.slots, k)
			changed = true
			continue
		}
		j := join(sv.val, ov.val)
		if j != sv.val {
			s.slots[k] = slotVal{val: j, region: sv.region}
			changed = true
		}
	}
	return changed
}

// ---- the analysis -------------------------------------------------------

// Facts is the exported result of the abstract interpretation: what the
// verifier can prove about every instruction of a program under the
// framework's entry contract. A zero/empty Facts (or Tame == false)
// claims nothing.
type Facts struct {
	// Tame reports that the analysis followed the program completely.
	// When false, every per-instruction array is empty and no fact may
	// be used.
	Tame bool
	// Mem[i] is the proven region of instruction i's memory operand
	// (loads and stores), vm.RegionNone when unproven. A proven operand
	// is also proven naturally aligned.
	Mem []vm.Region
	// MemLo/MemHi bound the operand address interval for instructions
	// with Mem[i] != RegionNone.
	MemLo, MemHi []uint32
	// Branch[i] is the proven direction of a conditional branch. It
	// feeds the const-branch diagnostic and pbvet -facts.
	Branch []BranchFact
	// Redundant[i] marks AND/ANDI instructions whose mask provably
	// keeps every possibly-set bit of the source.
	Redundant []bool
	// Unreachable[i] marks instructions no abstract execution reaches.
	Unreachable []bool
}

// BranchFact is the statically proven direction of a conditional branch.
type BranchFact uint8

// Branch direction facts.
const (
	BranchUnknown BranchFact = iota // direction depends on the input
	BranchAlways                    // taken on every run
	BranchNever                     // never taken on any run
)

// Analysis caps: exceeding any flips the program to untame.
const (
	maxCallDepth  = 16
	maxFactStates = 8192
	widenAfter    = 6
)

type stateKey struct {
	ctx   string // call string: 4 bytes (big-endian call-site index) per frame
	block int
}

type factsRun struct {
	cfg       *CFG
	layout    vm.Layout
	hasLayout bool
	text      []isa.Instruction

	states map[stateKey]*fstate
	visits map[stateKey]int
	tame   bool

	// accumulators, valid during the replay pass
	f      *Facts
	seen   []bool // instruction visited
	memSet []bool
	brSet  []bool
	redSet []bool
}

// computeFacts runs the abstract interpretation and returns the proven
// facts. It never emits diagnostics; surfaceFactsDiags derives the
// warn-severity findings from the result.
func computeFacts(cfg *CFG, opts Options) *Facts {
	n := len(cfg.Prog.Text)
	f := &Facts{}
	a := &factsRun{
		cfg:       cfg,
		layout:    opts.Layout,
		hasLayout: opts.Layout != (vm.Layout{}),
		text:      cfg.Prog.Text,
		states:    make(map[stateKey]*fstate),
		visits:    make(map[stateKey]int),
		tame:      true,
		f:         f,
	}
	f.Mem = make([]vm.Region, n)
	f.MemLo = make([]uint32, n)
	f.MemHi = make([]uint32, n)
	f.Branch = make([]BranchFact, n)
	f.Redundant = make([]bool, n)
	f.Unreachable = make([]bool, n)
	a.seen = make([]bool, n)
	a.memSet = make([]bool, n)
	a.brSet = make([]bool, n)
	a.redSet = make([]bool, n)

	// Entries must land exactly on block leaders: the per-block state
	// keying cannot represent execution entering mid-block.
	entryAddrs, entryDiags := resolveEntries(cfg.Prog, opts)
	if len(entryDiags) > 0 {
		a.tame = false
	}
	for _, addr := range entryAddrs {
		b := cfg.Blocks.BlockOf(addr)
		if b < 0 || cfg.pcAt(cfg.Blocks.LeaderIndex(b)) != addr {
			a.tame = false
		}
	}

	if a.tame {
		work := make([]stateKey, 0, 64)
		for _, e := range cfg.Entries {
			k := stateKey{ctx: "", block: e}
			st := a.entryState()
			if prev, ok := a.states[k]; ok {
				prev.merge(st, false)
			} else {
				a.states[k] = st
			}
			work = append(work, k)
		}
		for len(work) > 0 && a.tame {
			k := work[len(work)-1]
			work = work[:len(work)-1]
			st := a.states[k].clone()
			for _, succ := range a.stepBlock(k, st, false) {
				prev, ok := a.states[succ.key]
				if !ok {
					if len(a.states) >= maxFactStates {
						a.tame = false
						break
					}
					a.states[succ.key] = succ.st
					work = append(work, succ.key)
					continue
				}
				a.visits[succ.key]++
				if prev.merge(succ.st, a.visits[succ.key] > widenAfter) {
					work = append(work, succ.key)
				}
			}
		}
	}

	if !a.tame {
		return &Facts{}
	}

	// Replay over the stable states in deterministic order, recording
	// the per-instruction facts as the join over every visiting context.
	keys := make([]stateKey, 0, len(a.states))
	for k := range a.states {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].block != keys[j].block {
			return keys[i].block < keys[j].block
		}
		return keys[i].ctx < keys[j].ctx
	})
	for _, k := range keys {
		a.stepBlock(k, a.states[k].clone(), true)
		if !a.tame {
			return &Facts{}
		}
	}
	for i := 0; i < n; i++ {
		f.Unreachable[i] = !a.seen[i]
	}
	f.Tame = true
	return f
}

// entryState is the framework's dispatch ABI: every register zeroed,
// then the four argument registers set.
func (a *factsRun) entryState() *fstate {
	st := &fstate{}
	for r := range st.regs {
		st.regs[r] = fconst(0)
	}
	if a.hasLayout {
		st.regs[isa.A0] = fconst(a.layout.PacketBase)
		st.regs[isa.A1] = fbound(0, a.layout.PacketEnd-a.layout.PacketBase)
		st.regs[isa.SP] = fconst(a.layout.StackEnd)
	} else {
		st.regs[isa.A0] = ftop()
		st.regs[isa.A1] = ftop()
		st.regs[isa.SP] = ftop()
	}
	st.regs[isa.RA] = fconst(vm.ReturnAddress)
	return st
}

type factSucc struct {
	key stateKey
	st  *fstate
}

func (a *factsRun) getReg(st *fstate, r isa.Reg) fval {
	if r == isa.Zero {
		return fconst(0)
	}
	return st.regs[r]
}

func (a *factsRun) setReg(st *fstate, r isa.Reg, v fval) {
	if r != isa.Zero {
		st.regs[r] = v
	}
}

// stepBlock interprets one basic block under one context, returning the
// successor states. With record set it folds what it can prove into the
// accumulated per-instruction facts; the transfer function is identical
// in both modes.
func (a *factsRun) stepBlock(k stateKey, st *fstate, record bool) []factSucc {
	lead := a.cfg.Blocks.LeaderIndex(k.block)
	last := a.cfg.Blocks.TerminatorIndex(k.block)
	for i := lead; i <= last; i++ {
		if record {
			a.seen[i] = true
		}
		in := a.text[i]
		if i == last && in.Op.IsControl() {
			return a.stepTerminator(k, i, in, st, record)
		}
		a.stepInstr(i, in, st, record)
	}
	// Block split by a following leader: fall through, same context.
	if next := last + 1; next < len(a.text) {
		return []factSucc{{key: stateKey{ctx: k.ctx, block: a.cfg.Blocks.BlockOfIndex(next)}, st: st}}
	}
	return nil // runs off the end: path exits (fault reported elsewhere)
}

// stepInstr applies one non-control instruction's transfer function.
func (a *factsRun) stepInstr(i int, in isa.Instruction, st *fstate, record bool) {
	imm := uint32(in.Imm)
	rs1 := a.getReg(st, in.Rs1)
	rs2 := a.getReg(st, in.Rs2)

	switch {
	case in.Op.IsLoad():
		addr := fadd(rs1, fconst(imm))
		size := uint32(in.Op.MemSize())
		region, proven := a.proveAccess(addr, size)
		if record {
			a.recordMem(i, addr, size, region, proven)
		}
		var val fval
		switch in.Op {
		case isa.LB, isa.LH, isa.LW:
			val = ftop()
		case isa.LBU:
			val = fbound(0, 0xFF)
		case isa.LHU:
			val = fbound(0, 0xFFFF)
		}
		if in.Op == isa.LW && addr.isConst() && addr.lo&3 == 0 {
			if sv, ok := st.slots[addr.lo]; ok {
				val = sv.val
			}
		}
		a.setReg(st, in.Rd, val)

	case in.Op.IsStore():
		addr := fadd(rs1, fconst(imm))
		size := uint32(in.Op.MemSize())
		region, proven := a.proveAccess(addr, size)
		if record {
			a.recordMem(i, addr, size, region, proven)
		}
		a.storeToSlots(st, addr, size, region, proven, a.getReg(st, in.Rd))

	default:
		var res fval
		ok := true
		switch in.Op {
		case isa.ADD:
			res = fadd(rs1, rs2)
		case isa.SUB:
			res = fsub(rs1, rs2)
		case isa.AND:
			res = fand(rs1, rs2)
		case isa.OR:
			res = forr(rs1, rs2)
		case isa.XOR:
			res = fxor(rs1, rs2)
		case isa.SLL:
			if rs2.isConst() {
				res = fshl(rs1, rs2.lo)
			} else {
				res = ftop()
			}
		case isa.SRL:
			if rs2.isConst() {
				res = fshr(rs1, rs2.lo)
			} else {
				res = ftop()
			}
		case isa.SRA:
			if rs2.isConst() && rs1.isConst() {
				res = fconst(uint32(int32(rs1.lo) >> (rs2.lo & 31)))
			} else {
				res = ftop()
			}
		case isa.SLT:
			always, never := cmpFacts(isa.BLT, rs1, rs2)
			res = fflag(always, never)
		case isa.SLTU:
			always, never := cmpFacts(isa.BLTU, rs1, rs2)
			res = fflag(always, never)
		case isa.MUL:
			if rs1.isConst() && rs2.isConst() {
				res = fconst(rs1.lo * rs2.lo)
			} else {
				res = ftop()
			}
		case isa.ADDI:
			res = fadd(rs1, fconst(imm))
		case isa.ANDI:
			res = fand(rs1, fconst(imm))
			if record {
				a.recordMask(i, rs1, fconst(imm))
			}
		case isa.ORI:
			res = forr(rs1, fconst(imm))
		case isa.XORI:
			res = fxor(rs1, fconst(imm))
		case isa.SLLI:
			res = fshl(rs1, imm)
		case isa.SRLI:
			res = fshr(rs1, imm)
		case isa.SRAI:
			if rs1.isConst() {
				res = fconst(uint32(int32(rs1.lo) >> (imm & 31)))
			} else {
				res = ftop()
			}
		case isa.SLTI:
			always, never := cmpFacts(isa.BLT, rs1, fconst(imm))
			res = fflag(always, never)
		case isa.SLTIU:
			always, never := cmpFacts(isa.BLTU, rs1, fconst(imm))
			res = fflag(always, never)
		case isa.LUI:
			res = fconst(imm << 12)
		default:
			ok = false
		}
		if in.Op == isa.AND && record {
			a.recordMask(i, rs1, rs2)
		}
		if !ok {
			res = ftop()
		}
		if rd, has := in.RegDef(); has {
			a.setReg(st, rd, res)
		}
	}
}

// stepTerminator handles the block's control-transfer instruction and
// builds successor states.
func (a *factsRun) stepTerminator(k stateKey, i int, in isa.Instruction, st *fstate, record bool) []factSucc {
	switch {
	case in.Op.IsBranch():
		rs1 := a.getReg(st, in.Rs1)
		rs2 := a.getReg(st, in.Rs2)
		always, never := cmpFacts(in.Op, rs1, rs2)
		if record {
			a.recordBranch(i, always, never)
		}
		var succs []factSucc
		target := i + 1 + int(in.Imm)
		sameReg := in.Rs1 == in.Rs2
		if !never && target >= 0 && target < len(a.text) {
			ts := st.clone()
			feasible := true
			if !sameReg {
				r1, r2, ok := refineBranch(in.Op, rs1, rs2, true)
				if !ok {
					feasible = false
				} else {
					a.setReg(ts, in.Rs1, r1)
					a.setReg(ts, in.Rs2, r2)
				}
			}
			if feasible {
				succs = append(succs, factSucc{
					key: stateKey{ctx: k.ctx, block: a.cfg.Blocks.BlockOfIndex(target)}, st: ts})
			}
		}
		if !always && i+1 < len(a.text) {
			fs := st
			feasible := true
			if !sameReg {
				r1, r2, ok := refineBranch(in.Op, rs1, rs2, false)
				if !ok {
					feasible = false
				} else {
					fs = st.clone()
					a.setReg(fs, in.Rs1, r1)
					a.setReg(fs, in.Rs2, r2)
				}
			}
			if feasible {
				succs = append(succs, factSucc{
					key: stateKey{ctx: k.ctx, block: a.cfg.Blocks.BlockOfIndex(i + 1)}, st: fs})
			}
		}
		return succs

	case in.Op == isa.JAL:
		target := i + 1 + int(in.Imm)
		if in.Rd != isa.Zero {
			a.setReg(st, in.Rd, fconst(a.cfg.pcAt(i)+isa.WordSize))
		}
		if target < 0 || target >= len(a.text) {
			return nil // jump leaves the text segment: path exits
		}
		ctx := k.ctx
		if in.Rd != isa.Zero {
			if len(ctx)/4 >= maxCallDepth {
				a.tame = false
				return nil
			}
			ctx = pushCtx(ctx, i)
		}
		tb := a.cfg.Blocks.BlockOfIndex(target)
		if a.cfg.Blocks.LeaderIndex(tb) != target {
			a.tame = false // jump into the middle of a block
			return nil
		}
		return []factSucc{{key: stateKey{ctx: ctx, block: tb}, st: st}}

	case in.Op == isa.JALR:
		base := a.getReg(st, in.Rs1)
		if in.Rd != isa.Zero {
			a.setReg(st, in.Rd, fconst(a.cfg.pcAt(i)+isa.WordSize))
		}
		if !base.isConst() {
			a.tame = false // untracked indirect jump: give up on all facts
			return nil
		}
		target := (base.lo + uint32(in.Imm)) &^ 3
		if target == vm.ReturnAddress {
			return nil // program exit
		}
		off := target - a.cfg.Prog.TextBase
		if off%isa.WordSize != 0 || off/isa.WordSize >= uint32(len(a.text)) {
			return nil // faults at runtime: path exits
		}
		ti := int(off / isa.WordSize)
		tb := a.cfg.Blocks.BlockOfIndex(ti)
		if a.cfg.Blocks.LeaderIndex(tb) != ti {
			a.tame = false
			return nil
		}
		ctx := k.ctx
		if site, ok := topCtx(ctx); ok && ti == site+1 {
			ctx = ctx[:len(ctx)-4] // return to the innermost caller
		}
		return []factSucc{{key: stateKey{ctx: ctx, block: tb}, st: st}}

	case in.Op == isa.HALT:
		return nil
	}
	// Non-PC-changing terminator cannot happen (IsControl gated).
	return nil
}

func pushCtx(ctx string, site int) string {
	return ctx + string([]byte{byte(site >> 24), byte(site >> 16), byte(site >> 8), byte(site)})
}

func topCtx(ctx string) (int, bool) {
	if len(ctx) < 4 {
		return 0, false
	}
	b := []byte(ctx[len(ctx)-4:])
	return int(b[0])<<24 | int(b[1])<<16 | int(b[2])<<8 | int(b[3]), true
}

// proveAccess decides whether an access of size bytes at the abstract
// address is provably aligned and inside a single mapped writable
// region.
func (a *factsRun) proveAccess(addr fval, size uint32) (vm.Region, bool) {
	if !a.hasLayout {
		return vm.RegionNone, false
	}
	if size > 1 {
		mask := size - 1
		if addr.m&mask != mask || addr.v&mask != 0 {
			return vm.RegionNone, false // alignment unproven
		}
	}
	last := addr.hi + size - 1
	if last < addr.hi {
		return vm.RegionNone, false // wraps the address space
	}
	l := a.layout
	switch {
	case addr.lo >= l.PacketBase && last < l.PacketEnd:
		return vm.RegionPacket, true
	case addr.lo >= l.DataBase && last < l.DataEnd:
		return vm.RegionData, true
	case addr.lo >= l.StackBase && last < l.StackEnd:
		return vm.RegionStack, true
	}
	return vm.RegionNone, false
}

// storeToSlots updates the tracked constant-address memory slots for a
// store: a word store to a known address records the value; anything
// else invalidates exactly the slots it may alias.
func (a *factsRun) storeToSlots(st *fstate, addr fval, size uint32, region vm.Region, proven bool, val fval) {
	if proven && addr.isConst() {
		base := addr.lo &^ 3
		if size == 4 {
			if _, tracked := st.slots[base]; tracked || len(st.slots) < maxSlots {
				if st.slots == nil {
					st.slots = make(map[uint32]slotVal)
				}
				st.slots[base] = slotVal{val: val, region: region}
			}
			return
		}
		// Sub-word store: drop the containing word(s).
		delete(st.slots, base)
		delete(st.slots, (addr.lo+size-1)&^3)
		return
	}
	if proven {
		// Bounded store: it can only alias slots of the same region that
		// overlap the address interval.
		last := addr.hi + size - 1
		for s := range st.slots {
			sv := st.slots[s]
			if sv.region == region && s+3 >= addr.lo && s <= last {
				delete(st.slots, s)
			}
		}
		return
	}
	// Untracked store: anything could be overwritten.
	for s := range st.slots {
		delete(st.slots, s)
	}
}

// ---- fact accumulation (replay pass) ------------------------------------

// recordMem joins one visit's memory-operand proof into the facts: the
// final fact holds only if every visiting context proves the same
// region.
func (a *factsRun) recordMem(i int, addr fval, size uint32, region vm.Region, proven bool) {
	f := a.f
	if !a.memSet[i] {
		a.memSet[i] = true
		if proven {
			f.Mem[i] = region
			f.MemLo[i], f.MemHi[i] = addr.lo, addr.hi
		} else {
			f.Mem[i] = vm.RegionNone
		}
		return
	}
	if !proven || f.Mem[i] != region {
		f.Mem[i] = vm.RegionNone
		return
	}
	f.MemLo[i] = min(f.MemLo[i], addr.lo)
	f.MemHi[i] = max(f.MemHi[i], addr.hi)
}

func (a *factsRun) recordBranch(i int, always, never bool) {
	f := a.f
	var this BranchFact
	switch {
	case always:
		this = BranchAlways
	case never:
		this = BranchNever
	default:
		this = BranchUnknown
	}
	if !a.brSet[i] {
		a.brSet[i] = true
		f.Branch[i] = this
		return
	}
	if f.Branch[i] != this {
		f.Branch[i] = BranchUnknown
	}
}

// recordMask joins one visit's redundant-mask proof for an AND/ANDI:
// every bit the source may have set must be known-one in the mask.
func (a *factsRun) recordMask(i int, src, mask fval) {
	redundant := (src.v|^src.m)&^(mask.m&mask.v) == 0
	if !a.redSet[i] {
		a.redSet[i] = true
		a.f.Redundant[i] = redundant
		return
	}
	a.f.Redundant[i] = a.f.Redundant[i] && redundant
}

// ---- diagnostics + dump -------------------------------------------------

// surfaceFactsDiags derives warn-severity findings from the facts:
// branches with a provably constant direction, provably redundant
// masks, and instructions proven unreachable under the precise analysis
// (a strict superset of the CFG-reachability "unreachable" warning, so
// only instructions in CFG-reachable blocks are reported here).
func surfaceFactsDiags(cfg *CFG, f *Facts) diag.List {
	if f == nil || !f.Tame {
		return nil
	}
	var ds diag.List
	for i, bf := range f.Branch {
		if bf == BranchUnknown {
			continue
		}
		dir := "always"
		if bf == BranchNever {
			dir = "never"
		}
		ds = append(ds, diag.Diagnostic{Severity: diag.Warning, Check: "const-branch",
			Line: cfg.lineAt(i), PC: cfg.pcAt(i),
			Msg: fmt.Sprintf("branch condition is %s true: the branch can be folded", dir)})
	}
	for i, r := range f.Redundant {
		if r {
			ds = append(ds, diag.Diagnostic{Severity: diag.Warning, Check: "redundant-mask",
				Line: cfg.lineAt(i), PC: cfg.pcAt(i),
				Msg: "mask provably keeps every bit of the source value (the AND is a move)"})
		}
	}
	for b := 0; b < cfg.Blocks.NumBlocks(); b++ {
		if !cfg.Reachable[b] {
			continue // already reported by the structural unreachable check
		}
		lead := cfg.Blocks.LeaderIndex(b)
		dead := true
		n := 0
		for i := lead; i <= cfg.Blocks.TerminatorIndex(b); i++ {
			dead = dead && f.Unreachable[i]
			n++
		}
		if dead {
			ds = append(ds, diag.Diagnostic{Severity: diag.Warning, Check: "facts-dead-code",
				Line: cfg.lineAt(lead), PC: cfg.pcAt(lead),
				Msg: fmt.Sprintf("value analysis proves block %d (%d instructions) unreachable on every input", b, n)})
		}
	}
	return ds
}

// Dump writes a human-readable listing of the facts of prog, one line
// per instruction that has any, for pbvet -facts.
func (f *Facts) Dump(w io.Writer, prog *asm.Program) {
	if f == nil || len(prog.Text) == 0 {
		fmt.Fprintln(w, "facts: none")
		return
	}
	if !f.Tame {
		fmt.Fprintln(w, "facts: program is untame (indirect control flow not resolved); no facts")
		return
	}
	cfg := &CFG{Prog: prog} // for pcAt and lineAt
	var proven, folded, masks, dead int
	for i := range f.Mem {
		if f.Mem[i] != vm.RegionNone {
			proven++
		}
		if f.Branch[i] != BranchUnknown {
			folded++
		}
		if f.Redundant[i] {
			masks++
		}
		if f.Unreachable[i] {
			dead++
		}
	}
	fmt.Fprintf(w, "facts: %d instructions: %d proven memory ops, %d constant branches, %d redundant masks, %d unreachable\n",
		len(f.Mem), proven, folded, masks, dead)
	for i := range f.Mem {
		var notes []string
		if f.Mem[i] != vm.RegionNone {
			notes = append(notes, fmt.Sprintf("mem=%s addr=[%#x,%#x]", f.Mem[i], f.MemLo[i], f.MemHi[i]))
		}
		switch f.Branch[i] {
		case BranchAlways:
			notes = append(notes, "branch=always")
		case BranchNever:
			notes = append(notes, "branch=never")
		}
		if f.Redundant[i] {
			notes = append(notes, "mask=redundant")
		}
		if f.Unreachable[i] {
			notes = append(notes, "unreachable")
		}
		if len(notes) == 0 {
			continue
		}
		fmt.Fprintf(w, "%#08x line %d %s:", cfg.pcAt(i), cfg.lineAt(i), cfg.Prog.Text[i].Op)
		for _, n := range notes {
			fmt.Fprintf(w, " %s", n)
		}
		fmt.Fprintln(w)
	}
}
