// Package microarch provides the "traditional microarchitectural
// statistics" tier of PacketBench results. The paper's evaluation
// deliberately skips these ("gathering similar workload characteristics
// is a straightforward exercise ... although they can be obtained from
// PacketBench"); this package makes good on that claim: instruction mix,
// branch behaviour under static and dynamic predictors, instruction and
// data cache behaviour, and a cycle estimate under an ARM7-like cost
// model — the inputs the paper's follow-on performance models (Franklin
// & Wolf) consume.
//
// The Profiler implements vm.Tracer and can be attached to a bench
// alongside the workload collector (see core.Bench.AddTracer). Each
// instruction's class and fixed cycle cost are static, so BindProgram
// sums them once per program into per-instruction prefix sums, and a
// pass adds the difference of two of them. Beyond that a pass pays only
// for what is dynamic: one I-cache access per line it spans, the branch
// outcome and the D-cache access per data reference. A profiler must be
// bound before it observes a run; Bench.AddTracer binds it.
package microarch

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/vm"
)

// Class buckets opcodes for the instruction mix.
type Class uint8

// Instruction classes.
const (
	ClassALU    Class = iota // integer ALU, register or immediate
	ClassMul                 // multiply
	ClassLoad                // memory read
	ClassStore               // memory write
	ClassBranch              // conditional branch
	ClassJump                // jal/jalr
	ClassOther               // halt and anything unclassified
	NumClasses
)

var classNames = [NumClasses]string{"alu", "mul", "load", "store", "branch", "jump", "other"}

// String returns the class name.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class?%d", uint8(c))
}

// Classify maps an opcode to its class.
func Classify(op isa.Opcode) Class {
	switch {
	case op == isa.MUL:
		return ClassMul
	case op.IsLoad():
		return ClassLoad
	case op.IsStore():
		return ClassStore
	case op.IsBranch():
		return ClassBranch
	case op == isa.JAL || op == isa.JALR:
		return ClassJump
	case op == isa.HALT:
		return ClassOther
	default:
		return ClassALU
	}
}

// Mix is an instruction mix histogram.
type Mix struct {
	Counts [NumClasses]uint64
}

// Total returns the number of classified instructions.
func (m *Mix) Total() uint64 {
	var t uint64
	for _, c := range m.Counts {
		t += c
	}
	return t
}

// Frac returns class c's share of the mix.
func (m *Mix) Frac(c Class) float64 {
	t := m.Total()
	if t == 0 {
		return 0
	}
	return float64(m.Counts[c]) / float64(t)
}

// String formats the mix as percentages.
func (m *Mix) String() string {
	var b strings.Builder
	for c := Class(0); c < NumClasses; c++ {
		if m.Counts[c] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s %.1f%%  ", c, 100*m.Frac(c))
	}
	return strings.TrimSpace(b.String())
}

// BranchStats tracks conditional-branch behaviour and the accuracy of
// two predictors: static BTFN (backward taken, forward not taken — the
// compile-time heuristic embedded-core toolchains use) and a bimodal
// table of 2-bit saturating counters.
type BranchStats struct {
	Branches       uint64 // conditional branches executed
	Taken          uint64
	BTFNCorrect    uint64
	BimodalCorrect uint64

	counters []uint8 // 2-bit saturating counters
}

// bimodalEntries sizes the predictor table; PB32 programs are tiny, so
// 1024 entries behaves like an untagged infinite table.
const bimodalEntries = 1024

// TakenRate returns the fraction of branches taken.
func (b *BranchStats) TakenRate() float64 { return rate(b.Taken, b.Branches) }

// BTFNAccuracy returns the static predictor's accuracy.
func (b *BranchStats) BTFNAccuracy() float64 { return rate(b.BTFNCorrect, b.Branches) }

// BimodalAccuracy returns the 2-bit predictor's accuracy.
func (b *BranchStats) BimodalAccuracy() float64 { return rate(b.BimodalCorrect, b.Branches) }

func rate(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// record updates the statistics for one executed branch. The profiler
// makes the counter table when it is bound.
func (b *BranchStats) record(pc uint32, backward, taken bool) {
	b.Branches++
	if taken {
		b.Taken++
	}
	if backward == taken {
		b.BTFNCorrect++
	}
	idx := pc >> 2 & (bimodalEntries - 1)
	ctr := b.counters[idx]
	if (ctr >= 2) == taken {
		b.BimodalCorrect++
	}
	if taken && ctr < 3 {
		b.counters[idx] = ctr + 1
	} else if !taken && ctr > 0 {
		b.counters[idx] = ctr - 1
	}
}

// CostModel assigns cycle costs in the spirit of an ARM7TDMI-class
// embedded core: single-cycle ALU, multi-cycle loads/stores, a pipeline
// refill penalty for taken control transfers, and a stall for cache
// misses when caches are attached.
type CostModel struct {
	ALU, Mul, Load, Store uint64
	Branch, Jump          uint64
	// TakenPenalty is added for taken branches and all jumps (pipeline
	// refill).
	TakenPenalty uint64
	// MissPenalty is added per cache miss (instruction or data).
	MissPenalty uint64
}

// DefaultCostModel is the ARM7-like model used unless overridden.
var DefaultCostModel = CostModel{
	ALU: 1, Mul: 2, Load: 3, Store: 2,
	Branch: 1, Jump: 1,
	TakenPenalty: 2, MissPenalty: 20,
}

func (cm CostModel) base(c Class) uint64 {
	switch c {
	case ClassMul:
		return cm.Mul
	case ClassLoad:
		return cm.Load
	case ClassStore:
		return cm.Store
	case ClassBranch:
		return cm.Branch
	case ClassJump:
		return cm.Jump
	default:
		return cm.ALU
	}
}

// Profiler is a vm.Tracer computing microarchitectural statistics.
// The zero value, once bound with BindProgram, profiles with the default
// cost model and no caches; attach caches with NewProfiler or by
// assigning ICache/DCache before the run.
type Profiler struct {
	Mix      Mix
	Branches BranchStats
	// ICache and DCache, when non-nil, model first-level caches.
	ICache, DCache *Cache
	// Cost is the cycle model (zero: DefaultCostModel). It is read when
	// the profiler is bound, so a change after BindProgram is not seen.
	Cost CostModel
	// Cycles is the accumulated cycle estimate.
	Cycles uint64

	// pending branch resolution: a conditional branch's direction is
	// known when the *next* instruction's pc arrives.
	havePending     bool
	pendingPC       uint32
	pendingBackward bool

	// cm is the bound cost model. The program table BindProgram builds
	// has one entry per text instruction, plus one past the end.
	cm       CostModel
	textBase uint32
	sums     []opSums
}

// opSums is one program table entry: the class counts and base cycles
// (plus each jump's taken penalty) of the instructions before this one,
// and whether this one is a conditional branch.
type opSums struct {
	counts   [NumClasses]uint64
	cycles   uint64
	branch   bool
	backward bool // a conditional branch whose target is not after it
}

// NewProfiler builds a profiler with the default cost model and the
// given caches (either may be nil).
func NewProfiler(icache, dcache *Cache) *Profiler {
	return &Profiler{ICache: icache, DCache: dcache, Cost: DefaultCostModel, cm: DefaultCostModel}
}

// BindProgram binds Cost and builds the program table of the text
// segment the profiled runs execute. It keeps the counts gathered so
// far, so a profiler may be bound again.
func (p *Profiler) BindProgram(text []isa.Instruction, textBase uint32) {
	if p.cm = p.Cost; p.cm == (CostModel{}) {
		p.cm = DefaultCostModel
	}
	if p.Branches.counters == nil {
		p.Branches.counters = make([]uint8, bimodalEntries)
	}
	p.textBase = textBase
	p.sums = make([]opSums, len(text)+1)
	for i, in := range text {
		c := Classify(in.Op)
		next, op := &p.sums[i+1], &p.sums[i]
		next.counts, next.cycles = op.counts, op.cycles+p.cm.base(c)
		next.counts[c]++
		switch c {
		case ClassJump:
			next.cycles += p.cm.TakenPenalty
		case ClassBranch:
			pc := textBase + uint32(i)*isa.WordSize
			op.branch = true
			op.backward = pc+isa.WordSize+uint32(in.Imm)*isa.WordSize <= pc
		}
	}
}

// Pass implements vm.Tracer: the instructions first..last executed in
// order. A conditional branch always ends its pass, so only last can
// leave a branch pending, and first's pc resolves the one the previous
// pass left. The I-cache and D-cache are separate, so running a pass's
// I-cache accesses after its Mem events changes nothing.
//
// The I-cache is fetched once per line the pass spans, not per pc: the
// other pcs of each line hit the line that access just made most
// recently used, so they are counted as hits without touching the LRU
// order.
//
// pblint:hotpath — runs once per block pass of every profiled packet.
func (p *Profiler) Pass(first, last int) {
	pc := p.textBase + uint32(first)*isa.WordSize
	p.resolve(pc)
	lo, hi := &p.sums[first], &p.sums[last+1]
	for c := range p.Mix.Counts {
		p.Mix.Counts[c] += hi.counts[c] - lo.counts[c]
	}
	p.Cycles += hi.cycles - lo.cycles
	lastPC := pc + uint32(last-first)*isa.WordSize
	if op := &p.sums[last]; op.branch {
		p.havePending = true
		p.pendingPC = lastPC
		p.pendingBackward = op.backward
	}
	ic := p.ICache
	if ic == nil {
		return
	}
	line, end := pc>>ic.lineBits, lastPC>>ic.lineBits
	ic.Accesses += uint64(last-first) - uint64(end-line)
	for ; line <= end; line++ { // pcs are word-aligned, so end < MaxUint32
		if !ic.accessLine(line) {
			p.Cycles += p.cm.MissPenalty
		}
	}
}

// resolve settles the pending conditional branch, if any, now that the
// pc of the instruction after it is known.
//
// pblint:hotpath — runs once per profiled pass.
func (p *Profiler) resolve(pc uint32) {
	if p.havePending {
		p.havePending = false
		taken := pc != p.pendingPC+isa.WordSize
		p.Branches.record(p.pendingPC, p.pendingBackward, taken)
		if taken {
			p.Cycles += p.cm.TakenPenalty
		}
	}
}

// Mem implements vm.Tracer.
//
// pblint:hotpath — runs once per data access of every profiled packet.
func (p *Profiler) Mem(pc, addr uint32, size uint8, write bool, region vm.Region) {
	if p.DCache != nil && !p.DCache.Access(addr) {
		p.Cycles += p.cm.MissPenalty
	}
}

// Flush resolves a pending branch at the end of a run (the successor
// never executed, so the branch is counted as not taken). Call between
// packets if per-packet precision matters; aggregate users can skip it.
func (p *Profiler) Flush() {
	if p.havePending {
		p.havePending = false
		p.Branches.record(p.pendingPC, p.pendingBackward, false)
	}
}

// CPI returns cycles per instruction over everything profiled.
func (p *Profiler) CPI() float64 {
	t := p.Mix.Total()
	if t == 0 {
		return 0
	}
	return float64(p.Cycles) / float64(t)
}

// Report formats the profile for human consumption.
func (p *Profiler) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "instruction mix:     %s\n", p.Mix.String())
	fmt.Fprintf(&b, "branches:            %d executed, %.1f%% taken\n",
		p.Branches.Branches, 100*p.Branches.TakenRate())
	fmt.Fprintf(&b, "  BTFN accuracy:     %.1f%%\n", 100*p.Branches.BTFNAccuracy())
	fmt.Fprintf(&b, "  bimodal accuracy:  %.1f%%\n", 100*p.Branches.BimodalAccuracy())
	if p.ICache != nil {
		fmt.Fprintf(&b, "icache:              %s\n", p.ICache)
	}
	if p.DCache != nil {
		fmt.Fprintf(&b, "dcache:              %s\n", p.DCache)
	}
	fmt.Fprintf(&b, "cycle estimate:      %d (CPI %.2f)\n", p.Cycles, p.CPI())
	return b.String()
}
