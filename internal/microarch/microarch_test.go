package microarch

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/vm"
)

func TestClassify(t *testing.T) {
	cases := map[isa.Opcode]Class{
		isa.ADD: ClassALU, isa.ADDI: ClassALU, isa.LUI: ClassALU,
		isa.SLT: ClassALU, isa.XORI: ClassALU,
		isa.MUL: ClassMul,
		isa.LB:  ClassLoad, isa.LW: ClassLoad, isa.LHU: ClassLoad,
		isa.SB: ClassStore, isa.SW: ClassStore,
		isa.BEQ: ClassBranch, isa.BGEU: ClassBranch,
		isa.JAL: ClassJump, isa.JALR: ClassJump,
		isa.HALT: ClassOther,
	}
	for op, want := range cases {
		if got := Classify(op); got != want {
			t.Errorf("Classify(%v) = %v, want %v", op, got, want)
		}
	}
}

func TestMix(t *testing.T) {
	var m Mix
	m.Counts[ClassALU] = 60
	m.Counts[ClassLoad] = 30
	m.Counts[ClassBranch] = 10
	if m.Total() != 100 {
		t.Errorf("Total = %d", m.Total())
	}
	if m.Frac(ClassALU) != 0.6 || m.Frac(ClassLoad) != 0.3 {
		t.Errorf("fractions wrong: %v %v", m.Frac(ClassALU), m.Frac(ClassLoad))
	}
	if m.Frac(ClassStore) != 0 {
		t.Error("empty class has nonzero fraction")
	}
	s := m.String()
	if !strings.Contains(s, "alu 60.0%") || strings.Contains(s, "store") {
		t.Errorf("String() = %q", s)
	}
	var empty Mix
	if empty.Frac(ClassALU) != 0 {
		t.Error("empty mix division by zero")
	}
}

// feed binds p to a program holding instrs[i] at pcs[i] (text base 0,
// ALU no-ops elsewhere) and reports each pc in turn as a one-instruction
// pass, as the interpreter does.
func feed(p *Profiler, pcs []uint32, instrs []isa.Instruction) {
	text := make([]isa.Instruction, slices.Max(pcs)/isa.WordSize+1)
	for i := range text {
		text[i] = isa.Instruction{Op: isa.ADDI}
	}
	for i, pc := range pcs {
		text[pc/isa.WordSize] = instrs[i]
	}
	p.BindProgram(text, 0)
	for _, pc := range pcs {
		p.Pass(int(pc/isa.WordSize), int(pc/isa.WordSize))
	}
}

// driveBranches feeds the profiler a synthetic instruction stream with
// known branch behaviour.
func driveBranches(p *Profiler, pcs []uint32, instrs []isa.Instruction) {
	feed(p, pcs, instrs)
	p.Flush()
}

func TestBranchDetection(t *testing.T) {
	p := NewProfiler(nil, nil)
	// Backward branch taken twice, then falls through.
	// Layout: 0x100: addi; 0x104: bne -> 0x100; loop twice then exit to 0x108.
	addi := isa.Instruction{Op: isa.ADDI, Rd: isa.T0, Rs1: isa.T0, Imm: 1}
	bne := isa.Instruction{Op: isa.BNE, Rs1: isa.T0, Rs2: isa.T1, Imm: -2}
	halt := isa.Instruction{Op: isa.HALT}
	driveBranches(p,
		[]uint32{0x100, 0x104, 0x100, 0x104, 0x100, 0x104, 0x108},
		[]isa.Instruction{addi, bne, addi, bne, addi, bne, halt})
	if p.Branches.Branches != 3 {
		t.Fatalf("branches = %d, want 3", p.Branches.Branches)
	}
	if p.Branches.Taken != 2 {
		t.Errorf("taken = %d, want 2", p.Branches.Taken)
	}
	// BTFN predicts backward branches taken: correct twice, wrong once.
	if p.Branches.BTFNCorrect != 2 {
		t.Errorf("BTFN correct = %d, want 2", p.Branches.BTFNCorrect)
	}
	if got := p.Branches.TakenRate(); got < 0.66 || got > 0.67 {
		t.Errorf("taken rate = %v", got)
	}
}

func TestBranchPendingAtEnd(t *testing.T) {
	p := NewProfiler(nil, nil)
	bne := isa.Instruction{Op: isa.BNE, Rs1: isa.T0, Rs2: isa.T1, Imm: 4}
	feed(p, []uint32{0x100}, []isa.Instruction{bne})
	// No successor instruction: Flush must resolve it as not taken.
	p.Flush()
	if p.Branches.Branches != 1 || p.Branches.Taken != 0 {
		t.Errorf("pending branch resolved as %+v", p.Branches)
	}
	// Double flush is a no-op.
	p.Flush()
	if p.Branches.Branches != 1 {
		t.Error("Flush double counted")
	}
}

func TestBimodalConvergesOnLoop(t *testing.T) {
	p := NewProfiler(nil, nil)
	addi := isa.Instruction{Op: isa.ADDI}
	bne := isa.Instruction{Op: isa.BNE, Imm: -2}
	// 100 iterations of a loop: the 2-bit counter should mispredict only
	// the first couple and the final fall-through.
	var pcs []uint32
	var ins []isa.Instruction
	for i := 0; i < 100; i++ {
		pcs = append(pcs, 0x200, 0x204)
		ins = append(ins, addi, bne)
	}
	pcs = append(pcs, 0x208)
	ins = append(ins, isa.Instruction{Op: isa.HALT})
	driveBranches(p, pcs, ins)
	if p.Branches.Branches != 100 {
		t.Fatalf("branches = %d", p.Branches.Branches)
	}
	if acc := p.Branches.BimodalAccuracy(); acc < 0.95 {
		t.Errorf("bimodal accuracy %.2f on a pure loop; want > 0.95", acc)
	}
}

func TestCycleModel(t *testing.T) {
	p := NewProfiler(nil, nil)
	feed(p, []uint32{0, 4, 8, 12, 16}, []isa.Instruction{
		{Op: isa.ADD}, // 1
		{Op: isa.MUL}, // 2
		{Op: isa.LW},  // 3
		{Op: isa.SW},  // 2
		{Op: isa.JAL}, // 1 + 2 taken penalty
	})
	want := uint64(1 + 2 + 3 + 2 + 1 + 2)
	if p.Cycles != want {
		t.Errorf("Cycles = %d, want %d", p.Cycles, want)
	}
	if cpi := p.CPI(); cpi != float64(want)/5 {
		t.Errorf("CPI = %v", cpi)
	}
}

func TestCycleModelTakenBranchPenalty(t *testing.T) {
	p := NewProfiler(nil, nil)
	bne := isa.Instruction{Op: isa.BNE, Imm: 4}
	nop := isa.Instruction{Op: isa.ADDI}
	// A taken branch (successor pc != pc+4), then a not-taken one.
	feed(p, []uint32{0x100, 0x114, 0x118, 0x11C}, []isa.Instruction{bne, nop, bne, nop})
	p.Flush()
	// 2 branches (1 each) + 2 nops (1 each) + one taken penalty (2).
	if p.Cycles != 2+2+2 {
		t.Errorf("Cycles = %d, want 6", p.Cycles)
	}
}

func TestCacheBasics(t *testing.T) {
	c, err := NewCache(1024, 16, 2) // 32 sets, 2 ways
	if err != nil {
		t.Fatal(err)
	}
	if c.Sets() != 32 {
		t.Fatalf("Sets = %d", c.Sets())
	}
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("repeat access missed")
	}
	if !c.Access(0x100F) {
		t.Error("same-line access missed")
	}
	if c.Access(0x1010) {
		t.Error("next line hit cold")
	}
	if c.Accesses != 4 || c.Misses != 2 {
		t.Errorf("accesses/misses = %d/%d", c.Accesses, c.Misses)
	}
	if c.MissRate() != 0.5 {
		t.Errorf("MissRate = %v", c.MissRate())
	}
	c.Reset()
	if c.Accesses != 0 || c.Access(0x1000) {
		t.Error("Reset incomplete")
	}
}

func TestCacheLRUWithinSet(t *testing.T) {
	c, err := NewCache(64, 16, 2) // 2 sets, 2 ways
	if err != nil {
		t.Fatal(err)
	}
	// Three lines mapping to set 0 (line addresses multiples of 32).
	a, b, d := uint32(0x000), uint32(0x040), uint32(0x080)
	c.Access(a) // miss, {a}
	c.Access(b) // miss, {b, a}
	c.Access(a) // hit,  {a, b}
	c.Access(d) // miss, evicts b -> {d, a}
	if !c.Access(a) {
		t.Error("a evicted despite being MRU")
	}
	if c.Access(b) {
		t.Error("b survived eviction")
	}
}

func TestCacheDirectMappedConflicts(t *testing.T) {
	c, err := NewCache(256, 16, 1) // 16 sets, direct mapped
	if err != nil {
		t.Fatal(err)
	}
	// Two addresses 256 apart conflict in a direct-mapped 256B cache.
	for i := 0; i < 10; i++ {
		c.Access(0x0)
		c.Access(0x100)
	}
	if c.Misses != 20 {
		t.Errorf("conflict misses = %d, want 20 (thrashing)", c.Misses)
	}
}

func TestCacheValidation(t *testing.T) {
	for _, bad := range [][3]int{
		{0, 16, 1}, {1024, 0, 1}, {1024, 16, 0},
		{1000, 16, 1}, {1024, 15, 1}, {1024, 16, 3},
		{16, 16, 4}, // no sets
	} {
		if _, err := NewCache(bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("NewCache(%v) accepted", bad)
		}
	}
}

func TestCacheRandomizedConsistency(t *testing.T) {
	// Property: a fully-associative cache of N lines accessed with a
	// working set <= N lines never misses after warmup.
	c, err := NewCache(16*8, 16, 8) // 1 set, 8 ways
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint32, 8)
	for i := range addrs {
		addrs[i] = rng.Uint32() &^ 15
	}
	for _, a := range addrs {
		c.Access(a)
	}
	warm := c.Misses
	for i := 0; i < 1000; i++ {
		c.Access(addrs[rng.Intn(len(addrs))])
	}
	if c.Misses != warm {
		t.Errorf("working set within capacity missed: %d extra misses", c.Misses-warm)
	}
}

func TestProfilerWithCaches(t *testing.T) {
	ic, _ := NewCache(1024, 16, 2)
	dc, _ := NewCache(1024, 16, 2)
	p := NewProfiler(ic, dc)
	p.Mem(0x100, 0x2000, 4, false, vm.RegionData)
	feed(p, []uint32{0x100}, []isa.Instruction{{Op: isa.LW}})
	// Load (3) + icache miss (20) + dcache miss (20).
	if p.Cycles != 43 {
		t.Errorf("Cycles = %d, want 43", p.Cycles)
	}
	p.Mem(0x100, 0x2000, 4, false, vm.RegionData)
	feed(p, []uint32{0x100}, []isa.Instruction{{Op: isa.LW}})
	// Second time both hit: +3 only.
	if p.Cycles != 46 {
		t.Errorf("Cycles = %d, want 46", p.Cycles)
	}
	rep := p.Report()
	for _, frag := range []string{"instruction mix", "icache", "dcache", "CPI"} {
		if !strings.Contains(rep, frag) {
			t.Errorf("Report missing %q:\n%s", frag, rep)
		}
	}
}

func TestZeroValueProfilerUsesDefaults(t *testing.T) {
	var p Profiler
	feed(&p, []uint32{0}, []isa.Instruction{{Op: isa.ADD}})
	if p.Cycles != DefaultCostModel.ALU {
		t.Errorf("zero-value profiler cycles = %d", p.Cycles)
	}
}

// TestCustomCostModel sets a cost model before binding: base cycles, the
// taken penalty and the miss penalty all follow it. The model is read at
// binding, so one assigned afterwards is seen only after binding again.
func TestCustomCostModel(t *testing.T) {
	ic, _ := NewCache(1024, 16, 2)
	dc, _ := NewCache(1024, 16, 2)
	p := &Profiler{ICache: ic, DCache: dc,
		Cost: CostModel{ALU: 5, Load: 7, Branch: 11, TakenPenalty: 13, MissPenalty: 100}}
	text := make([]isa.Instruction, 9)
	text[0] = isa.Instruction{Op: isa.LW}
	text[1] = isa.Instruction{Op: isa.BNE, Imm: 6} // to pc 0x20
	text[8] = isa.Instruction{Op: isa.ADD}
	p.BindProgram(text, 0)
	p.Mem(0, 0x2000, 4, false, vm.RegionData) // D-cache miss: 100
	p.Pass(0, 1)                              // load 7 + branch 11 + I-cache miss 100
	p.Pass(8, 8)                              // taken 13 + ALU 5 + I-cache miss 100
	if want := uint64(100 + 7 + 11 + 100 + 13 + 5 + 100); p.Cycles != want {
		t.Errorf("Cycles = %d, want %d", p.Cycles, want)
	}
	p.Cost = DefaultCostModel
	before := p.Cycles
	p.Pass(8, 8) // I-cache hit; ALU still costs the bound 5
	if p.Cycles != before+5 {
		t.Errorf("a model assigned after binding changed the cost: %d cycles, want %d", p.Cycles-before, 5)
	}
	p.BindProgram(text, 0)
	before = p.Cycles
	p.Pass(8, 8)
	if p.Cycles != before+DefaultCostModel.ALU {
		t.Errorf("after binding again: %d cycles, want %d", p.Cycles-before, DefaultCostModel.ALU)
	}
}
