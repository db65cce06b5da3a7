package vm

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/isa"
)

// testLayout is the standard layout the engine differential tests run
// under, mirroring the fuzz harness.
func testLayout(textBase uint32, n int) Layout {
	return Layout{
		TextBase:   textBase,
		TextEnd:    textBase + uint32(n)*isa.WordSize,
		PacketBase: 0x20000000,
		PacketEnd:  0x20010000,
		DataBase:   0x10000000,
		DataEnd:    0x10100000,
		StackBase:  0x7FFF0000,
		StackEnd:   0x80000000,
	}
}

// engineResult captures everything observable about one run, for
// engine-equivalence comparison.
type engineResult struct {
	Regs   [isa.NumRegs]uint32
	PC     uint32
	Steps  uint64
	Reason StopReason
	Fault  *Fault
	High   uint32 // packet-write watermark
	mem    *Memory
}

// runEngine executes text on a fresh CPU with the given engine
// (threaded or interpreter) and optional tracer factory.
func runEngine(t *testing.T, text []isa.Instruction, textBase uint32, maxSteps uint64,
	threaded bool, tracer Tracer, seedRegs func(*CPU)) engineResult {
	t.Helper()
	cpu := New(text, textBase, NewMemory())
	cpu.Layout = testLayout(textBase, len(text))
	cpu.Tracer = tracer
	if seedRegs != nil {
		seedRegs(cpu)
	}
	cpu.PC = textBase
	var (
		steps  uint64
		reason StopReason
		err    error
	)
	if threaded {
		// Nil facts prove nothing, so this runs the plain, fully-checked
		// body through the untraced runFast loop (or runTraced when a
		// tracer is attached) against the interpreter.
		p := TranslateWithFacts(text, textBase, analysis.NewBlockMap(text, textBase), nil)
		steps, reason, err = cpu.RunProgram(p, maxSteps)
	} else {
		steps, reason, err = cpu.Run(maxSteps)
	}
	res := engineResult{
		Regs: cpu.Regs, PC: cpu.PC, Steps: steps, Reason: reason,
		High: cpu.PacketWriteHigh(), mem: cpu.Mem,
	}
	if err != nil {
		var f *Fault
		if !errors.As(err, &f) {
			t.Fatalf("non-Fault error: %v", err)
		}
		res.Fault = f
	}
	if cpu.Regs[isa.Zero] != 0 {
		t.Fatalf("zero register clobbered: %#x", cpu.Regs[isa.Zero])
	}
	return res
}

// requireSameResult fails unless the two runs are bit-identical:
// registers, final PC, step count, stop reason, fault kind/PC/Addr,
// packet watermark, and the full memory image.
func requireSameResult(t *testing.T, want, got engineResult, label string) {
	t.Helper()
	if want.Regs != got.Regs {
		t.Errorf("%s: register files differ:\ninterp:   %#x\nthreaded: %#x", label, want.Regs, got.Regs)
	}
	if want.PC != got.PC {
		t.Errorf("%s: final PC differs: interp %#x, threaded %#x", label, want.PC, got.PC)
	}
	if want.Steps != got.Steps {
		t.Errorf("%s: steps differ: interp %d, threaded %d", label, want.Steps, got.Steps)
	}
	if want.Reason != got.Reason {
		t.Errorf("%s: stop reason differs: interp %v, threaded %v", label, want.Reason, got.Reason)
	}
	if want.High != got.High {
		t.Errorf("%s: packet watermark differs: interp %#x, threaded %#x", label, want.High, got.High)
	}
	switch {
	case (want.Fault == nil) != (got.Fault == nil):
		t.Errorf("%s: fault presence differs: interp %v, threaded %v", label, want.Fault, got.Fault)
	case want.Fault != nil && *want.Fault != *got.Fault:
		t.Errorf("%s: faults differ: interp %+v, threaded %+v", label, *want.Fault, *got.Fault)
	}
	if !want.mem.Equal(got.mem) {
		t.Errorf("%s: final memory images differ", label)
	}
}

// ins builds an instruction tersely.
func ins(op isa.Opcode, rd, rs1, rs2 isa.Reg, imm int32) isa.Instruction {
	return isa.Instruction{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm}
}

// TestThreadedMatchesInterpreter runs hand-built programs covering every
// control-flow and fault shape through both engines and requires
// bit-identical outcomes.
func TestThreadedMatchesInterpreter(t *testing.T) {
	const base = 0x00400000
	seed := func(c *CPU) {
		c.Regs[1] = 0x20000000 // packet
		c.Regs[2] = 0x10000000 // data
		c.Regs[3] = 0x7FFF8000 // stack
	}
	cases := []struct {
		name     string
		text     []isa.Instruction
		maxSteps uint64
	}{
		{"halt", []isa.Instruction{ins(isa.HALT, 0, 0, 0, 0)}, 100},
		{"count-loop", []isa.Instruction{
			ins(isa.ADDI, 4, 0, 0, 10), // t = 10
			ins(isa.ADDI, 5, 5, 0, 3),  // acc += 3
			ins(isa.ADDI, 4, 4, 0, -1), // t--
			ins(isa.BNE, 0, 4, 0, -3),  // loop
			ins(isa.JALR, 0, 15, 0, 0), // ret (ra seeded? no) -> bad fetch at 0
		}, 1000},
		{"store-load-roundtrip", []isa.Instruction{
			ins(isa.LUI, 6, 0, 0, 0xDEAD>>0),
			ins(isa.ORI, 6, 6, 0, 0xBE),
			ins(isa.SW, 6, 1, 0, 4),
			ins(isa.LW, 7, 1, 0, 4),
			ins(isa.SH, 6, 2, 0, 2),
			ins(isa.LHU, 8, 2, 0, 2),
			ins(isa.LH, 9, 2, 0, 2),
			ins(isa.SB, 6, 3, 0, -1),
			ins(isa.LBU, 10, 3, 0, -1),
			ins(isa.LB, 11, 3, 0, -1),
			ins(isa.HALT, 0, 0, 0, 0),
		}, 100},
		{"alu-zoo", []isa.Instruction{
			ins(isa.ADDI, 4, 0, 0, -7),
			ins(isa.ADDI, 5, 0, 0, 13),
			ins(isa.ADD, 6, 4, 5, 0),
			ins(isa.SUB, 7, 4, 5, 0),
			ins(isa.MUL, 8, 4, 5, 0),
			ins(isa.SLT, 9, 4, 5, 0),
			ins(isa.SLTU, 10, 4, 5, 0),
			ins(isa.SRA, 11, 4, 5, 0),
			ins(isa.SRL, 12, 4, 5, 0),
			ins(isa.SLL, 13, 4, 5, 0),
			ins(isa.SLTI, 4, 4, 0, -6),
			ins(isa.SLTIU, 5, 5, 0, -1),
			ins(isa.SRAI, 6, 6, 0, 31),
			ins(isa.XOR, 7, 7, 6, 0),
			ins(isa.AND, 8, 8, 7, 0),
			ins(isa.OR, 9, 9, 8, 0),
			ins(isa.HALT, 0, 0, 0, 0),
		}, 100},
		{"zero-reg-targets", []isa.Instruction{
			ins(isa.ADDI, 0, 0, 0, 99), // discarded
			ins(isa.LUI, 0, 0, 0, 99),  // discarded
			ins(isa.LW, 0, 1, 0, 0),    // load checks run, write discarded
			ins(isa.JAL, 0, 0, 0, 0),   // jump, no link
			ins(isa.HALT, 0, 0, 0, 0),
		}, 100},
		{"call-and-return", []isa.Instruction{
			ins(isa.JAL, 15, 0, 0, 2), // call +3 (skips the next two)
			ins(isa.ADDI, 4, 4, 0, 1), // return point
			ins(isa.HALT, 0, 0, 0, 0),
			ins(isa.ADDI, 5, 5, 0, 42), // callee
			ins(isa.JALR, 0, 15, 0, 0), // ret
		}, 100},
		{"jalr-misaligned-target", []isa.Instruction{
			ins(isa.ADDI, 4, 0, 0, 0x100),
			ins(isa.JALR, 0, 4, 0, 2), // target (0x100+2)&^3 = 0x100: bad fetch
		}, 100},
		{"branch-out-of-text", []isa.Instruction{
			ins(isa.BEQ, 0, 0, 0, 100),
		}, 100},
		{"branch-backward-out-of-text", []isa.Instruction{
			ins(isa.BEQ, 0, 0, 0, -100),
		}, 100},
		{"jal-out-of-text", []isa.Instruction{
			ins(isa.JAL, 15, 0, 0, 1<<19),
		}, 100},
		{"fall-off-end", []isa.Instruction{
			ins(isa.ADDI, 4, 0, 0, 1),
			ins(isa.ADDI, 4, 4, 0, 1),
		}, 100},
		{"unaligned-word-load", []isa.Instruction{
			ins(isa.LW, 4, 1, 0, 2),
		}, 100},
		{"unaligned-half-store", []isa.Instruction{
			ins(isa.SH, 4, 1, 0, 1),
		}, 100},
		{"unmapped-load", []isa.Instruction{
			ins(isa.LW, 4, 0, 0, 0x100), // address 0x100: unmapped
		}, 100},
		{"text-read-faults", []isa.Instruction{
			ins(isa.LUI, 4, 0, 0, int32(base>>12)),
			ins(isa.LW, 5, 4, 0, 0),
		}, 100},
		{"text-write-faults", []isa.Instruction{
			ins(isa.LUI, 4, 0, 0, int32(base>>12)),
			ins(isa.SW, 5, 4, 0, 0),
		}, 100},
		{"step-limit-mid-block", []isa.Instruction{
			ins(isa.ADDI, 4, 4, 0, 1),
			ins(isa.ADDI, 4, 4, 0, 1),
			ins(isa.ADDI, 4, 4, 0, 1),
			ins(isa.ADDI, 4, 4, 0, 1),
			ins(isa.ADDI, 4, 4, 0, 1),
			ins(isa.HALT, 0, 0, 0, 0),
		}, 3},
		{"step-limit-on-loop", []isa.Instruction{
			ins(isa.BEQ, 0, 0, 0, -1), // tight self-loop
		}, 17},
		{"bad-instr", []isa.Instruction{
			ins(isa.ADDI, 4, 0, 0, 1),
			ins(isa.Opcode(200), 4, 0, 0, 0),
			ins(isa.HALT, 0, 0, 0, 0),
		}, 100},
		{"packet-watermark", []isa.Instruction{
			ins(isa.SW, 4, 1, 0, 60),
			ins(isa.SB, 4, 1, 0, 200),
			ins(isa.HALT, 0, 0, 0, 0),
		}, 100},
		{"return-address-jalr", []isa.Instruction{
			ins(isa.ADDI, 4, 4, 0, 5),
			ins(isa.JALR, 0, 15, 0, 0),
		}, 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seedRA := func(c *CPU) {
				seed(c)
				c.Regs[15] = ReturnAddress
			}
			want := runEngine(t, tc.text, base, tc.maxSteps, false, nil, seedRA)
			got := runEngine(t, tc.text, base, tc.maxSteps, true, nil, seedRA)
			requireSameResult(t, want, got, "untraced")

			wt := &recordingTracer{}
			gt := &recordingTracer{}
			want = runEngine(t, tc.text, base, tc.maxSteps, false, wt, seedRA)
			got = runEngine(t, tc.text, base, tc.maxSteps, true, gt, seedRA)
			requireSameResult(t, want, got, "traced")
			if !reflect.DeepEqual(wt.instrs, gt.instrs) {
				t.Errorf("traced: Instr event streams differ:\ninterp:   %v\nthreaded: %v", wt.instrs, gt.instrs)
			}
			if !reflect.DeepEqual(wt.mems, gt.mems) {
				t.Errorf("traced: Mem event streams differ:\ninterp:   %v\nthreaded: %v", wt.mems, gt.mems)
			}
		})
	}
}

// recordingTracer captures the full tracer event streams for exact
// cross-engine comparison.
type recordingTracer struct {
	instrs []uint32
	mems   []memRec
	blocks []blockRec
}

type memRec struct {
	pc, addr uint32
	size     uint8
	write    bool
	region   Region
}

type blockRec struct {
	b      int
	leader bool
}

func (r *recordingTracer) Instr(pc uint32, in isa.Instruction) { r.instrs = append(r.instrs, pc) }
func (r *recordingTracer) Mem(pc, addr uint32, size uint8, write bool, region Region) {
	r.mems = append(r.mems, memRec{pc, addr, size, write, region})
}

// blockRecorder additionally implements BlockTracer.
type blockRecorder struct {
	recordingTracer
}

func (r *blockRecorder) EnterBlock(b int, leader bool) {
	r.blocks = append(r.blocks, blockRec{b, leader})
}

// TestThreadedMidBlockEntry drives a JALR into the middle of a basic
// block (a computed target that is not a leader) and checks both the
// architectural result and that EnterBlock reports leader=false.
func TestThreadedMidBlockEntry(t *testing.T) {
	const base = 0x00400000
	// Block 0: addi, jalr. Block 1 (fall through target creation): the
	// jalr jumps to base+16 — the middle of the straight-line run
	// base+8..base+20 — which is not a leader.
	text := []isa.Instruction{
		ins(isa.ADDI, 4, 0, 0, int32(0x10)), // r4 = 16
		ins(isa.JALR, 5, 4, 0, int32(base)), // jump to base+16, link r5
		ins(isa.ADDI, 6, 6, 0, 1),           // base+8  (leader: after control)
		ins(isa.ADDI, 6, 6, 0, 2),           // base+12
		ins(isa.ADDI, 6, 6, 0, 4),           // base+16 <- entered mid-block
		ins(isa.ADDI, 6, 6, 0, 8),           // base+20
		ins(isa.HALT, 0, 0, 0, 0),
	}
	want := runEngine(t, text, base, 100, false, nil, nil)
	rec := &blockRecorder{}
	got := runEngine(t, text, base, 100, true, rec, nil)
	// Traced vs untraced interpreter state must also agree.
	requireSameResult(t, want, got, "mid-block entry")
	if got.Regs[6] != 4+8 {
		t.Fatalf("r6 = %d, want 12 (entered at base+16)", got.Regs[6])
	}
	foundMid := false
	for _, b := range rec.blocks {
		if !b.leader {
			foundMid = true
		}
	}
	if !foundMid {
		t.Fatalf("no mid-block EnterBlock reported; blocks: %+v", rec.blocks)
	}
}

// TestMultiTracerEnterBlock checks that MultiTracer forwards EnterBlock
// to block-aware members and skips plain tracers.
func TestMultiTracerEnterBlock(t *testing.T) {
	const base = 0x00400000
	text := []isa.Instruction{
		ins(isa.ADDI, 4, 0, 0, 1),
		ins(isa.HALT, 0, 0, 0, 0),
	}
	plain := &recordingTracer{}
	aware := &blockRecorder{}
	mt := MultiTracer{plain, aware}
	res := runEngine(t, text, base, 100, true, mt, nil)
	if res.Fault != nil {
		t.Fatal(res.Fault)
	}
	if len(aware.blocks) == 0 {
		t.Fatal("block-aware member saw no EnterBlock")
	}
	if len(plain.instrs) != 2 || len(aware.instrs) != 2 {
		t.Fatalf("Instr fan-out broken: plain %d, aware %d", len(plain.instrs), len(aware.instrs))
	}
}

// TestPageCacheSeesHostWrites runs the threaded engine twice with a host
// write in between, on a page the first run read while unallocated: the
// cache must not serve a stale zero page.
func TestPageCacheSeesHostWrites(t *testing.T) {
	const base = 0x00400000
	text := []isa.Instruction{
		ins(isa.LW, 4, 1, 0, 0), // read packet[0]
		ins(isa.HALT, 0, 0, 0, 0),
	}
	cpu := New(text, base, NewMemory())
	cpu.Layout = testLayout(base, len(text))
	prog := Translate(text, base, analysis.NewBlockMap(text, base))

	cpu.Regs[1] = cpu.Layout.PacketBase
	cpu.PC = base
	if _, _, err := cpu.RunProgram(prog, 100); err != nil {
		t.Fatal(err)
	}
	if cpu.Regs[4] != 0 {
		t.Fatalf("unallocated page read %#x, want 0", cpu.Regs[4])
	}

	// Host allocates and fills the page between runs.
	cpu.Mem.Write32(cpu.Layout.PacketBase, 0xCAFEF00D)
	cpu.Regs[1] = cpu.Layout.PacketBase
	cpu.PC = base
	if _, _, err := cpu.RunProgram(prog, 100); err != nil {
		t.Fatal(err)
	}
	if cpu.Regs[4] != 0xCAFEF00D {
		t.Fatalf("second run read %#x, want 0xCAFEF00D", cpu.Regs[4])
	}
}

// TestThreadedStepsAccumulate checks the lifetime step counter matches
// the interpreter across multiple RunProgram calls.
func TestThreadedStepsAccumulate(t *testing.T) {
	const base = 0x00400000
	text := []isa.Instruction{
		ins(isa.ADDI, 4, 4, 0, 1),
		ins(isa.ADDI, 4, 4, 0, 1),
		ins(isa.HALT, 0, 0, 0, 0),
	}
	cpu := New(text, base, NewMemory())
	cpu.Layout = testLayout(base, len(text))
	prog := Translate(text, base, analysis.NewBlockMap(text, base))
	for i := 0; i < 3; i++ {
		cpu.PC = base
		if _, _, err := cpu.RunProgram(prog, 100); err != nil {
			t.Fatal(err)
		}
	}
	if cpu.Steps() != 9 {
		t.Fatalf("lifetime steps = %d, want 9", cpu.Steps())
	}
}

// TestNoProofNoUncheckedOps is the hostile half of the proof-guided
// translation contract: without verifier proofs, no memory check may be
// elided and no branch folded, no matter how tempting the program looks.
// Plain Translate (the Options.NoVerify path) must emit no proof-guided
// micro-ops at all, and TranslateWithFacts without proofs must produce
// exactly Translate's body.
func TestNoProofNoUncheckedOps(t *testing.T) {
	const base = 0x00400000
	// Loads, stores, a mask, an ALU chain, and a loop latch: everything
	// the optimizer would love to touch.
	text := []isa.Instruction{
		ins(isa.LW, 4, 1, 0, 0),
		ins(isa.SRLI, 5, 4, 0, 8),
		ins(isa.SLLI, 5, 5, 0, 2),
		ins(isa.ANDI, 6, 5, 0, 0xFF),
		ins(isa.OR, 6, 6, 4, 0),
		ins(isa.ADD, 6, 6, 1, 0),
		ins(isa.SW, 6, 3, 0, -8),
		ins(isa.ADDI, 7, 7, 0, 1),
		ins(isa.BLT, 0, 7, 8, -8),
		ins(isa.HALT, 0, 0, 0, 0),
	}
	blocks := analysis.NewBlockMap(text, base)

	plain := Translate(text, base, blocks)
	if plain.stats != (TranslateStats{}) {
		t.Fatalf("plain Translate has non-zero stats: %+v", plain.stats)
	}
	for i, op := range plain.fops {
		if op.code > uBAD {
			t.Fatalf("plain Translate emitted proof-guided code %d at %d", op.code, i)
		}
	}

	for _, tc := range []struct {
		name  string
		facts *TranslationFacts
	}{
		{"nil facts", nil},
		{"empty facts", &TranslationFacts{}},
	} {
		p := TranslateWithFacts(text, base, blocks, tc.facts)
		st := p.Stats()
		if st.UncheckedLoads+st.UncheckedStores+st.FoldedBranches+st.ElidedMasks+st.DeadBlocks != 0 {
			t.Fatalf("%s: elision without proof: %+v", tc.name, st)
		}
		// Op for op, the untraced body is Translate's plain body.
		if len(p.fops) != len(plain.ops) {
			t.Fatalf("%s: body has %d ops, want %d", tc.name, len(p.fops), len(plain.ops))
		}
		for i, op := range p.fops {
			if op != plain.ops[i] {
				t.Fatalf("%s: op %d = %+v, want Translate's %+v", tc.name, i, op, plain.ops[i])
			}
		}
	}
}

// TestReadBytesPageRuns covers the page-run ReadBytes across page
// boundaries and unallocated holes.
func TestReadBytesPageRuns(t *testing.T) {
	m := NewMemory()
	// Write a run straddling the first/second page boundary, leave the
	// third page unallocated, write again in the fourth.
	base := uint32(pageSize - 3)
	m.WriteBytes(base, []byte{1, 2, 3, 4, 5, 6})
	m.Write8(3*pageSize+7, 0xAB)

	got := m.ReadBytes(base, 6)
	if want := []byte{1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("boundary read = %v, want %v", got, want)
	}
	// Read a span covering written, unallocated, and written pages.
	span := m.ReadBytes(0, 4*pageSize)
	if span[base] != 1 || span[base+5] != 6 {
		t.Fatal("span lost the boundary run")
	}
	if span[2*pageSize+100] != 0 {
		t.Fatal("unallocated page not zero")
	}
	if span[3*pageSize+7] != 0xAB {
		t.Fatal("span lost the fourth-page byte")
	}
}
