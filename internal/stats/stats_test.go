package stats

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/vm"
)

// harness assembles src and wires a CPU to a collector the way a bench
// does: the CPU keeps the collector's account, and reports its events to
// the collector for the Detail and CountPCs options the caller sets.
type harness struct {
	prog  *asm.Program
	tprog *vm.Program
	cpu   *vm.CPU
	col   *Collector
}

func newHarness(t *testing.T, src string) *harness {
	t.Helper()
	p, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	layout := vm.Layout{
		TextBase: p.TextBase, TextEnd: p.TextEnd(),
		PacketBase: 0x20000000, PacketEnd: 0x20001000,
		DataBase: p.DataBase, DataEnd: p.DataBase + 1<<20,
		StackBase: 0x7FFF0000, StackEnd: 0x80000000,
	}
	mem := vm.NewMemory(layout)
	mem.WriteBytes(p.DataBase, p.Data)
	cpu := vm.New(p.Text, p.TextBase, mem)
	blocks := analysis.NewBlockMap(p.Text, p.TextBase)
	col := NewCollector(p.Text, p.TextBase, blocks, layout)
	cpu.Account, cpu.Tracer = col.Account(), col
	return &harness{prog: p, tprog: vm.Translate(p.Text, p.TextBase, blocks), cpu: cpu, col: col}
}

// runPacket simulates one framework dispatch on the interpreter.
func (h *harness) runPacket(t *testing.T) PacketRecord {
	t.Helper()
	return h.run(t, false)
}

// run simulates one framework dispatch on the interpreter or, when
// threaded, on the block-threaded engine.
func (h *harness) run(t *testing.T, threaded bool) PacketRecord {
	t.Helper()
	for r := range h.cpu.Regs {
		h.cpu.Regs[r] = 0
	}
	h.cpu.SetReg(isa.A0, h.cpu.Mem.Layout().PacketBase)
	h.cpu.SetReg(isa.SP, h.cpu.Mem.Layout().StackEnd)
	h.cpu.SetReg(isa.RA, vm.ReturnAddress)
	h.cpu.PC = h.prog.TextBase
	h.col.BeginPacket()
	var err error
	if threaded {
		_, _, err = h.cpu.RunProgram(h.tprog, 1<<20)
	} else {
		_, _, err = h.cpu.Run(1 << 20)
	}
	if err != nil {
		t.Fatal(err)
	}
	return h.col.EndPacket()
}

const countingSrc = `
	.data
state:	.word 0
	.text
entry:
	lw   t0, 0(a0)        ; packet read
	sw   t0, 4(a0)        ; packet write
	la   t1, state
	lw   t2, 0(t1)        ; data read
	add  t2, t2, t0
	sw   t2, 0(t1)        ; data write
	addi sp, sp, -4
	sw   t2, 0(sp)        ; stack write (counts as non-packet)
	lw   t2, 0(sp)        ; stack read
	addi sp, sp, 4
	ret
`

func TestCollectorCounts(t *testing.T) {
	h := newHarness(t, countingSrc)
	h.col.BlockSets = true
	rec := h.runPacket(t)
	if rec.Instructions != 12 {
		t.Errorf("Instructions = %d, want 12", rec.Instructions)
	}
	if rec.Unique != 12 {
		t.Errorf("Unique = %d, want 12 (straight-line code)", rec.Unique)
	}
	if rec.PacketReads != 1 || rec.PacketWrites != 1 {
		t.Errorf("packet accesses = %d/%d, want 1/1", rec.PacketReads, rec.PacketWrites)
	}
	if rec.NonPacketReads != 2 || rec.NonPacketWrites != 2 {
		t.Errorf("non-packet accesses = %d/%d, want 2/2", rec.NonPacketReads, rec.NonPacketWrites)
	}
	if rec.PacketAccesses() != 2 || rec.NonPacketAccesses() != 4 {
		t.Errorf("access sums wrong: %d/%d", rec.PacketAccesses(), rec.NonPacketAccesses())
	}
	if len(rec.Blocks) != 1 || rec.Blocks[0] != 0 {
		t.Errorf("Blocks = %v", rec.Blocks)
	}
	if rec.Index != 0 {
		t.Errorf("Index = %d", rec.Index)
	}
}

func TestCollectorPerPacketReset(t *testing.T) {
	h := newHarness(t, countingSrc)
	first := h.runPacket(t)
	second := h.runPacket(t)
	if second.Index != 1 {
		t.Errorf("second Index = %d", second.Index)
	}
	if first.Instructions != second.Instructions || first.Unique != second.Unique {
		t.Errorf("records differ across identical packets: %+v vs %+v", first, second)
	}
	if h.col.Packets() != 2 {
		t.Errorf("Packets() = %d", h.col.Packets())
	}
}

const loopSrc = `
	lw   t1, 0(a0)        ; loop count from the packet
	mv   t2, zero
loop:
	addi t2, t2, 1
	blt  t2, t1, loop
	ret
`

func TestCollectorUniqueVsTotal(t *testing.T) {
	h := newHarness(t, loopSrc)
	h.cpu.Mem.Write32(h.cpu.Mem.Layout().PacketBase, 10)
	rec := h.runPacket(t)
	// Total: 2 prologue + 10 iterations * 2 + ret = 23. Unique: 5.
	if rec.Instructions != 23 {
		t.Errorf("Instructions = %d, want 23", rec.Instructions)
	}
	if rec.Unique != 5 {
		t.Errorf("Unique = %d, want 5", rec.Unique)
	}
	// Unique never exceeds total; repetition factor 4.6 here.
	if analysis.RepetitionFactor(rec.Instructions, rec.Unique) != 4.6 {
		t.Errorf("repetition factor = %v", analysis.RepetitionFactor(rec.Instructions, rec.Unique))
	}
}

func TestCollectorDetailTraces(t *testing.T) {
	h := newHarness(t, countingSrc)
	h.col.Detail = true
	rec := h.runPacket(t)
	if uint64(len(h.col.InstrTrace)) != rec.Instructions {
		t.Errorf("InstrTrace has %d entries, want %d", len(h.col.InstrTrace), rec.Instructions)
	}
	if len(h.col.MemTrace) != 6 {
		t.Fatalf("MemTrace has %d events, want 6", len(h.col.MemTrace))
	}
	// Event regions in program order.
	wantRegions := []vm.Region{vm.RegionPacket, vm.RegionPacket,
		vm.RegionData, vm.RegionData, vm.RegionStack, vm.RegionStack}
	wantWrites := []bool{false, true, false, true, true, false}
	for i, ev := range h.col.MemTrace {
		if ev.Region != wantRegions[i] || ev.Write != wantWrites[i] {
			t.Errorf("event %d = %+v, want region %v write %v", i, ev, wantRegions[i], wantWrites[i])
		}
		if ev.InstrNum >= rec.Instructions {
			t.Errorf("event %d InstrNum %d out of range", i, ev.InstrNum)
		}
	}
	// BlockSeq for straight-line code is a single block.
	if len(h.col.BlockSeq) != 1 {
		t.Errorf("BlockSeq = %v", h.col.BlockSeq)
	}
	// Detail buffers reset per packet.
	h.runPacket(t)
	if uint64(len(h.col.InstrTrace)) != rec.Instructions {
		t.Errorf("detail trace grew across packets: %d", len(h.col.InstrTrace))
	}
}

func TestCollectorBlockSeqLoops(t *testing.T) {
	h := newHarness(t, loopSrc)
	h.col.Detail = true
	h.cpu.Mem.Write32(h.cpu.Mem.Layout().PacketBase, 3)
	h.runPacket(t)
	// Blocks: b0 = prologue, b1 = loop body, b2 = ret. Sequence should
	// enter b1 three times: b0 b1 b1 b1 b2.
	want := []int{0, 1, 1, 1, 2}
	if len(h.col.BlockSeq) != len(want) {
		t.Fatalf("BlockSeq = %v, want %v", h.col.BlockSeq, want)
	}
	for i := range want {
		if h.col.BlockSeq[i] != want[i] {
			t.Fatalf("BlockSeq = %v, want %v", h.col.BlockSeq, want)
		}
	}
}

func TestCollectorCoverage(t *testing.T) {
	h := newHarness(t, countingSrc)
	h.col.Coverage = true
	h.runPacket(t)
	h.runPacket(t)
	// 12 instructions * 4 bytes.
	if got := h.col.InstrMemSize(); got != 12*4 {
		t.Errorf("InstrMemSize = %d, want 48", got)
	}
	// Non-packet data: state word (4) + stack slot (4).
	if got := h.col.DataMemSize(); got != 8 {
		t.Errorf("DataMemSize = %d, want 8", got)
	}
	// Packet: two words.
	if got := h.col.PacketMemSize(); got != 8 {
		t.Errorf("PacketMemSize = %d, want 8", got)
	}
}

func TestCollectorRecordIndexes(t *testing.T) {
	h := newHarness(t, countingSrc)
	for i := 0; i < 3; i++ {
		if r := h.runPacket(t); r.Index != i {
			t.Errorf("record %d has index %d", i, r.Index)
		}
	}
}

// skipSrc branches over one block when the packet's first word is zero.
const skipSrc = `
	lw   t0, 0(a0)
	beq  t0, zero, skip
	addi t1, t1, 1
skip:
	ret
`

// TestCollectorBlocksSlab pins how records share the collector's block
// slab: each set is capped so a caller's append cannot reach the next
// record's, and a packet that ran no block gets nil.
func TestCollectorBlocksSlab(t *testing.T) {
	h := newHarness(t, skipSrc)
	h.col.BlockSets = true
	h.cpu.Mem.Write32(h.cpu.Mem.Layout().PacketBase, 1)
	a := h.run(t, true)
	b := h.run(t, true)
	if len(a.Blocks) != 3 || cap(a.Blocks) != len(a.Blocks) {
		t.Fatalf("Blocks = %v with cap %d, want 3 blocks, capped", a.Blocks, cap(a.Blocks))
	}
	want := append([]int(nil), b.Blocks...)
	_ = append(a.Blocks, 99)
	if !reflect.DeepEqual(b.Blocks, want) {
		t.Errorf("append to one record's Blocks changed the next: %v, want %v", b.Blocks, want)
	}
	h.col.BeginPacket()
	if rec := h.col.EndPacket(); rec.Blocks != nil {
		t.Errorf("no block ran: Blocks = %#v, want nil", rec.Blocks)
	}
}

func TestSummarize(t *testing.T) {
	recs := []PacketRecord{
		{Instructions: 100, Unique: 50, PacketReads: 10, NonPacketWrites: 20},
		{Instructions: 200, Unique: 70, PacketWrites: 6, NonPacketReads: 4},
	}
	s := Summarize(recs)
	if s.Packets != 2 || s.TotalInstructions != 300 {
		t.Errorf("summary = %+v", s)
	}
	if s.MeanInstructions != 150 || s.MeanUnique != 60 {
		t.Errorf("means = %v/%v", s.MeanInstructions, s.MeanUnique)
	}
	if s.MeanPacketAcc != 8 || s.MeanNonPacketAcc != 12 {
		t.Errorf("mem means = %v/%v", s.MeanPacketAcc, s.MeanNonPacketAcc)
	}
	empty := Summarize(nil)
	if empty.Packets != 0 || empty.MeanInstructions != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestExtractors(t *testing.T) {
	recs := []PacketRecord{
		{Instructions: 10, Unique: 5, Blocks: []int{0, 1}},
		{Instructions: 20, Unique: 7, Blocks: []int{0}},
	}
	ic := InstructionCounts(recs)
	if len(ic) != 2 || ic[0] != 10 || ic[1] != 20 {
		t.Errorf("InstructionCounts = %v", ic)
	}
	bs := BlockSets(recs)
	if len(bs) != 2 || len(bs[0]) != 2 || len(bs[1]) != 1 {
		t.Errorf("BlockSets = %v", bs)
	}
}

func TestPCCounts(t *testing.T) {
	h := newHarness(t, loopSrc)
	h.col.CountPCs = true
	h.cpu.Mem.Write32(h.cpu.Mem.Layout().PacketBase, 5)
	h.runPacket(t)
	h.runPacket(t)
	if h.col.PCCounts == nil {
		t.Fatal("PCCounts not allocated")
	}
	// Instruction 0 (lw) executes once per packet; the loop body (index
	// 2, 3) executes 5 times per packet.
	if h.col.PCCounts[0] != 2 {
		t.Errorf("PCCounts[0] = %d, want 2", h.col.PCCounts[0])
	}
	if h.col.PCCounts[2] != 10 {
		t.Errorf("PCCounts[2] = %d, want 10", h.col.PCCounts[2])
	}
	var total uint64
	for _, c := range h.col.PCCounts {
		total += c
	}
	// Per packet: 2 prologue + 5 iterations * 2 + ret = 13.
	if total != 2*13 {
		t.Errorf("PCCounts sum to %d, want 26", total)
	}
}

func TestRunningMatchesSummarize(t *testing.T) {
	records := []PacketRecord{
		{Index: 0, Instructions: 100, Unique: 40, PacketReads: 5, PacketWrites: 1, NonPacketReads: 20, NonPacketWrites: 3},
		{Index: 1, Instructions: 250, Unique: 60, PacketReads: 8, NonPacketReads: 31},
		{Index: 2, Instructions: 100, Unique: 40, PacketWrites: 2, NonPacketWrites: 7},
	}
	agg := &Running{KeepInstructionCounts: true}
	for i := range records {
		agg.Add(&records[i])
	}
	if got, want := agg.Summary(), Summarize(records); !reflect.DeepEqual(got, want) {
		t.Errorf("Running.Summary() = %+v, want %+v", got, want)
	}
	if agg.Packets() != 3 {
		t.Errorf("Packets() = %d", agg.Packets())
	}
	counts := agg.InstructionCounts()
	want := InstructionCounts(records)
	if len(counts) != len(want) {
		t.Fatalf("kept %d counts", len(counts))
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("count %d = %d, want %d", i, counts[i], want[i])
		}
	}
	if got, want := agg.InstructionHistogram(), map[uint64]int{100: 2, 250: 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("InstructionHistogram() = %v, want %v", got, want)
	}
}

// TestRunningStateRoundTrip: serializing an aggregate through its
// checkpoint snapshot (including a JSON cycle, as a real checkpoint
// does) and restoring into a fresh Running preserves every figure.
func TestRunningStateRoundTrip(t *testing.T) {
	agg := &Running{KeepInstructionCounts: true}
	records := []PacketRecord{
		{Index: 0, Instructions: 100, Unique: 40, PacketReads: 5, NonPacketReads: 20},
		{Index: 1, Fault: vm.FaultUnmapped},
		{Index: 2, Instructions: 250, Unique: 60, PacketWrites: 8, NonPacketWrites: 31},
	}
	for i := range records {
		agg.Add(&records[i])
		if !records[i].Faulted() {
			agg.AddVerdict(uint32(9 - i))
		}
	}
	agg.AddShed(2)

	raw, err := json.Marshal(agg.State())
	if err != nil {
		t.Fatal(err)
	}
	var st RunningState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	restored := &Running{KeepInstructionCounts: true}
	restored.SetState(st)
	if got, want := restored.Summary(), agg.Summary(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored Summary = %+v, want %+v", got, want)
	}
	if got, want := restored.Verdicts(), agg.Verdicts(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored Verdicts = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(restored.InstructionCounts(), agg.InstructionCounts()) {
		t.Errorf("restored counts = %v, want %v", restored.InstructionCounts(), agg.InstructionCounts())
	}
	if !reflect.DeepEqual(restored.InstructionHistogram(), agg.InstructionHistogram()) {
		t.Errorf("restored histogram = %v, want %v", restored.InstructionHistogram(), agg.InstructionHistogram())
	}
	// Restored aggregates must keep accumulating, not just report.
	restored.Add(&records[0])
	restored.AddVerdict(9)
	if restored.Packets() != 4 || restored.Verdicts()[9] != 2 {
		t.Errorf("restored aggregate does not continue: %d packets, verdicts %v",
			restored.Packets(), restored.Verdicts())
	}
}

func TestRunningEmpty(t *testing.T) {
	var agg Running
	if got := agg.Summary(); !reflect.DeepEqual(got, Summary{}) {
		t.Errorf("empty Running summary = %+v", got)
	}
	if agg.InstructionCounts() != nil {
		t.Error("counts kept without KeepInstructionCounts")
	}
}

func TestFaultedRecordsExcludedFromMeans(t *testing.T) {
	clean := []PacketRecord{
		{Index: 0, Instructions: 100, Unique: 40, PacketReads: 5, NonPacketReads: 20},
		{Index: 2, Instructions: 300, Unique: 50, PacketWrites: 3, NonPacketWrites: 9},
	}
	mixed := []PacketRecord{
		clean[0],
		{Index: 1, Fault: vm.FaultUnmapped},
		clean[1],
		{Index: 3, Fault: vm.FaultUnmapped},
		{Index: 4, Fault: vm.FaultStepLimit},
	}
	got := Summarize(mixed)
	if got.Packets != 5 || got.Faulted != 3 || got.Measured() != 2 {
		t.Fatalf("Packets/Faulted/Measured = %d/%d/%d, want 5/3/2", got.Packets, got.Faulted, got.Measured())
	}
	if got.FaultCounts[vm.FaultUnmapped] != 2 || got.FaultCounts[vm.FaultStepLimit] != 1 {
		t.Errorf("FaultCounts = %v", got.FaultCounts)
	}
	ref := Summarize(clean)
	if got.MeanInstructions != ref.MeanInstructions || got.MeanUnique != ref.MeanUnique ||
		got.MeanPacketAcc != ref.MeanPacketAcc || got.MeanNonPacketAcc != ref.MeanNonPacketAcc ||
		got.TotalInstructions != ref.TotalInstructions {
		t.Errorf("means over mixed records = %+v, want the clean-run values %+v", got, ref)
	}

	// Running agrees, and faulted records do not pollute kept counts.
	agg := &Running{KeepInstructionCounts: true}
	for i := range mixed {
		agg.Add(&mixed[i])
	}
	if !reflect.DeepEqual(agg.Summary(), got) {
		t.Errorf("Running.Summary() = %+v, want %+v", agg.Summary(), got)
	}
	if agg.Faulted() != 3 {
		t.Errorf("Faulted() = %d, want 3", agg.Faulted())
	}
	if counts := agg.InstructionCounts(); len(counts) != 2 {
		t.Errorf("kept %d instruction counts, want 2 (measured only)", len(counts))
	}

	// The distribution extractors agree: quarantined records would show
	// up as spurious zero-count packets in the occurrence tables.
	if c := InstructionCounts(mixed); !reflect.DeepEqual(c, InstructionCounts(clean)) {
		t.Errorf("InstructionCounts over mixed records = %v", c)
	}
	if b := BlockSets(mixed); len(b) != 2 {
		t.Errorf("BlockSets kept %d sets, want 2", len(b))
	}
}

func TestAbortPacket(t *testing.T) {
	h := newHarness(t, countingSrc)
	h.runPacket(t)
	h.col.BeginPacket()
	rec := h.col.AbortPacket(vm.FaultUnmapped)
	if rec.Index != 1 || rec.Fault != vm.FaultUnmapped || !rec.Faulted() {
		t.Errorf("abort record = %+v", rec)
	}
	if rec.Instructions != 0 || rec.Unique != 0 || len(rec.Blocks) != 0 {
		t.Errorf("abort record carries partial counts: %+v", rec)
	}
	if h.col.Packets() != 2 {
		t.Errorf("Packets() = %d, want 2 (quarantine keeps the slot)", h.col.Packets())
	}
	next := h.runPacket(t)
	if next.Index != 2 {
		t.Fatalf("record after abort: %+v", next)
	}
	if next.Faulted() {
		t.Error("packet after an abort inherited the fault mark")
	}
}

func TestRunningFaultCounts(t *testing.T) {
	var agg Running
	agg.Add(&PacketRecord{Instructions: 100})
	agg.Add(&PacketRecord{Fault: vm.FaultUnmapped})
	agg.Add(&PacketRecord{Fault: vm.FaultUnmapped})
	agg.Add(&PacketRecord{Fault: vm.FaultStepLimit})

	fc := agg.FaultCounts()
	if fc[vm.FaultUnmapped] != 2 || fc[vm.FaultStepLimit] != 1 || len(fc) != 2 {
		t.Fatalf("FaultCounts = %v", fc)
	}
	// The returned map is a copy: mutating it must not corrupt the
	// aggregate, and later Adds must not show through it.
	fc[vm.FaultUnmapped] = 99
	agg.Add(&PacketRecord{Fault: vm.FaultBadFetch})
	if got := agg.FaultCounts(); got[vm.FaultUnmapped] != 2 || got[vm.FaultBadFetch] != 1 {
		t.Errorf("FaultCounts after mutation/Add = %v", got)
	}
	if s := agg.Summary(); s.FaultCounts[vm.FaultUnmapped] != 2 {
		t.Errorf("Summary fault counts corrupted: %v", s.FaultCounts)
	}

	var clean Running
	clean.Add(&PacketRecord{Instructions: 1})
	if clean.FaultCounts() != nil {
		t.Errorf("FaultCounts with no faults = %v, want nil", clean.FaultCounts())
	}
}
