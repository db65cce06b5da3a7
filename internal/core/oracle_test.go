package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/microarch"
	"repro/internal/packet"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
)

// The oracle matrix pins the engine-equivalence contract: every faster
// execution path matches the reference interpreter (CPU.Run) on every
// observable. Each row is an input — a program run bare on a vm.CPU, or
// a bundled application run on a core.Bench over a generated trace. Each
// column (a cell) combines
//
//   - body: the interpreter, or the threaded engine (RunProgram);
//   - step budget: the row's full budget and, for programs, every budget
//     k from 0 to min(steps, 64), alone and split: run to k, then resume
//     from the stopped pc under the rest of the full budget, capped at
//     splitCap steps;
//   - observer: none; a stats.Collector with Detail, Coverage, CountPCs
//     and BlockSets on; the collector as the CLI runs it, with Coverage
//     on and Detail, CountPCs and BlockSets off, so the core keeps its
//     account with no tracer attached and its records carry no block
//     sets ("accounting"); the Detail collector plus a
//     microarch.Profiler with small caches; or the Detail collector plus
//     an extra observer (an event recorder for programs; for
//     applications a faultinject plan with vmfault, panic and delay
//     entries, or, on the observer-panic rows, a tracer that panics).
//
// Every collector column wires the collector the way a Bench does: the
// core keeps the collector's vm.Account, and has the collector as its
// tracer only while Detail or CountPCs is on. The interpreter reports
// one-instruction passes and the threaded engine block passes. The
// records, coverage sizes, PCCounts, Detail traces (InstrTrace, MemTrace
// with InstrNum, BlockSeq), recorded events and profiler state derived
// from either must match bit for bit.
// runCell executes a cell and diff compares it with the interpreter's
// run of the same row, budget and observer; a split cell is compared
// with the interpreter's unsplit run under the same budget. checkRow
// runs every cell of a row, one subtest per observer. TestOracle
// (programs), TestEngineEquivalenceApps (bundled applications),
// TestEngineEquivalenceFaults (NoVerify fault programs) and FuzzOracle
// all drive rows through checkRow.

type observer int

const (
	obsNone       observer = iota // no tracer
	obsCollector                  // the statistics collector in Detail mode
	obsExtra                      // the Detail collector plus an extra observer
	obsAccounting                 // the collector with Coverage only: no tracer
	obsMicroarch                  // the Detail collector plus a microarch.Profiler
)

var observers = []observer{obsNone, obsCollector, obsExtra, obsAccounting, obsMicroarch}

func (o observer) String() string {
	return [...]string{"none", "collector", "collector+extra", "accounting", "microarch"}[o]
}

// cell is one column. A split cell runs to splitAt steps, then resumes
// under the rest of budget.
type cell struct {
	threaded bool
	budget   uint64
	split    bool
	splitAt  uint64
	obs      observer
}

func (c cell) String() string {
	body, split := "interp", ""
	if c.threaded {
		body = "threaded"
	}
	if c.split {
		split = fmt.Sprintf(" split=%d", c.splitAt)
	}
	return fmt.Sprintf("%s budget=%d%s observer=%s", body, c.budget, split, c.obs)
}

// row is one input. Program rows set text; application rows set app.
type row struct {
	name string

	text   []isa.Instruction
	base   uint32
	layout vm.Layout
	data   []byte // initial bytes at layout.DataBase
	regs   [isa.NumRegs]uint32
	entry  uint32
	budget uint64
	// check, when set, independently checks the interpreter's full
	// unobserved run.
	check func(o *outcome) error

	app      func() *core.App
	noVerify bool // the verifier rejects the app, so NoVerify stays on
	pkts     []*trace.Packet
	// panics makes the extra observer a panicTracer instead of the
	// faultinject plan.
	panics bool

	blocks *analysis.BlockMap
	prog   *vm.Program // the threaded translation of text
}

// outcome is everything one cell's run exposes.
type outcome struct {
	Regs     [isa.NumRegs]uint32
	PC       uint32
	Steps    uint64 // CPU lifetime steps
	Ret      uint64 // steps returned by the run
	Reason   vm.StopReason
	Fault    *vm.Fault
	High     uint32 // packet-write watermark
	Extents  [3]int // grown packet, data and stack bytes
	Events   []event
	Packets  []packetOutcome
	Coverage [3]int // instruction, data and packet footprints
	PCCounts []uint64
	Profile  profile
	Panics   []panicAt // a panicTracer's panics, in order
	mem      *vm.Memory
	blocks   *analysis.BlockMap // an observer-panic row's blocks
}

// profile is a microarch.Profiler's state after Flush.
type profile struct {
	Mix microarch.Mix
	// Branches is a pointer so that firstDiff compares it whole with
	// reflect.DeepEqual, which reaches the predictor's counters that
	// BranchStats keeps unexported.
	Branches *microarch.BranchStats
	Caches   [4]uint64 // I-cache accesses and misses, D-cache accesses and misses
	Cycles   uint64
}

// newProfiler builds the microarch column's profiler. Its caches are
// tiny so that every row misses often.
func newProfiler(t *testing.T) *microarch.Profiler {
	ic, err := microarch.NewCache(64, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := microarch.NewCache(128, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	return microarch.NewProfiler(ic, dc)
}

// profileOf flushes p and copies its state.
func profileOf(p *microarch.Profiler) profile {
	p.Flush()
	branches := p.Branches
	return profile{Mix: p.Mix, Branches: &branches,
		Caches: [4]uint64{p.ICache.Accesses, p.ICache.Misses, p.DCache.Accesses, p.DCache.Misses},
		Cycles: p.Cycles}
}

type packetOutcome struct {
	Verdict    uint32
	Fault      *vm.Fault
	Bytes      []byte
	Record     stats.PacketRecord
	BlockSeq   []int
	InstrTrace []uint32
	MemTrace   []stats.MemEvent
}

type event struct {
	PC, Addr uint32
	In       isa.Instruction
	Size     uint8
	Write    bool
	Region   vm.Region
}

// eventTracer is the extra observer of program rows: it records every
// event, expanding each pass into one entry per instruction followed by
// that instruction's data access, if any. A pass is straight-line, so
// each pc occurs in it once and its pending accesses sort by pc.
type eventTracer struct {
	text    []isa.Instruction
	base    uint32
	pending []event // the Mem events of the coming pass
	events  []event
}

func (e *eventTracer) Pass(first, last int) {
	for i := first; i <= last; i++ {
		pc := e.base + uint32(i)*isa.WordSize
		e.events = append(e.events, event{PC: pc, In: e.text[i]})
		for _, m := range e.pending {
			if m.PC == pc {
				e.events = append(e.events, m)
			}
		}
	}
	e.pending = e.pending[:0]
}

func (e *eventTracer) Mem(pc, addr uint32, size uint8, write bool, region vm.Region) {
	e.pending = append(e.pending, event{PC: pc, Addr: addr, Size: size, Write: write, Region: region})
}

// extraPlan is the extra observer of application rows.
const extraPlan = "delay@0:1,panic@1:0,vmfault@4:9,panic@7"

// panicTracer is the extra observer of the observer-panic rows. Counting
// over the whole run, it panics at every panicPassEvery-th pass that
// ends at its block's last instruction, which both bodies report (the
// interpreter as a one-instruction pass), and at every panicMemEvery-th
// data access. The FaultHostPanic that quarantines the packet must name
// the pc the interpreter holds: the pc after the pass, and the accessing
// instruction's pc.
type panicTracer struct {
	blocks       *analysis.BlockMap
	passes, mems int
	panics       []panicAt
}

// panicAt is one panic of a panicTracer: at a pass, or at the access
// made by the instruction at PC.
type panicAt struct {
	Mem bool
	PC  uint32
}

const panicPassEvery, panicMemEvery = 251, 397

func (p *panicTracer) Pass(first, last int) {
	if last+1 != p.blocks.EndIndex(p.blocks.BlockOfIndex(last)) {
		return
	}
	if p.passes++; p.passes%panicPassEvery == 0 {
		p.panics = append(p.panics, panicAt{})
		panic("observer panics at a pass")
	}
}

func (p *panicTracer) Mem(pc, addr uint32, size uint8, write bool, region vm.Region) {
	if p.mems++; p.mems%panicMemEvery == 0 {
		p.panics = append(p.panics, panicAt{Mem: true, PC: pc})
		panic("observer panics at an access")
	}
}

// runCell executes one cell of a row.
func runCell(t *testing.T, r *row, c cell) *outcome {
	t.Helper()
	if r.app != nil {
		return runApp(t, r, c)
	}
	mem := vm.NewMemory(r.layout)
	mem.WriteBytes(r.layout.DataBase, r.data)
	cpu := vm.New(r.text, r.base, mem)
	cpu.Regs = r.regs
	cpu.PC = r.entry
	o := &outcome{mem: mem}
	var col *stats.Collector
	var ev *eventTracer
	var prof *microarch.Profiler
	if c.obs != obsNone {
		// Wired the way a Bench wires its core.
		col = observedCollector(stats.NewCollector(r.text, r.base, r.blocks, r.layout), c.obs)
		cpu.Account = col.Account()
		if col.Detail || col.CountPCs {
			cpu.Tracer = col
		}
		switch c.obs {
		case obsExtra:
			ev = &eventTracer{text: r.text, base: r.base}
			cpu.Tracer = vm.MultiTracer{col, ev}
		case obsMicroarch:
			prof = newProfiler(t)
			prof.BindProgram(r.text, r.base)
			cpu.Tracer = vm.MultiTracer{col, prof}
		}
		col.BeginPacket()
	}
	run := func(budget uint64) (uint64, vm.StopReason, error) {
		if c.threaded {
			return cpu.RunProgram(r.prog, budget)
		}
		return cpu.Run(budget)
	}
	first := c.budget
	if c.split {
		first = c.splitAt
	}
	var err error
	o.Ret, o.Reason, err = run(first)
	if c.split && errors.Is(err, vm.FaultStepLimit) {
		var n uint64
		n, o.Reason, err = run(c.budget - o.Ret)
		o.Ret += n
	}
	if err != nil && !errors.As(err, &o.Fault) {
		t.Fatalf("%v: non-Fault error: %v", c, err)
	}
	if cpu.Regs[isa.Zero] != 0 {
		t.Fatalf("%v: zero register clobbered: %#x", c, cpu.Regs[isa.Zero])
	}
	o.Regs, o.PC, o.Steps, o.High = cpu.Regs, cpu.PC, cpu.Steps(), cpu.PacketWriteHigh()
	o.Extents = extents(mem)
	if col != nil {
		po := packetOutcome{Record: col.EndPacket()}
		traces(col, &po)
		o.Packets = []packetOutcome{po}
		o.collect(col)
	}
	if ev != nil {
		o.Events = append(ev.events, ev.pending...)
	}
	if prof != nil {
		o.Profile = profileOf(prof)
	}
	return o
}

// runApp executes an application row's packets on a fresh bench.
func runApp(t *testing.T, r *row, c cell) *outcome {
	t.Helper()
	opts := core.Options{Engine: core.EngineInterpreter, StepLimit: c.budget, NoVerify: r.noVerify}
	if c.threaded {
		opts.Engine = core.EngineThreaded
	}
	b, err := core.New(r.app(), opts)
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	col := observedCollector(b.Collector(), c.obs)
	var prof *microarch.Profiler
	var pt *panicTracer
	switch c.obs {
	case obsNone:
		b.SetTracing(false)
	case obsExtra:
		if r.panics {
			// A panic inside a block pass finds the interpreter past
			// the pass's earlier instructions and the threaded engine
			// not yet reporting them, so Detail traces, PCCounts and
			// instruction coverage legitimately differ there. This
			// column reads the records and the fault state only.
			col.Detail, col.Coverage, col.CountPCs = false, false, false
			pt = &panicTracer{blocks: b.BlockMap()}
			b.AddTracer(pt)
			break
		}
		plan, err := faultinject.ParsePlan(extraPlan)
		if err != nil {
			t.Fatal(err)
		}
		b.SetInjector(faultinject.New(1, plan))
	case obsMicroarch:
		prof = newProfiler(t)
		b.AddTracer(prof) // the bench binds it to the program
	}
	o := &outcome{mem: b.Memory()}
	for i, p := range r.pkts {
		res, err := b.ProcessPacketAt(i, p)
		po := packetOutcome{Verdict: res.Verdict, Record: res.Record, Bytes: b.PacketBytes(len(p.Data))}
		if err != nil && !errors.As(err, &po.Fault) {
			t.Fatalf("%v: packet %d: non-Fault error: %v", c, i, err)
		}
		if c.obs == obsAccounting && b.CoreTracer() != nil {
			t.Fatalf("%v: packet %d ran with tracer %T, want none", c, i, b.CoreTracer())
		}
		traces(col, &po)
		o.Packets = append(o.Packets, po)
	}
	o.collect(col)
	o.Extents = extents(b.Memory())
	if prof != nil {
		o.Profile = profileOf(prof)
	}
	if pt != nil {
		o.Panics, o.blocks = pt.panics, b.BlockMap()
	}
	return o
}

// checkInjected checks that extraPlan fired where it says, against the
// collector column's run of the same packets. An injection at count k
// fires after exactly k instructions, at the pc of the next instruction,
// which does not execute: a host panic before packet 1's first
// instruction and an injected vmfault before packet 4's tenth. Packet
// 7's panic fires after a seeded count, unless the packet is shorter.
// Packet 0's delay stops the packet and resumes it, so its record and
// Detail traces are the collector column's.
func checkInjected(t *testing.T, c cell, pkts, clean []packetOutcome) {
	t.Helper()
	for _, want := range []struct {
		pkt      int
		kind     vm.FaultKind
		instrs   int
		optional bool // the fault may not fire; instrs is then ignored
	}{{1, vm.FaultHostPanic, 0, false}, {4, vm.FaultBadInstr, 9, false}, {7, vm.FaultHostPanic, 0, true}} {
		po, ref := pkts[want.pkt], clean[want.pkt].InstrTrace
		n := len(po.InstrTrace)
		if want.optional && po.Fault == nil {
			continue
		}
		if po.Fault == nil || po.Fault.Kind != want.kind || n >= len(ref) || po.Fault.PC != ref[n] ||
			!slices.Equal(po.InstrTrace, ref[:n]) || (!want.optional && n != want.instrs) {
			t.Fatalf("%v: packet %d: fault %+v after %d instructions, want %v", c, want.pkt, po.Fault, n, want.kind)
		}
	}
	if err := firstDiff("delayed packet", reflect.ValueOf(clean[0]), reflect.ValueOf(pkts[0])); err != nil {
		t.Fatalf("%v: %v", c, err)
	}
}

// checkPanics checks a panicTracer's run: each panic quarantines one
// packet with a FaultHostPanic, at the accessing instruction for an
// access, and for a pass at the next block's leader or the return
// address. Both kinds must fire.
func checkPanics(t *testing.T, c cell, o *outcome) {
	t.Helper()
	blocks := o.blocks
	var faulted, mems int
	for i, po := range o.Packets {
		if po.Fault == nil {
			continue
		}
		if faulted >= len(o.Panics) {
			t.Fatalf("%v: packet %d faulted (%+v) with no panic left to explain it", c, i, po.Fault)
		}
		p, pc := o.Panics[faulted], po.Fault.PC
		faulted++
		if po.Fault.Kind != vm.FaultHostPanic || p.Mem && pc != p.PC ||
			!p.Mem && pc != vm.ReturnAddress && blocks.Leader(max(blocks.BlockOf(pc), 0)) != pc {
			t.Fatalf("%v: packet %d: fault %+v for panic %+v", c, i, po.Fault, p)
		}
		if p.Mem {
			mems++
		}
	}
	if faulted != len(o.Panics) || mems == 0 || mems == faulted {
		t.Fatalf("%v: %d quarantined packets for %d panics, %d at accesses; want both kinds", c, faulted, len(o.Panics), mems)
	}
}

// observedCollector turns on every collector output the matrix reads,
// except in the accounting column, which runs the CLI's default: Coverage
// on, Detail, CountPCs and BlockSets off.
func observedCollector(col *stats.Collector, obs observer) *stats.Collector {
	detail := obs != obsAccounting
	col.Detail, col.Coverage, col.CountPCs, col.BlockSets = detail, true, detail, detail
	return col
}

// traces copies the collector's traces of the current packet into po.
func traces(col *stats.Collector, po *packetOutcome) {
	po.BlockSeq = append([]int(nil), col.BlockSeq...)
	po.InstrTrace = append([]uint32(nil), col.InstrTrace...)
	po.MemTrace = append([]stats.MemEvent(nil), col.MemTrace...)
}

// extents returns how many bytes mem holds for each data region.
func extents(mem *vm.Memory) [3]int {
	return [3]int{mem.Extent(vm.RegionPacket), mem.Extent(vm.RegionData), mem.Extent(vm.RegionStack)}
}

// collect copies the collector's whole-run state into o.
func (o *outcome) collect(col *stats.Collector) {
	o.Coverage = [3]int{col.InstrMemSize(), col.DataMemSize(), col.PacketMemSize()}
	o.PCCounts = append([]uint64(nil), col.PCCounts...)
}

// diff reports the first observable on which got differs from want. It
// compares the typed values first and walks the fields by reflection
// only to name the observable that differs.
func diff(want, got *outcome) error {
	if !want.mem.Equal(got.mem) {
		return errors.New("memory images differ")
	}
	if sameOutcome(want, got) {
		return nil
	}
	if err := firstDiff("", reflect.ValueOf(*want), reflect.ValueOf(*got)); err != nil {
		return err
	}
	return errors.New("outcomes differ, but firstDiff names no observable")
}

// sameOutcome reports whether firstDiff finds the exported fields of two
// outcomes equal, spelled out with == and slices.Equal
// (TestDiffSeesEveryField keeps it covering every field). As in
// firstDiff, slices of structs compare element by element, and other
// slices as reflect.DeepEqual compares them, a nil one differing from
// an empty one.
func sameOutcome(w, g *outcome) bool {
	return w.Regs == g.Regs && w.PC == g.PC && w.Steps == g.Steps && w.Ret == g.Ret &&
		w.Reason == g.Reason && samePtr(w.Fault, g.Fault) && w.High == g.High &&
		w.Extents == g.Extents && slices.Equal(w.Events, g.Events) &&
		slices.EqualFunc(w.Packets, g.Packets, samePacket) &&
		w.Coverage == g.Coverage && sameSlice(w.PCCounts, g.PCCounts) &&
		w.Profile.Mix == g.Profile.Mix && w.Profile.Caches == g.Profile.Caches &&
		w.Profile.Cycles == g.Profile.Cycles &&
		// BranchStats keeps its predictor's counters unexported.
		reflect.DeepEqual(w.Profile.Branches, g.Profile.Branches) &&
		slices.Equal(w.Panics, g.Panics)
}

func samePacket(w, g packetOutcome) bool {
	wr, gr := &w.Record, &g.Record
	return w.Verdict == g.Verdict && samePtr(w.Fault, g.Fault) && sameSlice(w.Bytes, g.Bytes) &&
		wr.Index == gr.Index && wr.Instructions == gr.Instructions && wr.Unique == gr.Unique &&
		wr.PacketReads == gr.PacketReads && wr.PacketWrites == gr.PacketWrites &&
		wr.NonPacketReads == gr.NonPacketReads && wr.NonPacketWrites == gr.NonPacketWrites &&
		sameSlice(wr.Blocks, gr.Blocks) && wr.Fault == gr.Fault &&
		sameSlice(w.BlockSeq, g.BlockSeq) && sameSlice(w.InstrTrace, g.InstrTrace) &&
		slices.Equal(w.MemTrace, g.MemTrace)
}

// sameSlice is slices.Equal, except that, as for reflect.DeepEqual, a
// nil slice differs from an empty one.
func sameSlice[S ~[]E, E comparable](a, b S) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// samePtr compares the targets of a and b; nil equals only nil.
func samePtr[T comparable](a, b *T) bool {
	return a == b || a != nil && b != nil && *a == *b
}

// TestDiffSeesEveryField changes one exported field of an otherwise
// equal outcome at a time, reaching into the first element of each
// slice and the target of each pointer: sameOutcome must see every
// change, and firstDiff must name the field or a field holding it. A
// field added to an outcome is covered without editing the test.
func TestDiffSeesEveryField(t *testing.T) {
	r := appRows(t)[0]
	c := cell{budget: r.budget, obs: obsMicroarch}
	want := runCell(t, r, c)
	if err := diff(want, runCell(t, r, c)); err != nil {
		t.Fatalf("two runs of one cell: %v", err)
	}
	var changed []string
	eachLeaf(reflect.ValueOf(want).Elem(), nil, "", func(at []int, name string) {
		changed = append(changed, name)
		got := runCell(t, r, c)
		v := reflect.ValueOf(got).Elem()
		for _, i := range at {
			switch {
			case i >= 0:
				v = v.Field(i)
			case v.Kind() == reflect.Pointer:
				v = v.Elem()
			default:
				v = v.Index(0)
			}
		}
		switch v.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Slice:
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
		default:
			t.Fatalf("%s: cannot change a %v", name, v.Kind())
		}
		err := diff(want, got)
		if err == nil {
			t.Errorf("changed %s: diff sees no difference", name)
			return
		}
		if path, _, ok := strings.Cut(err.Error(), " differs"); !ok || path == "" || !strings.HasPrefix(name, path) {
			t.Errorf("changed %s: diff = %v", name, err)
		}
	})
	// The cell's outcome reaches the packets' records and traces and
	// the profiler's state.
	for _, name := range []string{".Packets[0].Record.Instructions", ".Packets[0].MemTrace[0].Addr", ".Profile.Branches.Taken"} {
		if !slices.Contains(changed, name) {
			t.Errorf("%s was not changed; changed %v", name, changed)
		}
	}
}

// eachLeaf calls visit with the path to each exported scalar, empty
// slice and nil pointer inside v, descending into struct fields, the
// first element of arrays and slices, and pointer targets. A path step
// is a field index, or -1 for an element or a pointer target.
func eachLeaf(v reflect.Value, at []int, name string, visit func(at []int, name string)) {
	at = at[:len(at):len(at)]
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			if f := v.Type().Field(i); f.IsExported() {
				eachLeaf(v.Field(i), append(at, i), name+"."+f.Name, visit)
			}
		}
	case reflect.Array, reflect.Slice:
		if v.Len() > 0 {
			eachLeaf(v.Index(0), append(at, -1), name+"[0]", visit)
			return
		}
		visit(at, name)
	case reflect.Pointer:
		if !v.IsNil() {
			eachLeaf(v.Elem(), append(at, -1), name, visit)
			return
		}
		visit(at, name)
	default:
		visit(at, name)
	}
}

func firstDiff(path string, w, g reflect.Value) error {
	switch {
	case w.Kind() != reflect.Struct && reflect.DeepEqual(w.Interface(), g.Interface()):
		return nil
	case w.Kind() == reflect.Struct:
		for i := 0; i < w.NumField(); i++ {
			if f := w.Type().Field(i); f.IsExported() {
				if err := firstDiff(path+"."+f.Name, w.Field(i), g.Field(i)); err != nil {
					return err
				}
			}
		}
		return nil
	case w.Kind() == reflect.Slice && w.Type().Elem().Kind() == reflect.Struct && w.Len() == g.Len():
		for i := 0; i < w.Len(); i++ {
			if err := firstDiff(fmt.Sprintf("%s[%d]", path, i), w.Index(i), g.Index(i)); err != nil {
				return err
			}
		}
		return nil
	}
	clip := func(v reflect.Value) string {
		s := fmt.Sprintf("%+v", v.Interface())
		if v.Kind() == reflect.Pointer && !v.IsNil() {
			s = fmt.Sprintf("%+v", v.Elem().Interface())
		}
		if len(s) > 400 {
			s = s[:400] + "…"
		}
		return s
	}
	return fmt.Errorf("%s differs:\n  interp   %s\n  threaded %s", path, clip(w), clip(g))
}

// splitCap caps the budget of split cells.
const splitCap = 1024

// checkRow runs every cell of a row against the interpreter, with one
// subtest per observer.
func checkRow(t *testing.T, r *row) {
	t.Helper()
	if r.app == nil {
		r.blocks = analysis.NewBlockMap(r.text, r.base)
		r.prog = vm.Translate(r.text, r.base, r.blocks)
	}
	ref := runCell(t, r, cell{budget: r.budget})
	if r.check != nil {
		if err := r.check(ref); err != nil {
			t.Fatalf("interpreter fails the independent check: %v", err)
		}
	}
	var splits []uint64
	if r.app == nil {
		for k := uint64(0); k <= min(ref.Ret, 64); k++ {
			splits = append(splits, k)
		}
	}
	// Split cells run under the full budget, capped so that a long
	// row does not rerun its whole budget once per split.
	splitBudget := r.budget
	if ref.Ret > splitCap {
		splitBudget = splitCap
	}
	var clean []packetOutcome // the collector column's packets, for checkInjected
	if r.app != nil && !r.noVerify {
		clean = runCell(t, r, cell{budget: r.budget, obs: obsCollector}).Packets
	}
	for _, obs := range observers {
		t.Run(obs.String(), func(t *testing.T) {
			check := func(want *outcome, c cell) {
				t.Helper()
				got := runCell(t, r, c)
				if err := diff(want, got); err != nil {
					t.Fatalf("%v: %v", c, err)
				}
				for i, po := range got.Packets {
					if obs == obsAccounting && po.Record.Blocks != nil {
						t.Fatalf("%v: packet %d: Blocks %v with BlockSets off, want nil", c, i, po.Record.Blocks)
					}
				}
				switch {
				case obs != obsExtra || clean == nil:
				case r.panics:
					checkPanics(t, c, got)
				default:
					checkInjected(t, c, got.Packets, clean)
				}
			}
			full := runCell(t, r, cell{budget: r.budget, obs: obs})
			check(full, cell{threaded: true, budget: r.budget, obs: obs})
			unsplit := full
			if splitBudget != r.budget {
				unsplit = runCell(t, r, cell{budget: splitBudget, obs: obs})
			}
			for _, k := range splits {
				want := runCell(t, r, cell{budget: k, obs: obs})
				check(want, cell{threaded: true, budget: k, obs: obs})
				for _, threaded := range []bool{false, true} {
					check(unsplit, cell{threaded: threaded, budget: splitBudget, split: true, splitAt: k, obs: obs})
				}
			}
		})
	}
}

// checkRows runs each row as a subtest.
func checkRows(t *testing.T, rows []*row) {
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) { checkRow(t, r) })
	}
}

// TestOracle runs the matrix over the program rows: hand-built programs
// covering every control-flow and fault shape and the edges of the
// memory's regions, and random ALU and memory programs.
func TestOracle(t *testing.T) {
	rows := append(shapeRows(), provenZeroLoadRow())
	rows = append(rows, passRows()...)
	rows = append(rows, regionEdgeRows()...)
	checkRows(t, append(rows, randomRows()...))
}

// TestEngineEquivalenceApps runs the matrix over the bundled
// applications.
func TestEngineEquivalenceApps(t *testing.T) {
	checkRows(t, appRows(t))
}

// TestEngineEquivalenceFaults runs the matrix over deliberately broken
// programs loaded with NoVerify.
func TestEngineEquivalenceFaults(t *testing.T) {
	checkRows(t, noVerifyRows(t))
}

// FuzzOracle runs arbitrary inputs through every program cell. The first
// byte selects how the rest is read: even as raw instructions (six
// bytes each, opcodes reaching past the decodable range), odd as
// assembly source started from the framework ABI. CI runs this as a
// short -fuzz smoke.
func FuzzOracle(f *testing.F) {
	for _, text := range rawSeeds {
		f.Add(append([]byte{0}, rawInput(text...)...))
	}
	for _, srcs := range [][]string{asm.FuzzSeeds, asmSeeds} {
		for _, src := range srcs {
			f.Add(append([]byte{1}, src...))
		}
	}
	for _, text := range append(pageSeeds, pcSeeds...) {
		f.Add(append([]byte{0}, rawInput(text...)...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			t.Skip()
		}
		var r *row
		if b[0]%2 == 0 {
			r = decodeRaw(b[1:])
		} else {
			r = asmRow("fuzz", string(b[1:]))
		}
		if r == nil {
			t.Skip()
		}
		checkRow(t, r)
	})
}

const rawBase = 0x00400000

// rawRow builds a program row from instructions at rawBase, under the
// standard test layout: r1 (a0) points at the packet buffer, r2 at data,
// r3 into the stack, and r15 (ra) holds the magic return address.
func rawRow(name string, budget uint64, text ...isa.Instruction) *row {
	r := &row{name: name, text: text, base: rawBase, entry: rawBase, budget: budget,
		layout: vm.Layout{
			TextBase: rawBase, TextEnd: rawBase + uint32(len(text))*isa.WordSize,
			PacketBase: 0x20000000, PacketEnd: 0x20010000,
			DataBase: 0x10000000, DataEnd: 0x10100000,
			StackBase: 0x7FFF0000, StackEnd: 0x80000000,
		}}
	r.regs[1], r.regs[2], r.regs[3], r.regs[15] = 0x20000000, 0x10000000, 0x7FFF8000, vm.ReturnAddress
	return r
}

// rawInput encodes instructions in the fuzz input's six-byte raw form.
func rawInput(text ...isa.Instruction) []byte {
	b := make([]byte, 0, len(text)*6)
	for _, in := range text {
		b = append(b, byte(in.Op), byte(in.Rd), byte(in.Rs1), byte(in.Rs2),
			byte(uint16(in.Imm)), byte(uint16(in.Imm)>>8))
	}
	return b
}

// decodeRaw reads six-byte raw instructions; nil when there are none or
// more than 4096.
func decodeRaw(b []byte) *row {
	n := len(b) / 6
	if n == 0 || n > 4096 {
		return nil
	}
	text := make([]isa.Instruction, n)
	for i := range text {
		w := b[i*6 : i*6+6]
		text[i] = isa.Instruction{
			Op:  isa.Opcode(int(w[0]) % (isa.NumOpcodes + 3)),
			Rd:  isa.Reg(w[1] % isa.NumRegs),
			Rs1: isa.Reg(w[2] % isa.NumRegs),
			Rs2: isa.Reg(w[3] % isa.NumRegs),
			Imm: int32(int16(uint16(w[4]) | uint16(w[5])<<8)),
		}
	}
	return rawRow("fuzz", 50_000, text...)
}

// asmRow assembles src and starts it the way the framework does: a0 at
// the packet buffer, a1 = 64, sp at the stack top, ra at the magic return
// address, pc at the verifier's default entry (the first text-segment
// global, else the text base). Nil when src does not assemble to 1-4096
// instructions and at most 1 MiB of data.
func asmRow(name, src string) *row {
	prog, err := asm.Assemble(src, asm.Options{})
	if err != nil || len(prog.Text) == 0 || len(prog.Text) > 4096 {
		return nil
	}
	if len(prog.Data) > 1<<20 {
		return nil
	}
	layout := core.LayoutFor(prog, 1<<20)
	r := &row{name: name, text: prog.Text, base: prog.TextBase, layout: layout, data: prog.Data,
		entry: prog.TextBase, budget: 100_000}
	r.regs[isa.A0], r.regs[isa.A1], r.regs[isa.SP], r.regs[isa.RA] = layout.PacketBase, 64, layout.StackEnd, vm.ReturnAddress
	for _, g := range prog.Globals {
		if addr, ok := prog.Symbols[g]; ok && addr >= prog.TextBase && addr < prog.TextEnd() {
			r.entry = addr
			break
		}
	}
	return r
}

func ins(op isa.Opcode, rd, rs1, rs2 isa.Reg, imm int32) isa.Instruction {
	return isa.Instruction{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm}
}

// shapeRows are hand-built programs covering every control-flow and
// fault shape.
func shapeRows() []*row {
	return []*row{
		rawRow("halt", 100, ins(isa.HALT, 0, 0, 0, 0)),
		rawRow("count-loop", 1000,
			ins(isa.ADDI, 4, 0, 0, 10), // t = 10
			ins(isa.ADDI, 5, 5, 0, 3),  // acc += 3
			ins(isa.ADDI, 4, 4, 0, -1), // t--
			ins(isa.BNE, 0, 4, 0, -3),  // a self-loop block
			ins(isa.JALR, 0, 15, 0, 0)),
		rawRow("store-load-roundtrip", 100,
			ins(isa.LUI, 6, 0, 0, 0xDEAD),
			ins(isa.ORI, 6, 6, 0, 0xBE),
			ins(isa.SW, 6, 1, 0, 4),
			ins(isa.LW, 7, 1, 0, 4),
			ins(isa.SH, 6, 2, 0, 2),
			ins(isa.LHU, 8, 2, 0, 2),
			ins(isa.LH, 9, 2, 0, 2),
			ins(isa.SB, 6, 3, 0, -1),
			ins(isa.LBU, 10, 3, 0, -1),
			ins(isa.LB, 11, 3, 0, -1),
			ins(isa.HALT, 0, 0, 0, 0)),
		rawRow("alu-zoo", 100,
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
			ins(isa.HALT, 0, 0, 0, 0)),
		rawRow("zero-reg-targets", 100,
			ins(isa.ADDI, 0, 0, 0, 99), // discarded
			ins(isa.LUI, 0, 0, 0, 99),  // discarded
			ins(isa.LW, 0, 1, 0, 0),    // load checks run, write discarded
			ins(isa.JAL, 0, 0, 0, 0),   // jump, no link
			ins(isa.HALT, 0, 0, 0, 0)),
		rawRow("call-and-return", 100,
			ins(isa.JAL, 15, 0, 0, 2), // call +3 (skips the next two)
			ins(isa.ADDI, 4, 4, 0, 1), // return point
			ins(isa.HALT, 0, 0, 0, 0),
			ins(isa.ADDI, 5, 5, 0, 42), // callee
			ins(isa.JALR, 0, 15, 0, 0)),
		rawRow("jalr-misaligned-target", 100,
			ins(isa.ADDI, 4, 0, 0, 0x100),
			ins(isa.JALR, 0, 4, 0, 2)), // target (0x100+2)&^3 = 0x100: bad fetch
		rawRow("branch-out-of-text", 100, ins(isa.BEQ, 0, 0, 0, 100)),
		rawRow("branch-backward-out-of-text", 100, ins(isa.BEQ, 0, 0, 0, -100)),
		rawRow("jal-out-of-text", 100, ins(isa.JAL, 15, 0, 0, 1<<19)),
		rawRow("fall-off-end", 100,
			ins(isa.ADDI, 4, 0, 0, 1),
			ins(isa.ADDI, 4, 4, 0, 1)),
		rawRow("unaligned-word-load", 100, ins(isa.LW, 4, 1, 0, 2)),
		rawRow("unaligned-half-store", 100, ins(isa.SH, 4, 1, 0, 1)),
		rawRow("unmapped-load", 100, ins(isa.LW, 4, 0, 0, 0x100)),
		rawRow("text-read-faults", 100,
			ins(isa.LUI, 4, 0, 0, int32(rawBase>>12)),
			ins(isa.LW, 5, 4, 0, 0)),
		rawRow("text-write-faults", 100,
			ins(isa.LUI, 4, 0, 0, int32(rawBase>>12)),
			ins(isa.SW, 5, 4, 0, 0)),
		rawRow("step-limit-mid-block", 3,
			ins(isa.ADDI, 4, 4, 0, 1),
			ins(isa.ADDI, 4, 4, 0, 1),
			ins(isa.ADDI, 4, 4, 0, 1),
			ins(isa.ADDI, 4, 4, 0, 1),
			ins(isa.ADDI, 4, 4, 0, 1),
			ins(isa.HALT, 0, 0, 0, 0)),
		rawRow("step-limit-on-loop", 17, ins(isa.BEQ, 0, 0, 0, -1)),
		rawRow("bad-instr", 100,
			ins(isa.ADDI, 4, 0, 0, 1),
			ins(isa.Opcode(200), 4, 0, 0, 0),
			ins(isa.HALT, 0, 0, 0, 0)),
		rawRow("packet-watermark", 100,
			ins(isa.SW, 4, 1, 0, 60),
			ins(isa.SB, 4, 1, 0, 200),
			ins(isa.HALT, 0, 0, 0, 0)),
		rawRow("return-address-jalr", 100,
			ins(isa.ADDI, 4, 4, 0, 5),
			ins(isa.JALR, 0, 15, 0, 0)),
		midBlockRow(),
		midBlockThenWholeRow(),
		budgetOnBranchRow(),
	}
}

// midBlockThenWholeRow enters a block through JALR at its middle, then
// loops back to the block's leader twice in the same run: a partial
// pass, then whole-block passes, the second of which the collector may
// skip as fully seen. The partial pass must not count as covering the
// block, or the leader's instructions would go uncounted.
func midBlockThenWholeRow() *row {
	r := rawRow("mid-block-entry-then-whole-block", 100,
		ins(isa.ADDI, 4, 0, 0, 0x10),
		ins(isa.ADDI, 7, 0, 0, 3),       // three passes over the loop block
		ins(isa.JALR, 5, 4, 0, rawBase), // jump to base+16, link r5
		ins(isa.ADDI, 6, 6, 0, 1),       // base+12, the loop block's leader
		ins(isa.ADDI, 6, 6, 0, 2),       // base+16, entered mid-block
		ins(isa.ADDI, 6, 6, 0, 4),
		ins(isa.ADDI, 7, 7, 0, -1),
		ins(isa.BNE, 0, 7, 0, -5), // back to the leader
		ins(isa.HALT, 0, 0, 0, 0))
	r.check = func(o *outcome) error {
		if o.Regs[6] != 6+7+7 {
			return fmt.Errorf("r6 = %d, want 20 (one partial pass, two whole ones)", o.Regs[6])
		}
		return nil
	}
	return r
}

// budgetOnBranchRow spends its last step on a taken conditional branch.
// The branch ends the run's last block pass and its target never runs,
// so the step-limit fault lands on the target and only the profiler's
// Flush resolves the branch.
func budgetOnBranchRow() *row {
	r := rawRow("budget-ends-on-branch", 7,
		ins(isa.ADDI, 4, 0, 0, 3),
		ins(isa.ADDI, 5, 5, 0, 1), // loop
		ins(isa.ADDI, 4, 4, 0, -1),
		ins(isa.BNE, 0, 4, 0, -3),
		ins(isa.HALT, 0, 0, 0, 0))
	r.check = func(o *outcome) error {
		if f := o.Fault; o.Ret != 7 || f == nil || f.Kind != vm.FaultStepLimit || f.PC != rawBase+4 {
			return fmt.Errorf("stopped after %d steps with %v, want a step-limit fault at the loop head after 7", o.Ret, f)
		}
		return nil
	}
	return r
}

// midBlockRow jumps through JALR into the middle of a basic block: the
// target base+16 lies inside the straight-line run base+8..base+24.
func midBlockRow() *row {
	r := rawRow("mid-block-entry", 100,
		ins(isa.ADDI, 4, 0, 0, 0x10),
		ins(isa.JALR, 5, 4, 0, rawBase), // jump to base+16, link r5
		ins(isa.ADDI, 6, 6, 0, 1),       // base+8, a leader
		ins(isa.ADDI, 6, 6, 0, 2),
		ins(isa.ADDI, 6, 6, 0, 4), // base+16, entered mid-block
		ins(isa.ADDI, 6, 6, 0, 8),
		ins(isa.HALT, 0, 0, 0, 0))
	r.check = func(o *outcome) error {
		if o.Regs[6] != 4+8 {
			return fmt.Errorf("r6 = %d, want 12 (entered at base+16)", o.Regs[6])
		}
		return nil
	}
	return r
}

// provenZeroLoadRow loads a packet word into the zero register, from
// the framework ABI entry state (the address lies inside the packet
// region). The load has no architectural effect, but the interpreter
// still reports the read, so block mode must too.
func provenZeroLoadRow() *row {
	return asmRow("proven-zero-load", "process_packet:\n\tlw zero, 4(a0)\n\tlbu t0, 0(a0)\n\tsw t0, -4(sp)\n\tret")
}

// passRows give block mode repeated passes and a skipped block: a loop
// whose count comes from data, so its body block runs five times, and a
// branch over one block, taken and not taken.
func passRows() []*row {
	rows := []*row{
		asmRow("loop", ".data\nn:\t.word 5\n\t.text\n\tla t0, n\n\tlw t1, 0(t0)\n\tmv t2, zero\nloop:\n\taddi t2, t2, 1\n\tblt t2, t1, loop\n\tret"),
		asmRow("skip-taken", "\tlw t0, 0(a0)\n\tbeq t0, zero, skip\n\taddi t1, t1, 1\nskip:\n\tret"),
		asmRow("skip-not-taken", "\tli t0, 1\n\tbeq t0, zero, skip\n\taddi t1, t1, 1\nskip:\n\tret"),
	}
	for i, want := range []struct {
		reg isa.Reg
		val uint32
	}{{isa.T2, 5}, {isa.T1, 0}, {isa.T1, 1}} {
		rows[i].check = func(o *outcome) error {
			if got := o.Regs[want.reg]; got != want.val {
				return fmt.Errorf("r%d = %d, want %d", want.reg, got, want.val)
			}
			return nil
		}
	}
	return rows
}

// regionEdgeRows probe the edges of the memory's regions, where an
// access leaves the grown slices Memory.find serves and takes CPU.miss,
// the interpreter's checks: stores into the text segment and loads and
// stores in its page's tail past TextEnd, the last word of each region
// and the first word past it, a data region that ends where the stack
// region starts, inside a 4 KiB page, a data region ending mid-page,
// misaligned accesses inside grown memory, loads from untouched memory,
// which must read 0 and grow nothing, a store past the data extent loaded
// back in the same block, and a load of the data region's last word
// while its slice is still short. Each row's check pins the fault or
// values it was built to produce.
func regionEdgeRows() []*row {
	fault := func(r *row, kind vm.FaultKind, pc, addr uint32) *row {
		r.check = func(o *outcome) error {
			if f := o.Fault; f == nil || *f != (vm.Fault{Kind: kind, PC: pc, Addr: addr}) {
				return fmt.Errorf("fault %+v, want %v at pc=%#x addr=%#x", f, kind, pc, addr)
			}
			return nil
		}
		return r
	}
	textBase := ins(isa.LUI, 4, 0, 0, rawBase>>12)
	halt := ins(isa.HALT, 0, 0, 0, 0)
	rows := []*row{
		fault(rawRow("text-last-word-store", 100, textBase, ins(isa.SW, 5, 4, 0, 8), halt),
			vm.FaultTextWrite, rawBase+4, rawBase+8),
		fault(rawRow("text-tail-load", 100, textBase, ins(isa.LW, 5, 4, 0, 12), halt),
			vm.FaultUnmapped, rawBase+4, rawBase+12),
		fault(rawRow("text-tail-store", 100, textBase, ins(isa.SW, 5, 4, 0, 12), halt),
			vm.FaultUnmapped, rawBase+4, rawBase+12),
		fault(rawRow("text-page-last-word-store", 100, textBase, ins(isa.ORI, 4, 4, 0, 0xFFC), ins(isa.SW, 5, 4, 0, 0), halt),
			vm.FaultUnmapped, rawBase+8, rawBase+0xFFC),
	}

	// The last word of each region: load (past the grown slice, so it
	// reads 0), store (grows the slice), load and store again (inside it),
	// then the first word past the end.
	std := rawRow("", 0).layout
	for _, end := range []struct {
		name string
		end  uint32
	}{{"packet", std.PacketEnd}, {"data", std.DataEnd}, {"stack", std.StackEnd}} {
		for _, past := range []isa.Opcode{isa.LW, isa.SW} {
			r := rawRow(fmt.Sprintf("%s-end-%v", end.name, past), 100,
				ins(isa.LW, 5, 4, 0, 0), ins(isa.SW, 6, 4, 0, 0), ins(isa.LW, 7, 4, 0, 0), ins(isa.SW, 7, 4, 0, 0),
				ins(past, 8, 4, 0, 4), halt)
			r.regs[4], r.regs[5], r.regs[6] = end.end-4, 0xFFFFFFFF, 0x5EED
			rows = append(rows, fault(r, vm.FaultUnmapped, rawBase+16, end.end))
		}
	}

	// Data [0x10000000, 0x10000800) meets stack [0x10000800, ...) inside
	// one 4 KiB page: each access must still get its own region, in
	// either order.
	const bound = 0x10000800
	shared := func(name string, text ...isa.Instruction) *row {
		r := rawRow(name, 100, append(text, halt)...)
		r.layout.DataEnd, r.layout.StackBase, r.layout.StackEnd = bound, bound, bound+0x2000
		r.data = make([]byte, bound-std.DataBase)
		copy(r.data[len(r.data)-4:], []byte{0x44, 0x33, 0x22, 0x11})
		r.regs[4] = bound - 4
		return r
	}
	rows = append(rows,
		shared("data-then-stack-on-one-page",
			ins(isa.LW, 5, 4, 0, 0), ins(isa.SW, 5, 4, 0, 4), ins(isa.LW, 6, 4, 0, 0),
			ins(isa.LW, 7, 4, 0, 4), ins(isa.SH, 7, 4, 0, 0), ins(isa.LBU, 8, 4, 0, 5)),
		shared("stack-then-data-on-one-page",
			ins(isa.SW, 4, 4, 0, 4), ins(isa.LW, 5, 4, 0, 0), ins(isa.LHU, 6, 4, 0, 6),
			ins(isa.SB, 6, 4, 0, 3), ins(isa.LW, 7, 4, 0, 4), ins(isa.LB, 8, 4, 0, 3)))
	rows[len(rows)-2].check = func(o *outcome) error {
		if o.Fault != nil || o.Regs[6] != 0x11223344 || o.Regs[7] != 0x11223344 || o.Regs[8] != 0x33 {
			return fmt.Errorf("fault %v, r6-r8 = %#x %#x %#x, want 0x11223344 0x11223344 0x33", o.Fault, o.Regs[6], o.Regs[7], o.Regs[8])
		}
		return nil
	}
	gap := shared("data-ends-mid-page", ins(isa.LW, 5, 4, 0, 0), ins(isa.SW, 5, 4, 0, 0), ins(isa.LW, 6, 4, 0, 0),
		ins(isa.LW, 7, 4, 0, 4))
	gap.layout.StackBase, gap.layout.StackEnd = std.StackBase, std.StackEnd
	rows = append(rows, fault(gap, vm.FaultUnmapped, rawBase+12, bound))

	// A misaligned access inside the packet slice the two accesses
	// before it grew.
	for _, m := range []struct {
		op  isa.Opcode
		off int32
	}{{isa.LH, 1}, {isa.LHU, 3}, {isa.LW, 2}, {isa.SH, 1}, {isa.SW, 3}} {
		r := rawRow(fmt.Sprintf("unaligned-%v-on-filled-page", m.op), 100,
			ins(isa.SW, 5, 1, 0, 0), ins(isa.LW, 6, 1, 0, 0), ins(m.op, 7, 1, 0, m.off), halt)
		rows = append(rows, fault(r, vm.FaultUnaligned, rawBase+8, 0x20000000+uint32(m.off)))
	}

	// Loads from untouched data read 0 and grow nothing.
	untouched := rawRow("untouched-page-loads", 100,
		ins(isa.LW, 5, 4, 0, 0), ins(isa.LBU, 6, 4, 0, 3), ins(isa.LHU, 7, 4, 0, 2), ins(isa.LW, 8, 4, 0, 0), halt)
	untouched.regs[4] = std.DataBase + 0x8000
	for i := 5; i <= 8; i++ {
		untouched.regs[i] = 0xFFFFFFFF
	}
	untouched.check = func(o *outcome) error {
		if o.Fault != nil || o.Regs[5]|o.Regs[6]|o.Regs[7]|o.Regs[8] != 0 || o.Extents != [3]int{} {
			return fmt.Errorf("fault %v, r5-r8 = %#x, extents %v, want 0s and none", o.Fault, o.Regs[5:9], o.Extents)
		}
		return nil
	}

	// A store past the data extent the run started with, then a store
	// and loads in the same block: every access after the growth must
	// reach the slice the store grew, not the one the run started with.
	grown := rawRow("store-past-data-extent-then-load", 100,
		ins(isa.SW, 5, 4, 0, 0), ins(isa.SW, 5, 2, 0, 4), ins(isa.LW, 6, 4, 0, 0), ins(isa.LW, 7, 2, 0, 0), halt)
	grown.data = []byte{1, 2, 3, 4}
	grown.regs[4], grown.regs[5] = std.DataBase+0x8000, 0x5EED
	grown.check = func(o *outcome) error {
		if o.Fault != nil || o.Regs[6] != 0x5EED || o.Regs[7] != 0x04030201 || o.Extents[1] != 0x10000 ||
			o.mem.Read32(std.DataBase+4) != 0x5EED {
			return fmt.Errorf("fault %v, r6 r7 = %#x %#x, data extent %#x, want 0x5eed 0x4030201 0x10000 and 0x5eed at +4",
				o.Fault, o.Regs[6], o.Regs[7], o.Extents[1])
		}
		return nil
	}

	// The data region's last word, loaded while its slice holds only the
	// first 4 KiB, reads 0 and grows nothing.
	short := rawRow("data-last-word-load-short-slice", 100,
		ins(isa.SW, 5, 2, 0, 0), ins(isa.LW, 6, 4, 0, 0), ins(isa.LHU, 7, 4, 0, 2), halt)
	short.regs[4], short.regs[5], short.regs[6], short.regs[7] = std.DataEnd-4, 1, 0xFFFFFFFF, 0xFFFFFFFF
	short.check = func(o *outcome) error {
		if o.Fault != nil || o.Regs[6]|o.Regs[7] != 0 || o.Extents[1] != 4096 {
			return fmt.Errorf("fault %v, r6 r7 = %#x %#x, data extent %d, want 0s and 4096", o.Fault, o.Regs[6], o.Regs[7], o.Extents[1])
		}
		return nil
	}
	return append(rows, untouched, grown, short)
}

// rawSeeds are FuzzOracle's raw-instruction seeds: structured idioms
// (hot application loops, boundary accesses) that random mutation is
// slow to discover, plus short raw programs.
var rawSeeds = [][]isa.Instruction{
	{ins(isa.HALT, 0, 0, 0, 0)},
	// The TSA sub-key walk: the srli/slli/andi/or/add bit-extract chain,
	// a checked table load, and the slli/or/xor/slli/or/addi/blt tail,
	// with the loop latch taken four times before a return.
	{
		ins(isa.ORI, 10, isa.Zero, 0, 4),
		ins(isa.SRLI, 4, 5, 0, 31),
		ins(isa.SLLI, 5, 5, 0, 1),
		ins(isa.ANDI, 6, 7, 0, 0xFF),
		ins(isa.OR, 6, 6, 8, 0),
		ins(isa.ADD, 6, 6, 1, 0),
		ins(isa.LBU, 6, 6, 0, 0),
		ins(isa.SLLI, 7, 7, 0, 1),
		ins(isa.OR, 7, 7, 4, 0),
		ins(isa.XOR, 4, 4, 6, 0),
		ins(isa.SLLI, 9, 9, 0, 1),
		ins(isa.OR, 9, 9, 4, 0),
		ins(isa.ADDI, 8, 8, 0, 1),
		ins(isa.BLT, 0, 8, 10, -13),
		ins(isa.JALR, 0, 15, 0, 0),
	},
	// LUI+ORI constant build and ADDI+JAL call setup, then AND+BNE on
	// the return path.
	{
		ins(isa.LUI, 4, 0, 0, 5),
		ins(isa.ORI, 4, 4, 0, 0x41),
		ins(isa.ADDI, 5, 4, 0, 1),
		ins(isa.JAL, 15, 0, 0, 1),
		ins(isa.HALT, 0, 0, 0, 0),
		ins(isa.AND, 6, 4, 5, 0),
		ins(isa.BNE, 0, 6, isa.Zero, 0),
		ins(isa.JALR, 0, 15, 0, 0),
	},
	// Boundary-straddling memory: a word load crossing a 4 KiB page
	// inside the packet region, a halfword at an odd address, and a
	// store one byte short of the region end.
	{
		ins(isa.LW, 4, 1, 0, 4094),
		ins(isa.LH, 5, 1, 0, 3),
		ins(isa.SB, 4, 1, 0, 255),
		ins(isa.JALR, 0, 15, 0, 0),
	},
	// Off-by-one control flow: a branch to the last instruction and a
	// branch falling off the end of text.
	{
		ins(isa.BEQ, 0, isa.Zero, isa.Zero, 1),
		ins(isa.ADDI, 4, 4, 0, 1),
		ins(isa.BGE, 0, 4, isa.Zero, 1),
	},
	{
		ins(isa.ADDI, 4, 0, 0, 10),
		ins(isa.ADDI, 4, 4, 0, -1),
		ins(isa.BNE, 0, 4, 0, -1),
		ins(isa.JALR, 0, 15, 0, 0),
	},
	{
		ins(isa.LW, 4, 1, 0, 0),
		ins(isa.SW, 4, 3, 0, 4),
		ins(isa.SB, 4, 1, 0, 200),
		ins(isa.JAL, 15, 0, 0, -4),
	},
	// Undecodable: opcode byte 255 wraps past the decodable range.
	{ins(isa.Opcode(255), 255, 255, 255, -1)},
}

// pageSeeds are raw-instruction seeds added after every other seed, so
// the seeds before them keep their numbers: a load at TextEnd and a
// store at the text page's last word, the one region bound inside a
// page in every raw layout.
var pageSeeds = [][]isa.Instruction{
	{
		ins(isa.LUI, 4, 0, 0, rawBase>>12),
		ins(isa.LW, 5, 4, 0, 12),
		ins(isa.JALR, 0, 15, 0, 0),
	},
	{
		ins(isa.LUI, 4, 0, 0, rawBase>>12),
		ins(isa.ORI, 4, 4, 0, 0xFFC),
		ins(isa.SW, 5, 4, 0, 0),
		ins(isa.JALR, 0, 15, 0, 0),
	},
}

// pcSeeds follow pageSeeds. They pin the pc the threaded engine derives
// from the instruction index where a link, a fault or a tracer reads it:
// a JAL and a JALR as the last text word, each linking TextEnd; straight
// work into a JAL, whose budget cells include one expiring on the
// instruction before it; a block falling through the last text word
// (FaultBadFetch at TextEnd); and branches whose static targets lie
// outside the text, one untaken and one taken.
var pcSeeds = [][]isa.Instruction{
	{
		ins(isa.JAL, 0, 0, 0, 1),
		ins(isa.JALR, 0, 15, 0, 0),
		ins(isa.JAL, 5, 0, 0, -2),
	},
	{
		ins(isa.ADDI, 4, 0, 0, 7),
		ins(isa.JALR, 5, 15, 0, 0),
	},
	{
		ins(isa.ADDI, 4, 0, 0, 1),
		ins(isa.ADDI, 4, 4, 0, 2),
		ins(isa.ADDI, 4, 4, 0, 3),
		ins(isa.JAL, 5, 0, 0, 0),
		ins(isa.JALR, 0, 15, 0, 0),
	},
	{
		ins(isa.BEQ, 0, isa.Zero, isa.Zero, 0),
		ins(isa.ADDI, 4, 4, 0, 1),
		ins(isa.ADDI, 5, 4, 0, 1),
	},
	{
		ins(isa.BNE, 0, isa.Zero, isa.Zero, 100),
		ins(isa.ADDI, 4, 0, 0, 1),
		ins(isa.BEQ, 0, isa.Zero, isa.Zero, -100),
	},
}

// asmSeeds extend asm.FuzzSeeds as FuzzOracle's source seeds.
var asmSeeds = []string{
	"process_packet:\n\tlbu t0, 0(a0)\n\tandi t0, t0, 0xFF\n\tsw t0, -4(sp)\n\tret",
	"p:\n\tli t0, 3\nx:\n\tsrli t1, t2, 31\n\tslli t2, t2, 1\n\tandi t3, t4, 0xFF\n\tor t3, t3, t5\n\tadd t3, t3, a0\n\tlbu t3, 0(t3)\n\taddi t5, t5, 1\n\tblt t5, t0, x\n\tret",
	// An untame program: the verifier cannot follow its control flow.
	".globl out\naddi a0, zero, 0\nout: halt",
}

// appRows are the bundled applications over a generated trace.
func appRows(t *testing.T) []*row {
	pkts := mixedSizePackets(t, 30)
	var dsts []uint32
	for _, p := range pkts {
		if h, err := packet.ParseIPv4(p.Data); err == nil {
			dsts = append(dsts, h.Dst)
		}
	}
	tbl := route.TableFromTraffic(dsts, 1024, 16, 1)
	rows := []*row{
		{name: "radix", app: func() *core.App { return apps.IPv4Radix(tbl) }},
		{name: "trie", app: func() *core.App { return apps.IPv4Trie(tbl) }},
		{name: "flow", app: func() *core.App { return apps.FlowClassification(64) }},
		{name: "tsa", app: func() *core.App { return apps.TSAApp(0x5453412D31363A31) }},
		{name: "payload-scan", app: func() *core.App { return apps.PayloadScan([4]byte{0xDE, 0xAD, 0xBE, 0xEF}) }},
		{name: "frag", app: func() *core.App { return apps.Frag(576) }},
		{name: "radix-observer-panics", app: func() *core.App { return apps.IPv4Radix(tbl) }, panics: true},
		{name: "tsa-observer-panics", app: func() *core.App { return apps.TSAApp(0x5453412D31363A31) }, panics: true},
	}
	for _, r := range rows {
		r.pkts, r.budget = pkts, core.DefaultStepLimit
	}
	return rows
}

// noVerifyRows are programs the verifier rejects, loaded with NoVerify,
// each faulting or stopping in a different way on one packet.
func noVerifyRows(t *testing.T) []*row {
	var rows []*row
	for _, f := range []struct{ name, src string }{
		{"unmapped-load", "e:\nlw a0, 0(zero)\nret"},
		{"misaligned-load", "e:\naddi t0, a0, 1\nlw a1, 0(t0)\nret"},
		{"text-store", "e:\nla t0, e\nsw a0, 0(t0)\nret"},
		{"bad-fetch", "e:\naddi t0, a1, 8\njr t0"},
		{"step-limit", "e:\nj e"},
		{"run-off-end", "e:\naddi a0, zero, 7"},
	} {
		rows = append(rows, &row{name: f.name, pkts: mixedSizePackets(t, 1)[:1],
			app:      func() *core.App { return &core.App{Name: f.name, Source: f.src, Entry: "e"} },
			noVerify: true, budget: 10_000})
	}
	return rows
}

// randomRows are random straight-line ALU programs (seed 1234, 200
// trials) and ALU/memory programs over a 256-byte data region (seed 99,
// 100 trials). Each row's check replays the program on goEval, an
// independent evaluator, as a check of the interpreter itself.
func randomRows() []*row {
	var rows []*row
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(150)
		text := make([]isa.Instruction, 0, n+1)
		for i := 0; i < n; i++ {
			text = append(text, randomALU(rng))
		}
		text = append(text, ins(isa.HALT, 0, 0, 0, 0))
		r := &row{name: fmt.Sprintf("alu-random-%03d", trial), text: text, base: 0x10000,
			entry: 0x10000, budget: uint64(n) + 10}
		for i := 1; i < isa.NumRegs; i++ {
			r.regs[i] = rng.Uint32()
		}
		r.check = func(o *outcome) error {
			if o.Fault != nil || o.Reason != vm.StopHalt || o.Ret != uint64(n)+1 {
				return fmt.Errorf("stopped %v (%v) after %d steps, want halt after %d", o.Reason, o.Fault, o.Ret, n+1)
			}
			want := r.regs
			for _, in := range text[:n] {
				goEval(in, &want)
			}
			if o.Regs != want {
				return fmt.Errorf("registers %#x, goEval %#x", o.Regs, want)
			}
			return nil
		}
		rows = append(rows, r)
	}

	const dataBase, dataSize = 0x10000000, 256
	rng = rand.New(rand.NewSource(99))
	memOps := []isa.Opcode{isa.LB, isa.LBU, isa.LH, isa.LHU, isa.LW, isa.SB, isa.SH, isa.SW}
	for trial := 0; trial < 100; trial++ {
		var text []isa.Instruction
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				// An aligned in-range access off the base pointer r1.
				op := memOps[rng.Intn(len(memOps))]
				off := rng.Intn(dataSize-4) &^ (op.MemSize() - 1)
				text = append(text, ins(op, isa.Reg(2+rng.Intn(8)), 1, 0, int32(off)))
			} else {
				in := randomALU(rng)
				if in.Rd == 1 {
					in.Rd = 2 // r1 stays the base pointer
				}
				text = append(text, in)
			}
		}
		text = append(text, ins(isa.HALT, 0, 0, 0, 0))
		r := &row{name: fmt.Sprintf("mem-random-%03d", trial), text: text, base: 0x10000,
			entry: 0x10000, budget: uint64(len(text)) + 10,
			layout: vm.Layout{DataBase: dataBase, DataEnd: dataBase + dataSize}}
		for i := 2; i < 12; i++ {
			r.regs[i] = rng.Uint32()
		}
		r.regs[1] = dataBase
		r.check = func(o *outcome) error {
			if o.Fault != nil {
				return o.Fault
			}
			want := r.regs
			mem := make([]byte, dataSize)
			rd := func(a uint32, size int) (v uint32) {
				for k := size - 1; k >= 0; k-- {
					v = v<<8 | uint32(mem[a-dataBase+uint32(k)])
				}
				return v
			}
			for _, in := range text[:n] {
				if !in.Op.IsLoad() && !in.Op.IsStore() {
					goEval(in, &want)
					continue
				}
				addr := want[in.Rs1] + uint32(in.Imm)
				switch in.Op {
				case isa.LB:
					want[in.Rd] = uint32(int32(int8(rd(addr, 1))))
				case isa.LBU:
					want[in.Rd] = rd(addr, 1)
				case isa.LH:
					want[in.Rd] = uint32(int32(int16(rd(addr, 2))))
				case isa.LHU:
					want[in.Rd] = rd(addr, 2)
				case isa.LW:
					want[in.Rd] = rd(addr, 4)
				default:
					for k := 0; k < in.Op.MemSize(); k++ {
						mem[addr-dataBase+uint32(k)] = byte(want[in.Rd] >> (8 * k))
					}
				}
				want[isa.Zero] = 0
			}
			if o.Regs != want {
				return fmt.Errorf("registers %#x, oracle %#x", o.Regs, want)
			}
			for i := range mem {
				if got := o.mem.ReadBytes(dataBase+uint32(i), 1)[0]; got != mem[i] {
					return fmt.Errorf("memory[%d] = %#x, oracle %#x", i, got, mem[i])
				}
			}
			return nil
		}
		rows = append(rows, r)
	}
	return rows
}

var aluOps = []isa.Opcode{
	isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SLL, isa.SRL, isa.SRA,
	isa.SLT, isa.SLTU, isa.MUL,
	isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SLLI, isa.SRLI, isa.SRAI,
	isa.SLTI, isa.SLTIU, isa.LUI,
}

// randomALU draws one ALU instruction over r0-r11, leaving sp and ra to
// the harness.
func randomALU(rng *rand.Rand) isa.Instruction {
	op := aluOps[rng.Intn(len(aluOps))]
	reg := func() isa.Reg { return isa.Reg(rng.Intn(12)) }
	in := isa.Instruction{Op: op, Rd: reg()}
	switch op.Format() {
	case isa.FormatR:
		in.Rs1, in.Rs2 = reg(), reg()
	case isa.FormatI:
		in.Rs1 = reg()
		switch op {
		case isa.SLLI, isa.SRLI, isa.SRAI:
			in.Imm = int32(rng.Intn(32))
		case isa.ANDI, isa.ORI, isa.XORI:
			in.Imm = int32(rng.Intn(isa.MaxUimm12 + 1))
		default:
			in.Imm = int32(rng.Intn(isa.MaxImm12-isa.MinImm12+1)) + isa.MinImm12
		}
	case isa.FormatU:
		in.Imm = int32(rng.Intn(isa.MaxUimm20 + 1))
	}
	return in
}

// goEval evaluates one ALU instruction in Go, independently of the
// simulator.
func goEval(in isa.Instruction, regs *[isa.NumRegs]uint32) {
	rs1, rs2 := regs[in.Rs1], regs[in.Rs2]
	imm := uint32(in.Imm)
	b2u := func(b bool) uint32 {
		if b {
			return 1
		}
		return 0
	}
	var v uint32
	switch in.Op {
	case isa.ADD:
		v = rs1 + rs2
	case isa.SUB:
		v = rs1 - rs2
	case isa.AND:
		v = rs1 & rs2
	case isa.OR:
		v = rs1 | rs2
	case isa.XOR:
		v = rs1 ^ rs2
	case isa.SLL:
		v = rs1 << (rs2 & 31)
	case isa.SRL:
		v = rs1 >> (rs2 & 31)
	case isa.SRA:
		v = uint32(int32(rs1) >> (rs2 & 31))
	case isa.SLT:
		v = b2u(int32(rs1) < int32(rs2))
	case isa.SLTU:
		v = b2u(rs1 < rs2)
	case isa.MUL:
		v = rs1 * rs2
	case isa.ADDI:
		v = rs1 + imm
	case isa.ANDI:
		v = rs1 & imm
	case isa.ORI:
		v = rs1 | imm
	case isa.XORI:
		v = rs1 ^ imm
	case isa.SLLI:
		v = rs1 << (imm & 31)
	case isa.SRLI:
		v = rs1 >> (imm & 31)
	case isa.SRAI:
		v = uint32(int32(rs1) >> (imm & 31))
	case isa.SLTI:
		v = b2u(int32(rs1) < in.Imm)
	case isa.SLTIU:
		v = b2u(rs1 < imm)
	case isa.LUI:
		v = imm << 12
	default:
		panic("goEval: not an ALU op: " + in.Op.String())
	}
	if in.Rd != isa.Zero {
		regs[in.Rd] = v
	}
}
