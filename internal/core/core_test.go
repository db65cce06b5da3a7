package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/ptrace"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
)

// echoApp reads the first packet word, adds the value published by Init
// at the "bias" symbol, writes the sum back into the packet, and returns
// the packet length as its verdict.
const echoSrc = `
	.data
bias:	.word 0
	.text
	.global process_packet
process_packet:
	la   t0, bias
	lw   t0, 0(t0)
	lw   t1, 0(a0)
	add  t1, t1, t0
	sw   t1, 4(a0)
	mv   a0, a1
	ret
`

func echoApp(bias uint32) *App {
	return &App{
		Name:   "echo",
		Source: echoSrc,
		Entry:  "process_packet",
		Init: func(ld *Loader) error {
			return ld.SetWord("bias", bias)
		},
	}
}

func ipPacket(n int) *trace.Packet {
	data := make([]byte, n)
	data[0] = 0x45
	return &trace.Packet{Data: data}
}

func TestBenchProcessPacket(t *testing.T) {
	b, err := New(echoApp(100), Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := ipPacket(64)
	p.Data[0] = 42 // first word = 42 little-endian... first byte
	res, err := b.ProcessPacket(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != 64 {
		t.Errorf("verdict = %d, want 64", res.Verdict)
	}
	if res.Record.Instructions == 0 {
		t.Error("no instructions recorded")
	}
	out := b.PacketBytes(8)
	got := uint32(out[4]) | uint32(out[5])<<8 | uint32(out[6])<<16 | uint32(out[7])<<24
	if got != 42+100 {
		t.Errorf("packet word = %d, want 142", got)
	}
}

// TestExecSpansReportBodyThatRan checks that exec spans name the engine
// that ran each packet, which is the bench's engine whatever tracers are
// attached.
func TestExecSpansReportBodyThatRan(t *testing.T) {
	for _, tc := range []struct {
		name   string
		engine EngineKind
		extra  vm.Tracer
		detach bool
	}{
		{"threaded", EngineThreaded, nil, false},
		{"threaded+extra", EngineThreaded, &panicTracer{}, false},
		{"threaded+extra, detached", EngineThreaded, &panicTracer{}, true},
		{"interp", EngineInterpreter, nil, false},
		{"interp+extra", EngineInterpreter, &panicTracer{}, false},
	} {
		tr := ptrace.New(ptrace.Config{Lanes: 1, SampleEvery: 1})
		b, err := New(echoApp(0), Options{Engine: tc.engine, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if tc.extra != nil {
			b.AddTracer(tc.extra)
		}
		if tc.detach {
			b.SetTracing(false)
		}
		for i := 0; i < 3; i++ {
			if _, err := b.ProcessPacketAt(i, ipPacket(64)); err != nil {
				t.Fatal(err)
			}
		}
		spans := 0
		for _, j := range tr.Summary(10).Tail {
			for _, ev := range j.Events() {
				if ev.Stage != ptrace.StageExec {
					continue
				}
				spans++
				if got := EngineKind(ev.Engine); got != tc.engine {
					t.Errorf("%s: packet %d exec span reports %v, want %v", tc.name, ev.Index, got, tc.engine)
				}
			}
		}
		if spans != 3 {
			t.Errorf("%s: %d exec spans, want 3", tc.name, spans)
		}
	}
}

func TestBenchPacketIsolation(t *testing.T) {
	// Stale bytes from a longer previous packet must not leak into the
	// buffer of a shorter one.
	b, err := New(echoApp(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	long := ipPacket(128)
	for i := range long.Data {
		long.Data[i] = 0xAA
	}
	if _, err := b.ProcessPacket(long); err != nil {
		t.Fatal(err)
	}
	short := ipPacket(32)
	if _, err := b.ProcessPacket(short); err != nil {
		t.Fatal(err)
	}
	buf := b.PacketBytes(128)
	for i := 32; i < 128; i++ {
		if buf[i] != 0 && i != 4 { // offset 4 is written by the app
			t.Fatalf("stale byte %#x at offset %d", buf[i], i)
		}
	}
}

func TestBenchPacketIsolationMixedSizes(t *testing.T) {
	// The dirty-length optimization must zero exactly the stale window:
	// descending then ascending packet sizes catch both directions.
	b, err := New(echoApp(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{200, 120, 48, 20, 64, 160}
	for _, n := range sizes {
		p := ipPacket(n)
		for i := range p.Data {
			p.Data[i] = 0x5A
		}
		p.Data[0] = 0x45
		if _, err := b.ProcessPacket(p); err != nil {
			t.Fatal(err)
		}
		buf := b.PacketBytes(256)
		for i := n; i < 256; i++ {
			if buf[i] != 0 {
				t.Fatalf("after %d-byte packet: stale byte %#x at offset %d", n, buf[i], i)
			}
		}
	}
}

func TestBenchPacketIsolationAppWritesBeyondLength(t *testing.T) {
	// An application may store past its packet's length (still inside the
	// packet region). The dirty window must widen to cover such stores,
	// or the next shorter packet would see the stale byte.
	src := `
		.text
		.global e
	e:
		li  t0, 0xAB
		li  t1, 32
		ble a1, t1, skip
		sb  t0, 96(a0)
	skip:
		mv  a0, a1
		ret
	`
	b, err := New(&App{Name: "poke", Source: src, Entry: "e"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ProcessPacket(ipPacket(40)); err != nil { // writes offset 96
		t.Fatal(err)
	}
	if got := b.PacketBytes(97)[96]; got != 0xAB {
		t.Fatalf("app store not visible: byte 96 = %#x", got)
	}
	if _, err := b.ProcessPacket(ipPacket(20)); err != nil { // takes skip branch
		t.Fatal(err)
	}
	if got := b.PacketBytes(97)[96]; got != 0 {
		t.Fatalf("stale app-written byte survived: byte 96 = %#x", got)
	}
}

func TestBenchErrors(t *testing.T) {
	if _, err := New(&App{Name: "x", Source: "nop", Entry: ""}, Options{}); err == nil {
		t.Error("missing entry symbol accepted")
	}
	if _, err := New(&App{Name: "x", Source: "frob", Entry: "e"}, Options{}); err == nil {
		t.Error("assembly error not propagated")
	}
	if _, err := New(&App{Name: "x", Source: "nop\nret", Entry: "missing"}, Options{}); err == nil {
		t.Error("undefined entry accepted")
	}
	initErr := &App{Name: "x", Source: "e:\nret", Entry: "e",
		Init: func(ld *Loader) error { return ld.SetWord("nosuch", 1) }}
	if _, err := New(initErr, Options{}); err == nil || !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("init error not propagated: %v", err)
	}
}

func TestBenchOversizedPacket(t *testing.T) {
	b, err := New(echoApp(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ProcessPacket(ipPacket(MaxPacketLen + 1)); err == nil {
		t.Error("oversized packet accepted")
	}
}

func TestBenchStepLimit(t *testing.T) {
	app := &App{Name: "spin", Source: "e:\nj e", Entry: "e"}
	b, err := New(app, Options{StepLimit: 100})
	if err != nil {
		t.Fatal(err)
	}
	_, err = b.ProcessPacket(ipPacket(20))
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("err = %v, want step limit fault", err)
	}
}

func TestBenchFaultMentionsAppAndPacket(t *testing.T) {
	app := &App{Name: "crash", Source: "e:\nlw a0, 0(zero)\nret", Entry: "e"}
	// The verifier statically rejects this program; the test is about the
	// runtime fault message, so load it unverified.
	b, err := New(app, Options{NoVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = b.ProcessPacket(ipPacket(20))
	if err == nil || !strings.Contains(err.Error(), "crash") || !strings.Contains(err.Error(), "packet 0") {
		t.Errorf("fault message lacks context: %v", err)
	}
}

func TestVerifyGate(t *testing.T) {
	// Jump past the end of the text segment: a static error.
	bad := &App{Name: "escape", Source: "e:\nj 0x100000\nhalt", Entry: "e"}
	_, err := New(bad, Options{})
	var verr *VerifyError
	if !errors.As(err, &verr) {
		t.Fatalf("want *VerifyError, got %v", err)
	}
	if verr.App != "escape" || !verr.Diags.HasErrors() {
		t.Errorf("VerifyError lacks context: %+v", verr)
	}
	if !strings.Contains(err.Error(), "NoVerify") {
		t.Errorf("error should point at the escape hatch: %v", err)
	}
	// The same program loads when verification is off.
	if _, err := New(bad, Options{NoVerify: true}); err != nil {
		t.Fatalf("NoVerify load failed: %v", err)
	}
	// Warnings alone never block a load.
	warn := &App{Name: "warny", Source: "e:\nadd a2, t2, zero\nhalt", Entry: "e"}
	if _, err := New(warn, Options{}); err != nil {
		t.Fatalf("warning-only program rejected: %v", err)
	}
	ds, err := Verify(warn, Options{})
	if err != nil || len(ds) == 0 || ds.HasErrors() {
		t.Errorf("Verify(warny) = %v, %v; want warnings only", ds, err)
	}
}

func TestLayoutFor(t *testing.T) {
	prog, err := asm.Assemble("e: halt", asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := LayoutFor(prog, 0)
	if l.TextBase != prog.TextBase || l.TextEnd != prog.TextEnd() {
		t.Errorf("text bounds wrong: %+v", l)
	}
	if l.DataEnd != prog.DataBase+DefaultHeapSize {
		t.Errorf("zero heap must default: %+v", l)
	}
	if l.Classify(PacketBase) != vm.RegionPacket || l.Classify(StackTop-4) != vm.RegionStack {
		t.Errorf("regions wrong: %+v", l)
	}
}

// TestNewRefusesDataBeyondHeap pins that New refuses a data segment the
// heap budget cannot hold, whether or not the verifier runs, and a heap
// size the memory cannot back; a segment that fills the budget exactly
// loads.
func TestNewRefusesDataBeyondHeap(t *testing.T) {
	app := &App{Name: "big-data", Entry: "e", Source: `
	.data
blob:	.space 8192
	.text
	.global e
e:	la   t0, blob
	li   t1, 8188
	add  t0, t0, t1
	lw   a0, 0(t0)
	ret
`}
	for _, noVerify := range []bool{false, true} {
		_, err := New(app, Options{HeapSize: 4096, NoVerify: noVerify})
		var verr *VerifyError
		if err == nil || errors.As(err, &verr) || !strings.Contains(err.Error(), "8192-byte data segment does not fit the 4096-byte heap") {
			t.Errorf("NoVerify=%v: err = %v, want the data segment refused before verification", noVerify, err)
		}
	}
	if _, err := New(app, Options{HeapSize: 8194}); err == nil || !strings.Contains(err.Error(), "not word aligned") {
		t.Errorf("an unaligned heap size: err = %v, want it refused", err)
	}
	if _, err := New(app, Options{HeapSize: 8192}); err != nil {
		t.Errorf("a data segment that fills the heap: %v", err)
	}
}

func TestLoaderAlloc(t *testing.T) {
	b, err := New(echoApp(0), Options{HeapSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	ld := b.Loader()
	a1, err := ld.Alloc(100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a1%8 != 0 {
		t.Errorf("allocation %#x not aligned", a1)
	}
	a2, err := ld.Alloc(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a2 < a1+100 {
		t.Errorf("allocations overlap: %#x after %#x+100", a2, a1)
	}
	if _, err := ld.Alloc(1<<20, 4); err == nil {
		t.Error("over-budget allocation accepted")
	}
	if _, err := ld.Alloc(4, 3); err == nil || !strings.Contains(err.Error(), "not a power of two") {
		t.Errorf("alignment 3: err = %v, want power-of-two complaint", err)
	}
	// Alignments 1 and 2 ARE powers of two; the rejection must say what
	// is actually wrong (below the word-alignment minimum).
	for _, align := range []uint32{1, 2} {
		_, err := ld.Alloc(4, align)
		if err == nil {
			t.Fatalf("alignment %d accepted", align)
		}
		if strings.Contains(err.Error(), "power of two") {
			t.Errorf("alignment %d: err %q misdescribes a power of two", align, err)
		}
		if !strings.Contains(err.Error(), "minimum word alignment") {
			t.Errorf("alignment %d: err = %v, want minimum-alignment complaint", align, err)
		}
	}
	if ld.HeapNext() < a2+4 {
		t.Errorf("HeapNext = %#x", ld.HeapNext())
	}
}

func TestRunPackets(t *testing.T) {
	b, err := New(echoApp(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pkts := []*trace.Packet{ipPacket(20), ipPacket(40), ipPacket(60)}
	var verdicts []uint32
	recs, err := b.RunPackets(pkts, func(i int, r Result) {
		verdicts = append(verdicts, r.Verdict)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || len(verdicts) != 3 {
		t.Fatalf("records %d, verdicts %d", len(recs), len(verdicts))
	}
	for i, want := range []uint32{20, 40, 60} {
		if verdicts[i] != want {
			t.Errorf("verdict %d = %d, want %d", i, verdicts[i], want)
		}
	}
	if n := b.Collector().Packets(); n != 3 {
		t.Errorf("collector counted %d packets", n)
	}
	s := stats.Summarize(recs)
	if s.Packets != 3 {
		t.Errorf("summary packets = %d", s.Packets)
	}
}

func TestLayoutRegionsDisjoint(t *testing.T) {
	b, err := New(echoApp(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l := b.mem.Layout()
	regions := []struct {
		name      string
		base, end uint32
	}{
		{"text", l.TextBase, l.TextEnd},
		{"packet", l.PacketBase, l.PacketEnd},
		{"data", l.DataBase, l.DataEnd},
		{"stack", l.StackBase, l.StackEnd},
	}
	for i, a := range regions {
		if a.base >= a.end {
			t.Errorf("region %s empty or inverted: [%#x, %#x)", a.name, a.base, a.end)
		}
		for _, bb := range regions[i+1:] {
			if a.base < bb.end && bb.base < a.end {
				t.Errorf("regions %s and %s overlap", a.name, bb.name)
			}
		}
	}
	if l.Classify(vm.ReturnAddress) != vm.RegionNone {
		t.Error("magic return address is mapped")
	}
}

func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want EngineKind
		ok   bool
	}{
		{"threaded", EngineThreaded, true},
		{"", EngineThreaded, true},
		{"interp", EngineInterpreter, true},
		{"interpreter", EngineInterpreter, true},
		{"compiled", 0, false},
		{"bogus", 0, false},
	} {
		got, err := ParseEngine(tc.in)
		if !tc.ok {
			if err == nil || !strings.Contains(err.Error(), "want threaded or interp") {
				t.Errorf("ParseEngine(%q) error = %v, want the unknown-engine error", tc.in, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

func TestBenchAccessors(t *testing.T) {
	b, err := New(echoApp(0), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Program() == nil || b.Collector() == nil || b.BlockMap() == nil || b.Memory() == nil {
		t.Error("accessor returned nil")
	}
	if b.BlockMap().NumBlocks() == 0 {
		t.Error("no blocks in echo app")
	}
}

func TestPoolMatchesSingleCore(t *testing.T) {
	// For a per-packet-stateless application, the pool's records must be
	// byte-identical to a single-core run in packet order.
	app := echoApp(7)
	pkts := make([]*trace.Packet, 40)
	for i := range pkts {
		pkts[i] = ipPacket(20 + i)
	}
	single, err := New(app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.RunPackets(pkts, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(app, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pool.Cores() != 4 {
		t.Fatalf("Cores = %d", pool.Cores())
	}
	got, err := pool.RunPackets(pkts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("pool returned %d records", len(got))
	}
	for i := range want {
		if got[i].Index != i {
			t.Errorf("record %d has index %d", i, got[i].Index)
		}
		if got[i].Instructions != want[i].Instructions ||
			got[i].Unique != want[i].Unique ||
			got[i].PacketAccesses() != want[i].PacketAccesses() ||
			got[i].NonPacketAccesses() != want[i].NonPacketAccesses() {
			t.Errorf("record %d differs: pool %+v, single %+v", i, got[i], want[i])
		}
	}
	// Each core can be inspected afterwards.
	if pool.Bench(0) == nil || pool.Bench(3) == nil {
		t.Error("Bench accessor returned nil")
	}
}

func TestPoolErrorPropagation(t *testing.T) {
	crash := &App{Name: "crash", Source: "e:\nlw a0, 0(zero)\nret", Entry: "e"}
	pool, err := NewPool(crash, 2, Options{NoVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.RunPackets([]*trace.Packet{ipPacket(20), ipPacket(20)}, nil); err == nil {
		t.Error("pool swallowed a core fault")
	}
	if _, err := NewPool(crash, 0, Options{NoVerify: true}); err == nil {
		t.Error("zero-core pool accepted")
	}
	bad := &App{Name: "bad", Source: "frob", Entry: "e"}
	if _, err := NewPool(bad, 2, Options{}); err == nil {
		t.Error("pool accepted unassemblable app")
	}
}

func TestLoaderAllocAtLimit(t *testing.T) {
	b, err := New(echoApp(0), Options{HeapSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ld := b.Loader()
	// Consume almost everything, leaving less than one alignment unit.
	remaining := b.mem.Layout().DataEnd - ld.HeapNext()
	if _, err := ld.Alloc(remaining-2, 4); err != nil {
		t.Fatal(err)
	}
	// The alignment bump would land past the limit; must error, not wrap.
	if _, err := ld.Alloc(1, 64); err == nil {
		t.Error("allocation past the heap limit accepted")
	}
	if _, err := ld.Alloc(4, 4); err == nil {
		t.Error("allocation beyond remaining space accepted")
	}
}
