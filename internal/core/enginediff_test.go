package core_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/packet"
	"repro/internal/route"
	"repro/internal/vm"
)

// enginePair builds two benches for the same application — reference
// interpreter and block-threaded engine — with identical options.
func enginePair(t *testing.T, app func() *core.App, opts core.Options) (interp, threaded *core.Bench) {
	t.Helper()
	o := opts
	o.Engine = core.EngineInterpreter
	interp, err := core.New(app(), o)
	if err != nil {
		t.Fatal(err)
	}
	o.Engine = core.EngineThreaded
	threaded, err = core.New(app(), o)
	if err != nil {
		t.Fatal(err)
	}
	return interp, threaded
}

// TestEngineEquivalenceApps is the system-level half of the engine
// equivalence contract: every bundled application processes a generated
// trace on both engines and must produce bit-identical verdicts, packet
// records (instruction counts, memory accesses, block sets and block
// sequences), coverage footprints, packet-buffer contents, and final
// memory images.
func TestEngineEquivalenceApps(t *testing.T) {
	pkts := mixedSizePackets(t, 30)
	var dsts []uint32
	for _, p := range pkts {
		if h, err := packet.ParseIPv4(p.Data); err == nil {
			dsts = append(dsts, h.Dst)
		}
	}
	tbl := route.TableFromTraffic(dsts, 1024, 16, 1)

	cases := []struct {
		name string
		app  func() *core.App
	}{
		{"radix", func() *core.App { return apps.IPv4Radix(tbl) }},
		{"trie", func() *core.App { return apps.IPv4Trie(tbl) }},
		{"flow", func() *core.App { return apps.FlowClassification(64) }},
		{"tsa", func() *core.App { return apps.TSAApp(0x5453412D31363A31) }},
		{"payload-scan", func() *core.App { return apps.PayloadScan([4]byte{0xDE, 0xAD, 0xBE, 0xEF}) }},
		{"frag", func() *core.App { return apps.Frag(576) }},
	}
	opts := core.Options{KeepRecords: true, Detail: true, Coverage: true}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			interp, threaded := enginePair(t, tc.app, opts)
			for i, p := range pkts {
				wantRes, wantErr := interp.ProcessPacket(p)
				gotRes, gotErr := threaded.ProcessPacket(p)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("packet %d: error divergence: interp %v, threaded %v", i, wantErr, gotErr)
				}
				if wantErr != nil {
					var wf, gf *vm.Fault
					errors.As(wantErr, &wf)
					errors.As(gotErr, &gf)
					if !reflect.DeepEqual(wf, gf) {
						t.Fatalf("packet %d: fault divergence: interp %+v, threaded %+v", i, wf, gf)
					}
					continue
				}
				if wantRes.Verdict != gotRes.Verdict {
					t.Fatalf("packet %d: verdict %d vs %d", i, wantRes.Verdict, gotRes.Verdict)
				}
				if !reflect.DeepEqual(wantRes.Record, gotRes.Record) {
					t.Fatalf("packet %d: record differs:\n  interp   %+v\n  threaded %+v",
						i, wantRes.Record, gotRes.Record)
				}
				wb, gb := interp.PacketBytes(len(p.Data)), threaded.PacketBytes(len(p.Data))
				if !reflect.DeepEqual(wb, gb) {
					t.Fatalf("packet %d: packet buffer differs after processing", i)
				}
			}
			wc, gc := interp.Collector(), threaded.Collector()
			if !reflect.DeepEqual(wc.Records, gc.Records) {
				t.Error("retained packet records differ")
			}
			if wc.InstrMemSize() != gc.InstrMemSize() ||
				wc.DataMemSize() != gc.DataMemSize() ||
				wc.PacketMemSize() != gc.PacketMemSize() {
				t.Errorf("coverage differs: interp (%d,%d,%d), threaded (%d,%d,%d)",
					wc.InstrMemSize(), wc.DataMemSize(), wc.PacketMemSize(),
					gc.InstrMemSize(), gc.DataMemSize(), gc.PacketMemSize())
			}
			if !reflect.DeepEqual(wc.PCCounts, gc.PCCounts) {
				t.Error("per-PC execution counts differ")
			}
			if !interp.Memory().Equal(threaded.Memory()) {
				t.Error("final memory images differ")
			}
		})
	}
}

// TestEngineEquivalenceFaults drives deliberately broken programs
// (loaded with NoVerify) through both engines and checks that the
// surfaced fault — kind, PC, address — is identical.
func TestEngineEquivalenceFaults(t *testing.T) {
	pkts := mixedSizePackets(t, 1)
	cases := []struct {
		name, src string
	}{
		{"unmapped-load", "e:\nlw a0, 0(zero)\nret"},
		{"misaligned-load", "e:\naddi t0, a0, 1\nlw a1, 0(t0)\nret"},
		{"text-store", "e:\nla t0, e\nsw a0, 0(t0)\nret"},
		{"bad-fetch", "e:\naddi t0, a1, 8\njr t0"},
		{"step-limit", "e:\nj e"},
		{"run-off-end", "e:\naddi a0, zero, 7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			app := func() *core.App {
				return &core.App{Name: tc.name, Source: tc.src, Entry: "e"}
			}
			interp, threaded := enginePair(t, app, core.Options{NoVerify: true, StepLimit: 10_000})
			_, wantErr := interp.ProcessPacket(pkts[0])
			_, gotErr := threaded.ProcessPacket(pkts[0])
			if wantErr == nil || gotErr == nil {
				t.Fatalf("expected faults, got interp %v, threaded %v", wantErr, gotErr)
			}
			var wf, gf *vm.Fault
			if !errors.As(wantErr, &wf) || !errors.As(gotErr, &gf) {
				t.Fatalf("non-Fault error: interp %v, threaded %v", wantErr, gotErr)
			}
			if !reflect.DeepEqual(wf, gf) {
				t.Fatalf("fault divergence:\n  interp   %+v\n  threaded %+v", wf, gf)
			}
		})
	}
}

// TestEngineEquivalenceCorpus runs every assemblable program in the
// assembler's fuzz corpus bare on the simulator — framework ABI, both
// engines — and compares the complete final machine state.
func TestEngineEquivalenceCorpus(t *testing.T) {
	for i, src := range asm.FuzzSeeds {
		prog, err := asm.Assemble(src, asm.Options{})
		if err != nil || len(prog.Text) == 0 {
			continue
		}
		layout := core.LayoutFor(prog, 1<<20)
		want := runCorpusProgram(prog, layout, core.EngineInterpreter)
		got := runCorpusProgram(prog, layout, core.EngineThreaded)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("seed %d %q: engines diverge:\n  interp   %+v\n  threaded %+v",
				i, src, want, got)
		}
		if !want.mem.Equal(got.mem) {
			t.Errorf("seed %d %q: final memory images differ", i, src)
		}
	}
}

// corpusState is the observable outcome of a bare corpus run.
type corpusState struct {
	Regs  [isa.NumRegs]uint32
	PC    uint32
	Steps uint64
	Fault *vm.Fault
	mem   *vm.Memory
}

func runCorpusProgram(prog *asm.Program, layout vm.Layout, engine core.EngineKind) corpusState {
	mem := vm.NewMemory()
	mem.WriteBytes(prog.DataBase, prog.Data)
	cpu := vm.New(prog.Text, prog.TextBase, mem)
	cpu.Layout = layout
	cpu.SetReg(isa.A0, layout.PacketBase)
	cpu.SetReg(isa.A1, 64)
	cpu.SetReg(isa.SP, layout.StackEnd)
	cpu.SetReg(isa.RA, vm.ReturnAddress)
	cpu.PC = corpusEntry(prog)

	var err error
	if engine == core.EngineThreaded {
		tprog := vm.Translate(prog.Text, prog.TextBase, analysis.NewBlockMap(prog.Text, prog.TextBase))
		_, _, err = cpu.RunProgram(tprog, 100_000)
	} else {
		_, _, err = cpu.Run(100_000)
	}
	st := corpusState{Regs: cpu.Regs, PC: cpu.PC, Steps: cpu.Steps(), mem: mem}
	if err != nil {
		errors.As(err, &st.Fault)
	}
	return st
}

// corpusEntry mirrors the verifier's default entry resolution: the first
// text-segment global, else the base of the text segment.
func corpusEntry(prog *asm.Program) uint32 {
	for _, g := range prog.Globals {
		if addr, ok := prog.Symbols[g]; ok && addr >= prog.TextBase && addr < prog.TextEnd() {
			return addr
		}
	}
	return prog.TextBase
}

// diffPanicTracer panics with a non-Fault value on the first instruction
// of a chosen packet, standing in for an instrumentation bug.
type diffPanicTracer struct {
	target int
	armed  bool
}

func (p *diffPanicTracer) BeginPacket(index int) { p.armed = index == p.target }
func (p *diffPanicTracer) Instr(pc uint32, in isa.Instruction) {
	if p.armed {
		p.armed = false
		panic("tracer bug")
	}
}
func (p *diffPanicTracer) Mem(pc, addr uint32, size uint8, write bool, region vm.Region) {}

// TestEnginePanicEquivalence pins FaultHostPanic equivalence: a
// panicking tracer (which runs the threaded engine's traced loop)
// surfaces the identical recovered FaultHostPanic on both engines, and
// both benches keep working afterwards.
func TestEnginePanicEquivalence(t *testing.T) {
	pkts := mixedSizePackets(t, 4)
	app := func() *core.App { return apps.FlowClassification(64) }
	interp, threaded := enginePair(t, app, core.Options{})
	interp.AddTracer(&diffPanicTracer{target: 1})
	threaded.AddTracer(&diffPanicTracer{target: 1})

	for i, p := range pkts {
		wantRes, wantErr := interp.ProcessPacket(p)
		gotRes, gotErr := threaded.ProcessPacket(p)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("packet %d: error divergence: interp %v, threaded %v", i, wantErr, gotErr)
		}
		if wantErr != nil {
			var wf, gf *vm.Fault
			if !errors.As(wantErr, &wf) || !errors.As(gotErr, &gf) {
				t.Fatalf("packet %d: non-Fault error: interp %v, threaded %v", i, wantErr, gotErr)
			}
			if wf.Kind != vm.FaultHostPanic || !reflect.DeepEqual(wf, gf) {
				t.Fatalf("packet %d: fault divergence: interp %+v, threaded %+v", i, wf, gf)
			}
			continue
		}
		if wantRes.Verdict != gotRes.Verdict {
			t.Fatalf("packet %d: verdict %d vs %d", i, wantRes.Verdict, gotRes.Verdict)
		}
	}
}
