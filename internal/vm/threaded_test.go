package vm

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/isa"
)

// testLayout is the standard layout the threaded-engine tests run under.
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

// ins builds an instruction tersely.
func ins(op isa.Opcode, rd, rs1, rs2 isa.Reg, imm int32) isa.Instruction {
	return isa.Instruction{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm}
}

// TestPageCacheSeesHostWrites runs a data load on each engine from
// memory nothing wrote, after a host write grows it, and after the CPU's
// memory is swapped for one whose data region ends at the load's address
// and then for an empty one: each run must read, or fault on, the memory
// the CPU holds.
func TestPageCacheSeesHostWrites(t *testing.T) {
	const base = 0x00400000
	text := []isa.Instruction{
		ins(isa.LW, 4, 1, 0, 0),
		ins(isa.HALT, 0, 0, 0, 0),
	}
	layout := testLayout(base, len(text))
	short := layout
	addr := layout.DataBase + 0x2000
	short.DataEnd = addr
	prog := Translate(text, base, analysis.NewBlockMap(text, base))
	for _, threaded := range []bool{false, true} {
		cpu := New(text, base, NewMemory(layout))
		run := func(step string, want uint32, wantErr error) {
			t.Helper()
			cpu.Regs[1], cpu.Regs[4], cpu.PC = addr, 0xFFFFFFFF, base
			var err error
			if threaded {
				_, _, err = cpu.RunProgram(prog, 100)
			} else {
				_, _, err = cpu.Run(100)
			}
			if !reflect.DeepEqual(err, wantErr) || (err == nil && cpu.Regs[4] != want) {
				t.Fatalf("threaded=%v, %s: err=%v r4=%#x, want err=%v r4=%#x", threaded, step, err, cpu.Regs[4], wantErr, want)
			}
		}
		run("untouched memory", 0, nil)
		cpu.Mem.Write32(addr, 0xCAFEF00D)
		run("after a host write", 0xCAFEF00D, nil)
		cpu.Mem = NewMemory(short)
		run("memory with a shorter data region", 0, &Fault{Kind: FaultUnmapped, PC: base, Addr: addr})
		cpu.Mem = NewMemory(layout)
		run("memory replaced by an empty one", 0, nil)
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
	cpu := New(text, base, NewMemory(testLayout(base, len(text))))
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

// recorder logs every tracer event it receives, in order.
type recorder struct{ log []string }

func (r *recorder) Mem(pc, addr uint32, size uint8, write bool, region Region) {
	r.log = append(r.log, fmt.Sprintf("mem %#x %#x", pc, addr))
}
func (r *recorder) Pass(first, last int) {
	r.log = append(r.log, fmt.Sprintf("pass %d-%d", first, last))
}

// TestTracerPassStreams pins both engines' event streams on a loop: the
// threaded loop reports block passes and the interpreter
// one-instruction passes, each after its instructions' Mem events, a
// MultiTracer hands every member the same stream, and both engines end
// in the same state.
func TestTracerPassStreams(t *testing.T) {
	const base = 0x00400000
	text := []isa.Instruction{
		ins(isa.ADDI, 4, 0, 0, 3),
		ins(isa.LW, 5, 1, 0, 0), // loop: three iterations
		ins(isa.ADDI, 4, 4, 0, -1),
		ins(isa.BNE, 0, 4, 0, -3),
		ins(isa.HALT, 0, 0, 0, 0),
	}
	const steps = 1 + 3*3 + 1
	stream := func(loop ...string) []string {
		s := []string{"pass 0-0"}
		for i := 0; i < 3; i++ {
			s = append(append(s, "mem 0x400004 0x20000000"), loop...)
		}
		return append(s, "pass 4-4")
	}
	want := map[bool][]string{
		true:  stream("pass 1-3"),
		false: stream("pass 1-1", "pass 2-2", "pass 3-3"),
	}
	prog := Translate(text, base, analysis.NewBlockMap(text, base))
	for _, members := range []int{1, 2} {
		var cpus []*CPU
		for _, threaded := range []bool{true, false} {
			rs := []*recorder{{}, {}}[:members]
			var tr Tracer = rs[0]
			if members > 1 {
				tr = MultiTracer{rs[0], rs[1]}
			}
			cpu := New(text, base, NewMemory(testLayout(base, len(text))))
			cpu.Regs[1] = cpu.Mem.Layout().PacketBase
			cpu.PC = base
			cpu.Tracer = tr
			run := cpu.Run
			if threaded {
				run = func(max uint64) (uint64, StopReason, error) { return cpu.RunProgram(prog, max) }
			}
			if n, _, err := run(100); err != nil || n != steps {
				t.Fatalf("threaded=%v, %d members: ran %d steps (%v), want %d", threaded, members, n, err, steps)
			}
			for i, r := range rs {
				if !reflect.DeepEqual(r.log, want[threaded]) {
					t.Errorf("threaded=%v: member %d of %d saw %q, want %q", threaded, i, members, r.log, want[threaded])
				}
			}
			cpus = append(cpus, cpu)
		}
		if a, b := cpus[0], cpus[1]; a.Regs != b.Regs || a.PC != b.PC || a.Steps() != b.Steps() {
			t.Errorf("threaded regs=%v pc=%#x steps=%d, interpreter regs=%v pc=%#x steps=%d",
				a.Regs, a.PC, a.Steps(), b.Regs, b.PC, b.Steps())
		}
	}
}

// TestReadBytesPageRuns covers ReadBytes over runs inside the packet
// slice, across its end and wholly past it.
func TestReadBytesPageRuns(t *testing.T) {
	m := NewMemory(memLayout)
	base := memLayout.PacketBase
	m.WriteBytes(base+minGrow-3, []byte{1, 2, 3, 4, 5, 6})
	m.WriteBytes(base+3*minGrow+7, []byte{0xAB})
	if got, want := m.ReadBytes(base+minGrow-3, 6), []byte{1, 2, 3, 4, 5, 6}; !reflect.DeepEqual(got, want) {
		t.Fatalf("read across 4 KiB = %v, want %v", got, want)
	}
	// A run over written and untouched bytes, ending past the slice.
	span := m.ReadBytes(base, 8*minGrow)
	if span[minGrow-3] != 1 || span[minGrow+2] != 6 || span[3*minGrow+7] != 0xAB {
		t.Fatal("span lost a written byte")
	}
	for _, i := range []int{2 * minGrow, 6 * minGrow, 8*minGrow - 1} {
		if span[i] != 0 {
			t.Fatalf("untouched byte %#x reads %#x", i, span[i])
		}
	}
	if m.Extent(RegionPacket) != 4*minGrow {
		t.Fatalf("extent %#x, want %#x", m.Extent(RegionPacket), 4*minGrow)
	}
}

// TestAccountEpochWrap runs the packet whose epoch stamp wraps past
// 2^32 on each engine, first on a fresh account and then after a packet
// stamped epoch 1 left its stamps behind: the account must read as a
// fresh account's, the stale stamps forgotten.
func TestAccountEpochWrap(t *testing.T) {
	// A branch over one block, skipped when the packet's first word is
	// zero, so the earlier packet ran a block the wrapped one does not.
	const src = "lw t0, 0(a0)\nbeq t0, zero, skip\naddi t1, t1, 1\nskip:\nret"
	type state struct {
		Instructions uint64
		Unique       int
		Accesses     [RegionStack + 1][2]uint64
		Blocks       []int
	}
	run := func(threaded, warm bool, epoch uint32) state {
		c, p := buildCPU(t, src)
		blocks := analysis.NewBlockMap(p.Text, p.TextBase)
		prog := Translate(p.Text, p.TextBase, blocks)
		c.Account = NewAccount(blocks, c.Mem.Layout())
		packet := func(word uint32) {
			c.Mem.Write32(c.Mem.Layout().PacketBase, word)
			c.Regs[isa.A0], c.Regs[isa.RA], c.PC = c.Mem.Layout().PacketBase, ReturnAddress, p.TextBase
			c.Account.Begin(false)
			var err error
			if threaded {
				_, _, err = c.RunProgram(prog, 100)
			} else {
				_, _, err = c.Run(100)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if warm {
			packet(1)
		}
		c.Account.epoch = epoch
		packet(0)
		a := c.Account
		return state{a.Instructions, a.Unique, a.Accesses, a.AppendBlocks(nil)}
	}
	for _, threaded := range []bool{false, true} {
		want := run(threaded, false, 0)
		for _, warm := range []bool{false, true} {
			if got := run(threaded, warm, math.MaxUint32); !reflect.DeepEqual(got, want) {
				t.Errorf("threaded=%v warm=%v: wrapped account %+v, want %+v", threaded, warm, got, want)
			}
		}
	}
}

// TestAccountUnion: the union of two accounts' coverage, each of which
// ran one packet, is the coverage of one account that ran both, also
// when the receiving account never ran a packet.
func TestAccountUnion(t *testing.T) {
	const src = "lw t0, 0(a0)\nbeq t0, zero, skip\nsw t0, 4(a0)\naddi sp, sp, -4\nsw t0, 0(sp)\nskip:\nret"
	run := func(words ...uint32) *Account {
		c, p := buildCPU(t, src)
		c.Account = NewAccount(analysis.NewBlockMap(p.Text, p.TextBase), c.Mem.Layout())
		for _, w := range words {
			c.Mem.Write32(c.Mem.Layout().PacketBase, w)
			c.Regs[isa.A0], c.Regs[isa.RA], c.Regs[isa.SP] = c.Mem.Layout().PacketBase, ReturnAddress, c.Mem.Layout().StackEnd
			c.PC = p.TextBase
			c.Account.Begin(true)
			if _, _, err := c.Run(100); err != nil {
				t.Fatal(err)
			}
		}
		return c.Account
	}
	both, split, empty := run(0, 1), run(0), run()
	split.Union(run(1))
	empty.Union(both)
	for r := RegionText; r <= RegionStack; r++ {
		if split.Touched(r) != both.Touched(r) || empty.Touched(r) != both.Touched(r) {
			t.Errorf("region %d: union touches %d and %d, one account %d", r, split.Touched(r), empty.Touched(r), both.Touched(r))
		}
	}
	if both.Touched(RegionText) <= run(0).Touched(RegionText) || both.Touched(RegionStack) == 0 {
		t.Fatal("the packets do not cover different instructions and words")
	}
}

// TestAccountRestartedPass stops a packet one instruction into a block,
// restarts it from the entry on the block-threaded engine, and checks
// that the restarted whole-block pass still counts every instruction:
// a pass that stopped short of its block's end must not mark the block
// as fully seen.
func TestAccountRestartedPass(t *testing.T) {
	c, p := buildCPU(t, "addi t0, t0, 1\naddi t0, t0, 1\naddi t0, t0, 1\nhalt")
	blocks := analysis.NewBlockMap(p.Text, p.TextBase)
	c.Account = NewAccount(blocks, c.Mem.Layout())
	c.Account.Begin(false)
	if _, _, err := c.Run(1); !errors.Is(err, FaultStepLimit) {
		t.Fatalf("first run: %v, want a step-limit stop", err)
	}
	c.PC = p.TextBase
	if _, _, err := c.RunProgram(Translate(p.Text, p.TextBase, blocks), 100); err != nil {
		t.Fatal(err)
	}
	if a := c.Account; a.Instructions != 5 || a.Unique != 4 {
		t.Errorf("Instructions, Unique = %d, %d, want 5, 4", a.Instructions, a.Unique)
	}
}

// TestMicroOpSize pins the micro-op at 8 bytes: the dispatch loop reads
// each one with a single load and keeps it in a register.
func TestMicroOpSize(t *testing.T) {
	if n := reflect.TypeOf(microOp(0)).Size(); n != 8 {
		t.Fatalf("microOp is %d bytes, want 8", n)
	}
}
