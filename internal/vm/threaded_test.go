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

// TestPageCacheSeesHostWrites runs the threaded engine twice with a host
// write in between, on a page the first run read while unallocated: the
// page table must not serve a stale zero page.
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

// TestPageTableFollowsLayoutAndMemory reruns a program on one CPU after
// changing its public Layout and Mem fields: first shrinking the data
// region below an address a run already read through the page table,
// then swapping in another memory. Each rerun must fault or read exactly
// as the interpreter does on the same state.
func TestPageTableFollowsLayoutAndMemory(t *testing.T) {
	const base = 0x00400000
	text := []isa.Instruction{
		ins(isa.LW, 4, 1, 0, 0),
		ins(isa.LW, 5, 1, 0, 0),
		ins(isa.HALT, 0, 0, 0, 0),
	}
	prog := Translate(text, base, analysis.NewBlockMap(text, base))
	cpu := New(text, base, NewMemory())
	cpu.Layout = testLayout(base, len(text))
	addr := cpu.Layout.DataBase + 0x2000
	cpu.Mem.Write32(addr, 0x600D)

	run := func(step string, want uint32, wantErr error) {
		t.Helper()
		ref := New(text, base, cpu.Mem)
		ref.Layout = cpu.Layout
		for _, c := range []*CPU{cpu, ref} {
			c.Regs = [isa.NumRegs]uint32{1: addr}
			c.PC = base
		}
		_, _, err := cpu.RunProgram(prog, 100)
		_, _, refErr := ref.Run(100)
		if !reflect.DeepEqual(err, refErr) || cpu.Regs != ref.Regs || cpu.PC != ref.PC {
			t.Fatalf("%s: threaded err=%v regs=%#x pc=%#x, interpreter err=%v regs=%#x pc=%#x",
				step, err, cpu.Regs, cpu.PC, refErr, ref.Regs, ref.PC)
		}
		if !reflect.DeepEqual(err, wantErr) || (err == nil && cpu.Regs[5] != want) {
			t.Fatalf("%s: err=%v r5=%#x, want err=%v r5=%#x", step, err, cpu.Regs[5], wantErr, want)
		}
	}
	run("first run", 0x600D, nil)
	cpu.Layout.DataEnd = addr
	run("data region shrunk", 0, &Fault{Kind: FaultUnmapped, PC: base, Addr: addr})
	cpu.Layout.DataEnd = testLayout(base, len(text)).DataEnd
	run("data region restored", 0x600D, nil)
	cpu.Mem = NewMemory()
	cpu.Mem.Write32(addr, 0xBEEF)
	run("memory replaced", 0xBEEF, nil)
	cpu.Mem = NewMemory()
	run("memory replaced by an empty one", 0, nil)
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
			cpu := New(text, base, NewMemory())
			cpu.Layout = testLayout(base, len(text))
			cpu.Regs[1] = cpu.Layout.PacketBase
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
		c.Account = NewAccount(blocks, c.Layout)
		packet := func(word uint32) {
			c.Mem.Write32(c.Layout.PacketBase, word)
			c.Regs[isa.A0], c.Regs[isa.RA], c.PC = c.Layout.PacketBase, ReturnAddress, p.TextBase
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

// TestAccountRestartedPass stops a packet one instruction into a block,
// restarts it from the entry on the block-threaded engine, and checks
// that the restarted whole-block pass still counts every instruction:
// a pass that stopped short of its block's end must not mark the block
// as fully seen.
func TestAccountRestartedPass(t *testing.T) {
	c, p := buildCPU(t, "addi t0, t0, 1\naddi t0, t0, 1\naddi t0, t0, 1\nhalt")
	blocks := analysis.NewBlockMap(p.Text, p.TextBase)
	c.Account = NewAccount(blocks, c.Layout)
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
