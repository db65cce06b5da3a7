package vm

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/isa"
)

// FuzzVM feeds the simulator arbitrary instruction streams (including
// opcodes past the decodable range) over a standard layout and asserts
// the robustness contract the run engine's fault policies depend on:
// execution never panics, every failure is a *Fault, and the zero
// register stays zero. CI runs this as a short -fuzz smoke.
func FuzzVM(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{byte(isa.HALT), 0, 0, 0, 0, 0})
	f.Add([]byte{
		byte(isa.LW), 1, 2, 0, 0x10, 0x00, // lw r1, imm(r2)
		byte(isa.SW), 1, 3, 0, 0xFE, 0xFF, // sw r1, imm(r3)
		byte(isa.JALR), 0, 1, 0, 0, 0,
	})
	f.Add([]byte{255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, b []byte) {
		n := len(b) / 6
		if n == 0 || n > 4096 {
			t.Skip()
		}
		text := make([]isa.Instruction, n)
		for i := 0; i < n; i++ {
			w := b[i*6 : i*6+6]
			text[i] = isa.Instruction{
				// Reach a little past numOpcodes so undecodable
				// instructions (FaultBadInstr) are exercised too.
				Op:  isa.Opcode(int(w[0]) % (isa.NumOpcodes + 3)),
				Rd:  isa.Reg(w[1] % isa.NumRegs),
				Rs1: isa.Reg(w[2] % isa.NumRegs),
				Rs2: isa.Reg(w[3] % isa.NumRegs),
				Imm: int32(int16(uint16(w[4]) | uint16(w[5])<<8)),
			}
		}
		const textBase = 0x00400000
		cpu := New(text, textBase, NewMemory())
		cpu.Layout.PacketBase = 0x20000000
		cpu.Layout.PacketEnd = 0x20010000
		cpu.Layout.DataBase = 0x10000000
		cpu.Layout.DataEnd = 0x10100000
		cpu.Layout.StackBase = 0x7FFF0000
		cpu.Layout.StackEnd = 0x80000000
		cpu.Regs[1] = 0x20000000
		cpu.Regs[2] = 0x10000000
		cpu.Regs[3] = 0x7FFF8000
		cpu.PC = textBase

		_, _, err := cpu.Run(50_000)
		if err != nil {
			var fault *Fault
			if !errors.As(err, &fault) {
				t.Fatalf("non-Fault error from Run: %v", err)
			}
			if fault.Kind == FaultNone {
				t.Fatalf("fault with FaultNone kind: %+v", fault)
			}
		}
		if cpu.Regs[isa.Zero] != 0 {
			t.Fatalf("zero register clobbered: %#x", cpu.Regs[isa.Zero])
		}
	})
}

// FuzzEngineDiff is the differential fuzzer behind the engine-equivalence
// contract: arbitrary instruction streams (same input encoding as FuzzVM)
// run through the reference interpreter and the block-threaded engine,
// untraced and traced, and every observable — registers, final PC, step
// count, stop reason, fault kind/PC/Addr, packet watermark, memory image,
// tracer event streams — must be bit-identical. CI runs this as a short
// -fuzz smoke.
// seedProg encodes instructions in the fuzzers' 6-byte wire form, for
// seeding structured idioms (hot app loops, boundary accesses) that
// random mutation is slow to discover.
func seedProg(ins ...isa.Instruction) []byte {
	b := make([]byte, 0, len(ins)*6)
	for _, in := range ins {
		b = append(b, byte(in.Op), byte(in.Rd), byte(in.Rs1), byte(in.Rs2),
			byte(uint16(in.Imm)), byte(uint16(in.Imm)>>8))
	}
	return b
}

func FuzzEngineDiff(f *testing.F) {
	f.Add([]byte{byte(isa.HALT), 0, 0, 0, 0, 0})
	// The TSA sub-key walk shape: the srli/slli/andi/or/add bit-extract
	// chain, a checked table load, and the slli/or/xor/slli/or/addi/blt
	// tail — the hottest loop in the bundled apps, with the loop latch
	// taken four times and then falling through to a return.
	f.Add(seedProg(
		isa.Instruction{Op: isa.ORI, Rd: 10, Rs1: isa.Zero, Imm: 4},
		isa.Instruction{Op: isa.SRLI, Rd: 4, Rs1: 5, Imm: 31},
		isa.Instruction{Op: isa.SLLI, Rd: 5, Rs1: 5, Imm: 1},
		isa.Instruction{Op: isa.ANDI, Rd: 6, Rs1: 7, Imm: 0xFF},
		isa.Instruction{Op: isa.OR, Rd: 6, Rs1: 6, Rs2: 8},
		isa.Instruction{Op: isa.ADD, Rd: 6, Rs1: 6, Rs2: 1},
		isa.Instruction{Op: isa.LBU, Rd: 6, Rs1: 6, Imm: 0},
		isa.Instruction{Op: isa.SLLI, Rd: 7, Rs1: 7, Imm: 1},
		isa.Instruction{Op: isa.OR, Rd: 7, Rs1: 7, Rs2: 4},
		isa.Instruction{Op: isa.XOR, Rd: 4, Rs1: 4, Rs2: 6},
		isa.Instruction{Op: isa.SLLI, Rd: 9, Rs1: 9, Imm: 1},
		isa.Instruction{Op: isa.OR, Rd: 9, Rs1: 9, Rs2: 4},
		isa.Instruction{Op: isa.ADDI, Rd: 8, Rs1: 8, Imm: 1},
		isa.Instruction{Op: isa.BLT, Rs1: 8, Rs2: 10, Imm: -13},
		isa.Instruction{Op: isa.JALR, Rs1: 15},
	))
	// LUI+ORI constant build and ADDI+JAL call setup, then AND+BNE on
	// the return path.
	f.Add(seedProg(
		isa.Instruction{Op: isa.LUI, Rd: 4, Imm: 5},
		isa.Instruction{Op: isa.ORI, Rd: 4, Rs1: 4, Imm: 0x41},
		isa.Instruction{Op: isa.ADDI, Rd: 5, Rs1: 4, Imm: 1},
		isa.Instruction{Op: isa.JAL, Rd: 15, Imm: 1},
		isa.Instruction{Op: isa.HALT},
		isa.Instruction{Op: isa.AND, Rd: 6, Rs1: 4, Rs2: 5},
		isa.Instruction{Op: isa.BNE, Rs1: 6, Rs2: isa.Zero, Imm: 0},
		isa.Instruction{Op: isa.JALR, Rs1: 15},
	))
	// Boundary-straddling memory: a word load crossing a 4 KiB page
	// inside the packet region, a halfword at an odd address (alignment
	// fault path), and a store one byte short of the region end.
	f.Add(seedProg(
		isa.Instruction{Op: isa.LW, Rd: 4, Rs1: 1, Imm: 4094},
		isa.Instruction{Op: isa.LH, Rd: 5, Rs1: 1, Imm: 3},
		isa.Instruction{Op: isa.SB, Rd: 4, Rs1: 1, Imm: 255},
		isa.Instruction{Op: isa.JALR, Rs1: 15},
	))
	// Off-by-one control flow: a branch targeting the program's last
	// instruction and a branch falling off the end of text.
	f.Add(seedProg(
		isa.Instruction{Op: isa.BEQ, Rs1: isa.Zero, Rs2: isa.Zero, Imm: 1},
		isa.Instruction{Op: isa.ADDI, Rd: 4, Rs1: 4, Imm: 1},
		isa.Instruction{Op: isa.BGE, Rs1: 4, Rs2: isa.Zero, Imm: 1},
	))
	f.Add([]byte{
		byte(isa.ADDI), 4, 0, 0, 10, 0,
		byte(isa.ADDI), 4, 4, 0, 0xFF, 0xFF,
		byte(isa.BNE), 0, 4, 0, 0xFF, 0xFF,
		byte(isa.JALR), 0, 15, 0, 0, 0,
	})
	f.Add([]byte{
		byte(isa.LW), 4, 1, 0, 0, 0,
		byte(isa.SW), 4, 3, 0, 4, 0,
		byte(isa.SB), 4, 1, 0, 200, 0,
		byte(isa.JAL), 15, 0, 0, 0xFC, 0xFF,
	})
	f.Add([]byte{255, 255, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, b []byte) {
		n := len(b) / 6
		if n == 0 || n > 4096 {
			t.Skip()
		}
		text := make([]isa.Instruction, n)
		for i := 0; i < n; i++ {
			w := b[i*6 : i*6+6]
			text[i] = isa.Instruction{
				Op:  isa.Opcode(int(w[0]) % (isa.NumOpcodes + 3)),
				Rd:  isa.Reg(w[1] % isa.NumRegs),
				Rs1: isa.Reg(w[2] % isa.NumRegs),
				Rs2: isa.Reg(w[3] % isa.NumRegs),
				Imm: int32(int16(uint16(w[4]) | uint16(w[5])<<8)),
			}
		}
		const textBase = 0x00400000
		const maxSteps = 50_000
		seed := func(c *CPU) {
			c.Regs[1] = 0x20000000
			c.Regs[2] = 0x10000000
			c.Regs[3] = 0x7FFF8000
			c.Regs[15] = ReturnAddress
		}
		want := runEngine(t, text, textBase, maxSteps, false, nil, seed)
		got := runEngine(t, text, textBase, maxSteps, true, nil, seed)
		requireSameResult(t, want, got, "untraced")

		wt := &recordingTracer{}
		gt := &recordingTracer{}
		want = runEngine(t, text, textBase, maxSteps, false, wt, seed)
		got = runEngine(t, text, textBase, maxSteps, true, gt, seed)
		requireSameResult(t, want, got, "traced")
		if !reflect.DeepEqual(wt.instrs, gt.instrs) {
			t.Fatalf("Instr event streams differ (%d vs %d events)", len(wt.instrs), len(gt.instrs))
		}
		if !reflect.DeepEqual(wt.mems, gt.mems) {
			t.Fatalf("Mem event streams differ (%d vs %d events)", len(wt.mems), len(gt.mems))
		}
	})
}
