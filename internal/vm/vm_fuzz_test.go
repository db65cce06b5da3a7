package vm

import (
	"errors"
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
		cpu := New(text, textBase, NewMemory(testLayout(textBase, len(text))))
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
