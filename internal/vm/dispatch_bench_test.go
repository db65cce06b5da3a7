package vm

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/isa"
)

// dispatchProgram is a synthetic packet-processing kernel: a tight loop
// that loads packet words, mixes them into an accumulator, and stores
// the running hash to the stack — enough ALU, memory, and branch work to
// exercise every dispatch path without app/framework overhead.
func dispatchProgram() []isa.Instruction {
	return []isa.Instruction{
		{Op: isa.ADDI, Rd: 4, Rs1: isa.Zero, Imm: 256}, // counter
		{Op: isa.ADDI, Rd: 5, Rs1: isa.Zero, Imm: 0},   // accumulator
		{Op: isa.ADDI, Rd: 7, Rs1: 1, Imm: 0},          // cursor = packet base
		// loop:
		{Op: isa.LW, Rd: 6, Rs1: 7, Imm: 0},
		{Op: isa.ADD, Rd: 5, Rs1: 5, Rs2: 6},
		{Op: isa.XOR, Rd: 5, Rs1: 5, Rs2: 4},
		{Op: isa.SW, Rd: 5, Rs1: 3, Imm: -8},
		{Op: isa.ANDI, Rd: 8, Rs1: 4, Imm: 0x3C},
		{Op: isa.ADD, Rd: 7, Rs1: 1, Rs2: 8},
		{Op: isa.ADDI, Rd: 4, Rs1: 4, Imm: -1},
		{Op: isa.BNE, Rd: 0, Rs1: 4, Rs2: isa.Zero, Imm: -8}, // -> loop
		{Op: isa.HALT},
	}
}

// countingTracer is the cheapest possible observer — a counter per
// event kind — so the traced benchmarks measure dispatch + hook
// overhead, not tracer work. Threaded rows take block passes and the
// interpreter rows one-instruction passes.
type countingTracer struct {
	mems, passes, passed uint64
}

func (t *countingTracer) Mem(pc, addr uint32, size uint8, write bool, region Region) {
	t.mems++
}
func (t *countingTracer) Pass(first, last int) {
	t.passes++
	t.passed += uint64(last-first) + 1
}

// BenchmarkVMDispatch measures raw simulator dispatch across the
// engine/tracing combinations on the synthetic kernel. The instrs/sec
// metric is the simulator's headline speed; the threaded/traced=false
// row is the per-packet hot path the block-threaded engine exists for.
func BenchmarkVMDispatch(b *testing.B) {
	text := dispatchProgram()
	const textBase = 0x00400000
	blocks := analysis.NewBlockMap(text, textBase)
	tprog := Translate(text, textBase, blocks)

	for _, engine := range []string{"threaded", "interp"} {
		for _, traced := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/traced=%v", engine, traced), func(b *testing.B) {
				mem := NewMemory(testLayout(textBase, len(text)))
				cpu := New(text, textBase, mem)
				if traced {
					cpu.Tracer = &countingTracer{}
				}
				// Place a payload at the packet base, like the framework
				// does before every ProcessPacket: the kernel's loads hit
				// the grown packet slice, not the zero-read path past it.
				payload := make([]byte, 64)
				for i := range payload {
					payload[i] = byte(i*7 + 3)
				}
				mem.WriteBytes(0x20000000, payload)
				var steps uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cpu.Regs[1] = 0x20000000
					cpu.Regs[3] = 0x7FFF8000
					cpu.PC = textBase
					before := cpu.Steps()
					var err error
					switch engine {
					case "threaded":
						_, _, err = cpu.RunProgram(tprog, 1<<30)
					default:
						_, _, err = cpu.Run(1 << 30)
					}
					if err != nil {
						b.Fatal(err)
					}
					steps += cpu.Steps() - before
				}
				b.StopTimer()
				if sec := b.Elapsed().Seconds(); sec > 0 {
					b.ReportMetric(float64(steps)/sec, "instrs/sec")
				}
				b.ReportMetric(float64(steps)/float64(b.N), "instrs/op")
			})
		}
	}
}
