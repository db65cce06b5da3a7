package staticcheck_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/staticcheck"
	"repro/internal/vm"
)

// TestVerifierSoundOnCorpus is the verifier's soundness contract: a
// program the simulator executes to completion (halt or return) without
// any fault must never receive an error-severity diagnostic. Warnings
// are fine — they flag suspicious-but-runnable code by design. The
// corpus is the assembler's fuzz seed set, which the fuzzer also grows.
func TestVerifierSoundOnCorpus(t *testing.T) {
	for i, src := range asm.FuzzSeeds {
		prog, err := asm.Assemble(src, asm.Options{})
		if err != nil {
			continue // not this test's concern
		}
		layout := core.LayoutFor(prog, 1<<20)
		if runsClean(prog, layout) {
			ds := staticcheck.Verify(prog, staticcheck.Options{Layout: layout})
			if ds.HasErrors() {
				t.Errorf("seed %d %q: runs clean but verifier rejects it:\n%s",
					i, src, ds.Errors())
			}
		}
	}
}

// runsClean executes prog under the framework ABI (registers zeroed,
// a0/a1/sp/ra seeded, pc at the first entry) and reports whether it
// halts or returns without faulting.
func runsClean(prog *asm.Program, layout vm.Layout) bool {
	if len(prog.Text) == 0 {
		return false
	}
	mem := vm.NewMemory(layout)
	mem.WriteBytes(prog.DataBase, prog.Data)
	cpu := vm.New(prog.Text, prog.TextBase, mem)
	cpu.SetReg(isa.A0, layout.PacketBase)
	cpu.SetReg(isa.A1, 64)
	cpu.SetReg(isa.SP, layout.StackEnd)
	cpu.SetReg(isa.RA, vm.ReturnAddress)
	cpu.PC = entryAddr(prog)
	_, _, err := cpu.Run(100_000)
	return err == nil
}

// entryAddr mirrors the verifier's default entry resolution: the first
// text-segment global, else the base of the text segment.
func entryAddr(prog *asm.Program) uint32 {
	for _, g := range prog.Globals {
		if addr, ok := prog.Symbols[g]; ok && addr >= prog.TextBase && addr < prog.TextEnd() {
			return addr
		}
	}
	return prog.TextBase
}
