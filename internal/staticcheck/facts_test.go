package staticcheck_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/staticcheck"
	"repro/internal/vm"
)

// factsFor assembles src and runs the verifier's facts pipeline under
// the framework memory map, returning the translation-facts stats the
// threaded engine would act on.
func factsFor(t *testing.T, src string) vm.TranslateStats {
	t.Helper()
	prog, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	layout := core.LayoutFor(prog, 1<<20)
	_, facts := staticcheck.VerifyWithFacts(prog, staticcheck.Options{Layout: layout})
	p := vm.TranslateWithFacts(prog.Text, prog.TextBase,
		analysis.NewBlockMap(prog.Text, prog.TextBase), facts.Translation())
	return p.Stats()
}

// TestFactsProvePacketAndStackAccess pins the two bread-and-butter
// elisions: packet-header loads through the ABI packet pointer and
// stack spills through a locally adjusted sp.
func TestFactsProvePacketAndStackAccess(t *testing.T) {
	st := factsFor(t, `
.global process_packet
process_packet:
	addi sp, sp, -8
	sw ra, 4(sp)
	lbu t0, 0(a0)
	lbu t1, 9(a0)
	lw ra, 4(sp)
	addi sp, sp, 8
	ret
`)
	if st.UncheckedLoads < 3 { // two packet lbu + the stack reload
		t.Errorf("UncheckedLoads = %d, want >= 3", st.UncheckedLoads)
	}
	if st.UncheckedStores < 1 { // the stack spill
		t.Errorf("UncheckedStores = %d, want >= 1", st.UncheckedStores)
	}
}

// TestFactsFoldConstantBranch pins interval-based branch folding: a
// comparison of constants has one provable direction.
func TestFactsFoldConstantBranch(t *testing.T) {
	st := factsFor(t, `
.global process_packet
process_packet:
	li t0, 5
	blt zero, t0, ok
	sb t0, 0(zero)
ok:
	ret
`)
	if st.FoldedBranches < 1 {
		t.Errorf("FoldedBranches = %d, want >= 1", st.FoldedBranches)
	}
}

// TestFactsElideRedundantMask pins known-bits masking: after a byte
// load the value fits in 8 bits, so andi 0xFF is an identity.
func TestFactsElideRedundantMask(t *testing.T) {
	st := factsFor(t, `
.global process_packet
process_packet:
	lbu t0, 0(a0)
	andi t1, t0, 0xFF
	ret
`)
	if st.ElidedMasks < 1 {
		t.Errorf("ElidedMasks = %d, want >= 1", st.ElidedMasks)
	}
}

// TestFactsLoaderSlotStaysChecked is the soundness scoping test: a
// pointer loaded from a data slot has an unknown value (the loader, not
// the program, initializes it), so a load through it must stay fully
// checked even though the slot load itself is provable.
func TestFactsLoaderSlotStaysChecked(t *testing.T) {
	st := factsFor(t, `
.data
slot: .word 0
.text
.global process_packet
process_packet:
	la t0, slot
	lw t1, 0(t0)
	lbu a0, 0(t1)
	ret
`)
	if st.UncheckedLoads != 1 {
		t.Errorf("UncheckedLoads = %d, want exactly 1 (the slot load; the indirect load must stay checked)", st.UncheckedLoads)
	}
}

// TestFactsDiagsSurface checks that Options.FactsDiags surfaces the
// pipeline's findings as warn-severity diagnostics and that the default
// leaves them out.
func TestFactsDiagsSurface(t *testing.T) {
	src := `
.global process_packet
process_packet:
	li t0, 5
	blt zero, t0, ok
	sb t0, 0(zero)
ok:
	lbu t1, 0(a0)
	andi t1, t1, 0xFF
	ret
`
	prog, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts := staticcheck.Options{Layout: core.LayoutFor(prog, 1<<20)}
	factsChecks := func(ds []staticcheck.Diagnostic) (n int) {
		for _, d := range ds {
			switch d.Check {
			case "const-branch", "redundant-mask", "facts-dead-code":
				n++
				if d.Severity.String() == "error" {
					t.Errorf("facts diagnostic has error severity: %s", d)
				}
			}
		}
		return n
	}
	if n := factsChecks(staticcheck.Verify(prog, opts)); n != 0 {
		t.Fatalf("facts diagnostics surfaced without FactsDiags: %d", n)
	}
	opts.FactsDiags = true
	if n := factsChecks(staticcheck.Verify(prog, opts)); n == 0 {
		t.Fatal("FactsDiags surfaced no facts diagnostics")
	}
}

// TestFactsDump smoke-tests the -facts listing: it must mention the
// proven regions and branch directions of a program that has both.
func TestFactsDump(t *testing.T) {
	prog, err := asm.Assemble(`
.global process_packet
process_packet:
	li t0, 5
	blt zero, t0, ok
	sb t0, 0(zero)
ok:
	lbu t1, 0(a0)
	ret
`, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, facts := staticcheck.VerifyWithFacts(prog, staticcheck.Options{Layout: core.LayoutFor(prog, 1<<20)})
	var sb strings.Builder
	facts.Dump(&sb)
	out := sb.String()
	if !strings.Contains(out, "packet") {
		t.Errorf("dump mentions no packet-region proof:\n%s", out)
	}
	if !strings.Contains(out, "always") {
		t.Errorf("dump mentions no always-taken branch:\n%s", out)
	}
}

// FuzzFactsEngineDiff is the facts pipeline's differential fuzzer: for
// any assemblable source, running the fully-checked reference
// interpreter and the proof-guided threaded translation (facts applied:
// elision, folding) from the verifier's entry under the framework ABI
// must be bit-identical in every observable. Each input also runs at
// every truncated step budget up to min(interpreter steps, 64), so a
// block pass cut short by the budget — which runs the proof-rewritten
// ops — is held to the same contract. This is the soundness contract
// end-to-end — a wrong fact shows up here as an engine divergence. CI
// runs this as a short -fuzz smoke.
func FuzzFactsEngineDiff(f *testing.F) {
	for _, s := range asm.FuzzSeeds {
		f.Add(s)
	}
	f.Add("process_packet:\n\tlbu t0, 0(a0)\n\tandi t0, t0, 0xFF\n\tsw t0, -4(sp)\n\tret")
	f.Add("p:\n\tli t0, 3\nx:\n\tsrli t1, t2, 31\n\tslli t2, t2, 1\n\tandi t3, t4, 0xFF\n\tor t3, t3, t5\n\tadd t3, t3, a0\n\tlbu t3, 0(t3)\n\taddi t5, t5, 1\n\tblt t5, t0, x\n\tret")
	// An untame program: the verifier exports no facts, so the threaded
	// engine runs the fully-checked translation.
	f.Add(".globl out\naddi a0, zero, 0\nout: halt")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := asm.Assemble(src, asm.Options{})
		if err != nil || len(prog.Text) == 0 || len(prog.Text) > 4096 {
			t.Skip()
		}
		layout := core.LayoutFor(prog, 1<<20)
		_, facts := staticcheck.VerifyWithFacts(prog, staticcheck.Options{Layout: layout})
		tp := vm.TranslateWithFacts(prog.Text, prog.TextBase,
			analysis.NewBlockMap(prog.Text, prog.TextBase), facts.Translation())

		run := func(threaded bool, budget uint64) (*vm.CPU, uint64, vm.StopReason, *vm.Fault) {
			mem := vm.NewMemory()
			mem.WriteBytes(prog.DataBase, prog.Data)
			cpu := vm.New(prog.Text, prog.TextBase, mem)
			cpu.Layout = layout
			cpu.SetReg(isa.A0, layout.PacketBase)
			cpu.SetReg(isa.A1, 64)
			cpu.SetReg(isa.SP, layout.StackEnd)
			cpu.SetReg(isa.RA, vm.ReturnAddress)
			cpu.PC = entryAddr(prog)
			var (
				steps  uint64
				reason vm.StopReason
				rerr   error
			)
			if threaded {
				steps, reason, rerr = cpu.RunProgram(tp, budget)
			} else {
				steps, reason, rerr = cpu.Run(budget)
			}
			var fault *vm.Fault
			if rerr != nil && !errors.As(rerr, &fault) {
				t.Fatalf("non-Fault error: %v", rerr)
			}
			return cpu, steps, reason, fault
		}

		diff := func(budget uint64) uint64 {
			ic, isteps, ireason, ifault := run(false, budget)
			tc, tsteps, treason, tfault := run(true, budget)
			if ic.Regs != tc.Regs {
				t.Fatalf("budget %d: registers diverge:\ninterp  %v\nthreaded %v", budget, ic.Regs, tc.Regs)
			}
			if ic.PC != tc.PC || isteps != tsteps || ireason != treason {
				t.Fatalf("budget %d: pc/steps/reason diverge: interp (%#x,%d,%v) threaded (%#x,%d,%v)",
					budget, ic.PC, isteps, ireason, tc.PC, tsteps, treason)
			}
			if (ifault == nil) != (tfault == nil) {
				t.Fatalf("budget %d: fault presence diverges: interp %v threaded %v", budget, ifault, tfault)
			}
			if ifault != nil && (ifault.Kind != tfault.Kind || ifault.PC != tfault.PC || ifault.Addr != tfault.Addr) {
				t.Fatalf("budget %d: faults diverge: interp %+v threaded %+v", budget, ifault, tfault)
			}
			if ic.PacketWriteHigh() != tc.PacketWriteHigh() {
				t.Fatalf("budget %d: packet watermark diverges: %d vs %d", budget, ic.PacketWriteHigh(), tc.PacketWriteHigh())
			}
			if !ic.Mem.Equal(tc.Mem) {
				t.Fatalf("budget %d: memory images diverge", budget)
			}
			return isteps
		}

		steps := diff(100_000)
		for budget := uint64(0); budget <= min(steps, 64); budget++ {
			diff(budget)
		}
	})
}
