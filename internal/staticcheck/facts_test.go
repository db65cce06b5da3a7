package staticcheck_test

import (
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

// TestFactsFoldConstantBranch pins interval-based branch facts: a
// comparison of constants has one provable direction, which Facts.Branch
// records and the const-branch diagnostic reports.
func TestFactsFoldConstantBranch(t *testing.T) {
	prog, err := asm.Assemble(`
.global process_packet
process_packet:
	li t0, 5
	blt zero, t0, ok
	sb t0, 0(zero)
ok:
	ret
`, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds, facts := staticcheck.VerifyWithFacts(prog, staticcheck.Options{
		Layout: core.LayoutFor(prog, 1<<20), FactsDiags: true})
	blt := 0
	for prog.Text[blt].Op != isa.BLT {
		blt++
	}
	if facts.Branch[blt] != staticcheck.BranchAlways {
		t.Errorf("Branch[%d] = %d, want BranchAlways", blt, facts.Branch[blt])
	}
	found := false
	for _, d := range ds {
		found = found || d.Check == "const-branch" && strings.Contains(d.Msg, "always true")
	}
	if !found {
		t.Errorf("no const-branch diagnostic for the always-taken branch in %v", ds)
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
