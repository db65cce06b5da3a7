package staticcheck_test

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/staticcheck"
	"repro/internal/vm"
)

// factsCount counts what the facts pipeline proved about a program.
type factsCount struct {
	ProvenLoads, ProvenStores int // memory ops with a proven region
	RedundantMasks            int // AND/ANDI proven to change nothing
}

// factsFor assembles src and runs the verifier's facts pipeline under
// the framework memory map, counting its proofs. An untame program
// proves nothing.
func factsFor(t *testing.T, src string) factsCount {
	t.Helper()
	prog, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	layout := core.LayoutFor(prog, 1<<20)
	_, facts := staticcheck.VerifyWithFacts(prog, staticcheck.Options{Layout: layout})
	var n factsCount
	if !facts.Tame {
		return n
	}
	for i, in := range prog.Text {
		proven := facts.Mem[i] != vm.RegionNone
		switch {
		case proven && in.Op.IsLoad():
			n.ProvenLoads++
		case proven && in.Op.IsStore():
			n.ProvenStores++
		case facts.Redundant[i]:
			n.RedundantMasks++
		}
	}
	return n
}

// TestFactsProvePacketAndStackAccess pins the two bread-and-butter
// proofs: packet-header loads through the ABI packet pointer and
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
	if st.ProvenLoads < 3 { // two packet lbu + the stack reload
		t.Errorf("ProvenLoads = %d, want >= 3", st.ProvenLoads)
	}
	if st.ProvenStores < 1 { // the stack spill
		t.Errorf("ProvenStores = %d, want >= 1", st.ProvenStores)
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
	if st.RedundantMasks < 1 {
		t.Errorf("RedundantMasks = %d, want >= 1", st.RedundantMasks)
	}
}

// TestFactsLoaderSlotStaysUnproven is the soundness scoping test: a
// pointer loaded from a data slot has an unknown value (the loader, not
// the program, initializes it), so a load through it must stay unproven
// even though the slot load itself is provable.
func TestFactsLoaderSlotStaysUnproven(t *testing.T) {
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
	if st.ProvenLoads != 1 {
		t.Errorf("ProvenLoads = %d, want exactly 1 (the slot load; the indirect load must stay unproven)", st.ProvenLoads)
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
	facts.Dump(&sb, prog)
	out := sb.String()
	if !strings.Contains(out, "packet") {
		t.Errorf("dump mentions no packet-region proof:\n%s", out)
	}
	if !strings.Contains(out, "always") {
		t.Errorf("dump mentions no always-taken branch:\n%s", out)
	}
}
