// Package staticcheck verifies assembled PB32 programs before they run,
// in the spirit of the eBPF verifier: it builds a control-flow graph
// over the program's basic blocks and runs a suite of static analyses
// that produce typed, source-located diagnostics.
//
// The checks, by severity:
//
// Errors (the program can fault or escape at runtime; run engines
// refuse to load it unless verification is disabled):
//
//   - bad-target: a branch, jump, or constant-address JALR whose target
//     lies outside the text segment
//   - fall-off-end: a reachable path that runs past the last instruction
//     without a halt or ret
//   - bad-access: a load or store of a constant address that is unmapped
//     or inside the text segment
//   - misaligned: a constant-address access that violates natural
//     alignment
//   - empty-text: a program with no instructions at all
//   - entry: an entry symbol that is missing or outside the text segment
//
// Warnings (suspicious but cannot fault — the framework zeroes all
// registers before dispatch, loops may be bounded by data the verifier
// cannot see, and so on):
//
//   - uninit-reg: a register read on some path before any write
//   - unreachable: basic blocks no entry point can reach
//   - non-termination: reachable loops from which no halt or return is
//     reachable
//   - stack-imbalance: a function returning with sp displaced from its
//     entry value
//   - sp-clobber: sp overwritten with an untrackable value
//   - unused-label, shadowed-name: assembler lint findings, produced at
//     assembly time and folded into the verifier's report
//
// Verification is necessarily approximate in the safe direction for
// errors: error-severity findings are only reported where the static
// over-approximation proves the defect reachable, so a program that runs
// cleanly on the simulator is never rejected. Warnings over-approximate
// (conditional branches are assumed to go both ways), so a warning is a
// hint, not a conviction.
package staticcheck

import (
	"repro/internal/asm"
	"repro/internal/diag"
	"repro/internal/vm"
)

// Diagnostics are shared with the assembler's lint pass via the leaf
// package internal/diag; the aliases make this package's API
// self-contained for callers.
type (
	// Diagnostic is one verifier finding.
	Diagnostic = diag.Diagnostic
	// Severity classifies a finding.
	Severity = diag.Severity
	// List is an ordered collection of findings.
	List = diag.List
)

// Re-exported severity levels.
const (
	Info    = diag.Info
	Warning = diag.Warning
	Error   = diag.Error
)

// Options configures a verification run.
type Options struct {
	// Layout is the memory map the program will run under. When zero,
	// the address-space checks degrade gracefully: only the text segment
	// (known from the program itself) is checked, and the ABI constants
	// (packet base, stack top) are not assumed.
	Layout vm.Layout
	// Entries names the symbols execution can enter at. When empty, the
	// program's text-segment .global symbols are used, falling back to
	// the base of the text segment.
	Entries []string
	// EntryAddrs overrides Entries with explicit addresses.
	EntryAddrs []uint32
}

// Verify runs every analysis over an assembled program and returns the
// combined findings, sorted by source line and deduplicated. The
// assembler's own lint findings (prog.Lint) are folded in, so callers
// get one report. Use List.HasErrors to gate loading.
func Verify(prog *asm.Program, opts Options) List {
	var ds diag.List
	ds = append(ds, prog.Lint...)
	if len(prog.Text) == 0 {
		ds = append(ds, Diagnostic{Severity: Error, Check: "empty-text",
			Msg: "program has no instructions in the text segment"})
		return ds.Sort()
	}
	cfg, entryDiags := BuildCFG(prog, opts)
	ds = append(ds, entryDiags...)
	ds = append(ds, cfg.structural()...)
	ds = append(ds, cfg.nonTermination()...)
	ds = append(ds, newDataflow(cfg, opts).run()...)
	return ds.Sort()
}
