// Command pbvet statically verifies PB32 assembly files without running
// them: it assembles each file, builds the control-flow graph, and runs
// the full internal/staticcheck analysis suite — reachability, control
// transfers that leave the text segment, fall-off-the-end paths,
// def-before-use register dataflow, static memory-range and alignment
// checks against the PacketBench memory map, stack discipline, and loop
// termination — printing findings with source line numbers in the
// familiar file:line: severity: message form.
//
// Usage:
//
//	pbvet file.s [file2.s ...]     # diagnostics; exit 1 on errors
//	pbvet -entry main file.s       # verify from a specific entry symbol
//	pbvet -dot file.s              # print the CFG in Graphviz format
//
// The exit status is 2 on usage or assembly errors, 1 if any file has
// error-severity findings, and 0 otherwise (warnings do not fail the
// run).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/staticcheck"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pbvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dot     = fs.Bool("dot", false, "print the control-flow graph in Graphviz format instead of diagnostics")
		entries = fs.String("entry", "", "comma-separated entry symbols (default: the file's .global text symbols)")
		heap    = fs.Uint("heap", 0, "heap size in bytes for the memory map (default: the framework default)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: pbvet [-dot] [-entry syms] [-heap n] file.s ...")
		return 2
	}

	status := 0
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "pbvet:", err)
			return 2
		}
		prog, err := asm.Assemble(string(src), asm.Options{})
		if err != nil {
			fmt.Fprintf(stderr, "pbvet: %s: %v\n", path, err)
			return 2
		}
		opts := staticcheck.Options{Layout: core.LayoutFor(prog, uint32(*heap))}
		if *entries != "" {
			opts.Entries = strings.Split(*entries, ",")
		}
		if *dot {
			cfg, ds := staticcheck.BuildCFG(prog, opts)
			report(stderr, path, ds)
			fmt.Fprint(stdout, cfg.Dot())
			if ds.HasErrors() {
				status = 1
			}
			continue
		}
		ds := staticcheck.Verify(prog, opts)
		report(stdout, path, ds)
		if ds.HasErrors() {
			status = 1
		}
	}
	return status
}

// report prints ds in the conventional file:line: severity: msg [check]
// form; line-less findings (entry, empty-text) name only the file.
func report(w io.Writer, path string, ds staticcheck.List) {
	for _, d := range ds {
		loc := path
		if d.Line > 0 {
			loc = fmt.Sprintf("%s:%d", path, d.Line)
		}
		fmt.Fprintf(w, "%s: %s: %s [%s]\n", loc, d.Severity, d.Msg, d.Check)
	}
}
