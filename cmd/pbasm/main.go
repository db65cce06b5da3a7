// Command pbasm assembles PB32 assembly and prints a disassembly
// listing, symbol table, and basic-block decomposition — the toolchain
// view of a PacketBench application.
//
// Usage:
//
//	pbasm file.s            # listing
//	pbasm -sym file.s       # symbols
//	pbasm -blocks file.s    # basic blocks
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/analysis"
	"repro/internal/asm"
)

func main() {
	var (
		showSyms   = flag.Bool("sym", false, "print the symbol table")
		showBlocks = flag.Bool("blocks", false, "print the basic-block decomposition")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: pbasm [-sym] [-blocks] file.s")
		os.Exit(2)
	}
	if err := run(flag.Arg(0), *showSyms, *showBlocks); err != nil {
		fmt.Fprintln(os.Stderr, "pbasm:", err)
		os.Exit(1)
	}
}

func run(path string, showSyms, showBlocks bool) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	prog, err := asm.Assemble(string(src), asm.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("text: %d instructions (%d bytes at %#x)\n",
		len(prog.Text), len(prog.Text)*4, prog.TextBase)
	fmt.Printf("data: %d bytes at %#x\n\n", len(prog.Data), prog.DataBase)

	switch {
	case showSyms:
		type sym struct {
			name string
			addr uint32
		}
		var syms []sym
		for name, addr := range prog.Symbols {
			syms = append(syms, sym{name, addr})
		}
		sort.Slice(syms, func(i, j int) bool { return syms[i].addr < syms[j].addr })
		for _, s := range syms {
			fmt.Printf("%08x  %s\n", s.addr, s.name)
		}
	case showBlocks:
		m := analysis.NewBlockMap(prog.Text, prog.TextBase)
		fmt.Printf("%d basic blocks\n", m.NumBlocks())
		for b := 0; b < m.NumBlocks(); b++ {
			fmt.Printf("  block %3d: %#x, %d instructions\n", b, m.Leader(b), m.Size(b))
		}
	default:
		fmt.Print(prog.Listing())
	}
	return nil
}
