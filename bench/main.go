// Command bench is the repository's benchmark. It measures the three
// paths users run, from outside the program through each module's
// public API:
//
//   - radix-mra: packetbench -app radix -trace f.pcap, on one core;
//   - tsa-min-stream: packetbench -app tsa -trace s0.pcap,s1.pcap -pool N;
//   - paper-repro: pbreport, every experiment at scale 1.0.
//
// Every timed rep runs in a fresh child process (this binary re-executed
// with the rep's spec on standard input), reps are interleaved
// round-robin across workloads, and a traced run per workload adds
// per-layer metrics and a cost ledger. Run it from the repository root:
//
//	sh bench/run.sh                                # all workloads, 5 reps, seed 1
//	sh bench/run.sh -workload radix-mra -seed 3 -seconds 20 -trace 0
//	sh bench/run.sh -o base.json                   # keep every sample
//	sh bench/run.sh -compare base.json new.json    # exits 1 on a regression
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. README.md describes the
// workloads, the metrics and the layers they belong to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Stdin, os.Stdout))
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	// Inputs are generated next to the binary, inside the build
	// directory run.sh builds it into.
	os.Exit(run(os.Args[1:], exe, filepath.Dir(exe), os.Stdout, os.Stderr))
}

func run(args []string, exe, workDir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload: radix-mra, tsa-min-stream, paper-repro, or all")
		seed    = fs.Int64("seed", 1, "seed the replay workloads' inputs are generated from (paper-repro ignores it)")
		reps    = fs.Int("reps", 0, "minimum timed reps per workload (0: 5, or 2 with -seconds)")
		secs    = fs.Float64("seconds", 0, "keep adding timed reps while a workload's measured run time fits in this many seconds")
		trace   = fs.Int("trace", traceBoth, "0: timed reps only; 1: one timed rep and the traced run, reporting per-layer metrics; -1: both")
		out     = fs.String("o", "", "also write the full result (every sample, the host record, the ledgers) to this JSON file")
		compare = fs.Bool("compare", false, "compare two result files instead of running: -compare base.json new.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), "BENCHMARK.json", stdout)
	}
	if fs.NArg() > 0 || *trace < traceBoth || *trace > traceOnly || *reps < 0 || *secs < 0 {
		fs.Usage()
		return 2
	}
	var ws []workload
	for _, w := range defaultWorkloads() {
		if *name == "all" || *name == w.name {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	p := &plan{workloads: ws, seed: *seed, minReps: *reps, seconds: *secs, trace: *trace, workDir: workDir, exe: exe, log: stderr}
	switch {
	case p.trace == traceOnly:
		p.minReps, p.seconds = 1, 0
	case p.minReps > 0:
	case p.seconds > 0:
		p.minReps = 2
	default:
		p.minReps = 5
	}
	rf, err := p.execute()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rf.write(stdout)
	if *out != "" {
		b, err := json.MarshalIndent(rf, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rf.lastLine(p.trace))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rf.correct() {
		return 1
	}
	return 0
}
