// Command packetbench runs one of the paper's network processing
// applications over a packet trace on the simulated core and reports the
// collected workload statistics.
//
// Usage:
//
//	packetbench -app radix|trie|flow|tsa [-trace file | -gen profile] [flags]
//
// Examples:
//
//	packetbench -app radix -gen MRA -n 10000
//	packetbench -app flow -trace capture.pcap
//	packetbench -app flow -trace shard-0.pcap,shard-1.pcap -pool 8
//	packetbench -app tsa -gen LAN -n 1000 -out anon.pcap
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/isa"
	"repro/internal/microarch"
	"repro/internal/packet"
	"repro/internal/profile"
	"repro/internal/ptrace"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vm"
)

// config carries every run parameter; main fills it from flags, tests
// build it directly.
type config struct {
	app        string // radix, trie, flow, tsa
	gen        string // synthetic trace profile
	traceFile  string // input pcap/TSH path(s), comma-separated (overrides gen)
	batch      int    // packets per streaming pool job; 0 = default
	outFile    string // output pcap path
	tableFile  string // routing table text file
	count      int
	prefixes   int
	buckets    int
	topK       int
	tsaKey     uint64
	preprocess bool
	uarch      bool
	dumpPkt    int
	annotate   bool
	flowDot    string
	pool       int
	engine     string // threaded (default) or interp

	// Fault handling.
	noVerify    bool   // skip the static verifier at load time
	faultPolicy string // fail-fast or skip
	errorBudget int    // quarantine budget for skip; 0 = unlimited
	inject      string // faultinject.ParsePlan spec
	seed        int64  // seed for injected randomness

	// Crash-only operation.
	checkpoint      string        // checkpoint file path; enables periodic checkpoints
	checkpointEvery int           // committed packets between checkpoint writes
	resume          bool          // resume from the checkpoint file
	deadline        time.Duration // whole-run wall-clock deadline; 0 = none
	stallTimeout    time.Duration // per-worker progress watchdog; 0 = off
	shed            string        // overload shed policy: block, drop-newest, drop-oldest

	// Observability.
	progress    bool          // live status line on stderr
	debugAddr   string        // /metrics + expvar + pprof HTTP endpoint
	profileOut  string        // guest-profile output path prefix
	traceOut    string        // packet-journey Chrome trace JSON output path
	traceSample string        // head-sampling rate, "1/N" (or N); "off" disables
	traceTail   time.Duration // always keep journeys slower than this
	flightPath  string        // flight-recorder dump path, written on aborts
}

func main() {
	var cfg config
	registerFlags(flag.CommandLine, &cfg)
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "packetbench:", err)
		os.Exit(1)
	}
}

// registerFlags binds the command-line flags to cfg's fields.
func registerFlags(fs *flag.FlagSet, cfg *config) {
	fs.StringVar(&cfg.app, "app", "radix", "application: radix, trie, flow, or tsa")
	fs.StringVar(&cfg.gen, "gen", "", "generate a synthetic trace with this profile (MRA, COS, ODU, LAN)")
	fs.StringVar(&cfg.traceFile, "trace", "", "read packets from these pcap/TSH files (comma-separated shards replay merged by timestamp) instead of generating")
	fs.IntVar(&cfg.batch, "batch", 0, "packets per streaming pool job (0 = scheduler default)")
	fs.IntVar(&cfg.count, "n", 10000, "number of packets to process")
	fs.IntVar(&cfg.prefixes, "prefixes", 32768, "routing table size for the forwarding applications")
	fs.IntVar(&cfg.buckets, "buckets", flow.DefaultBuckets, "hash buckets for flow classification")
	fs.Uint64Var(&cfg.tsaKey, "key", 0x5453412D31363A31, "TSA anonymization key")
	fs.StringVar(&cfg.outFile, "out", "", "write processed packets to this pcap file (useful with -app tsa)")
	fs.IntVar(&cfg.topK, "top", 3, "rows in the instruction-count occurrence table")
	fs.BoolVar(&cfg.preprocess, "preprocess", true, "apply NLANR renumbering + scrambling to generated backbone traces")
	fs.BoolVar(&cfg.uarch, "microarch", false, "also report microarchitectural statistics (mix, branches, caches, cycles)")
	fs.StringVar(&cfg.tableFile, "table", "", "load the routing table from this text file (\"a.b.c.d/len hop\" lines) instead of deriving it")
	fs.IntVar(&cfg.dumpPkt, "dumppkt", -1, "print the disassembled execution trace of this packet index")
	fs.BoolVar(&cfg.annotate, "annotate", false, "print a gprof-style listing with per-instruction execution counts")
	fs.StringVar(&cfg.flowDot, "flowgraph", "", "write the weighted basic-block flow graph to this Graphviz file")
	fs.IntVar(&cfg.pool, "pool", 1, "run on this many simulated cores via the streaming work-queue scheduler (stateful applications keep per-core state)")
	fs.StringVar(&cfg.engine, "engine", "threaded", "execution engine: threaded|interp (the block-threaded default, or the reference interpreter)")
	fs.BoolVar(&cfg.noVerify, "no-verify", false, "load the application even if the static verifier reports errors")
	fs.StringVar(&cfg.faultPolicy, "fault-policy", "fail-fast", "reaction to per-packet faults: fail-fast or skip (quarantine and continue)")
	fs.IntVar(&cfg.errorBudget, "error-budget", 0, "max packets one run may quarantine under -fault-policy skip (0 = unlimited); also bounds malformed trace records skipped by the readers")
	fs.StringVar(&cfg.inject, "inject", "", "deterministic fault injection plan, e.g. \"flip@3,vmfault@11,panic@19,stall@31\" (kinds: flip, trunc, clamp, vmfault, panic, delay, stall, tearckpt)")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for -inject randomness (unspecified offsets, masks, step counts)")
	fs.StringVar(&cfg.checkpoint, "checkpoint", "", "write periodic resume checkpoints of a streaming pool run to this file (atomic rename; see -resume)")
	fs.IntVar(&cfg.checkpointEvery, "checkpoint-every", 8192, "committed packets between checkpoint writes")
	fs.BoolVar(&cfg.resume, "resume", false, "resume the run from the -checkpoint file instead of starting over")
	fs.DurationVar(&cfg.deadline, "deadline", 0, "cancel the run after this wall-clock duration (0 = none)")
	fs.DurationVar(&cfg.stallTimeout, "stall-timeout", 0, "cancel a pool run when a worker makes no progress for this long (0 = watchdog off)")
	fs.StringVar(&cfg.shed, "shed", "block", "pool overload policy when the backlog is full: block (lossless), drop-newest, or drop-oldest")
	fs.BoolVar(&cfg.progress, "progress", false, "render a live status line on stderr: packets/sec, instrs/sec, faults, p99 latency, shed/stall counts, %% complete")
	fs.StringVar(&cfg.debugAddr, "debug-addr", "", "serve /metrics (Prometheus text), /debug/vars (expvar) and /debug/pprof on this address (e.g. :6060)")
	fs.StringVar(&cfg.profileOut, "profile-out", "", "write guest-program profiles to <path>.folded (flamegraph) and <path>.pb.gz (go tool pprof)")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "write sampled packet-journey spans as Chrome trace-event JSON to this file (load in Perfetto or chrome://tracing)")
	fs.StringVar(&cfg.traceSample, "trace-sample", "1/64", "packet-journey head-sampling rate, \"1/N\" or N (keep every Nth packet's span tree); \"off\" keeps only the slow-packet tail")
	fs.DurationVar(&cfg.traceTail, "trace-tail", 0, "always keep journeys of packets slower than this host latency, regardless of sampling (0 = reservoir of slowest only)")
	fs.StringVar(&cfg.flightPath, "flight-dump", "", "arm the flight recorder and write a post-mortem ring dump (Chrome trace JSON) to this file when the run aborts")
}

// tracePaths lists the shard paths of cfg.traceFile in shard order.
func (cfg *config) tracePaths() []string {
	var paths []string
	for _, path := range strings.Split(cfg.traceFile, ",") {
		if path = strings.TrimSpace(path); path != "" {
			paths = append(paths, path)
		}
	}
	return paths
}

// openTrace opens cfg.traceFile — one capture or a comma-separated shard
// list replayed in timestamp order through a trace.MergeReader — and
// returns the reader, a cleanup closing every underlying file, and the
// run's malformed-record budget. Under a skip policy every shard draws
// on that one budget of cfg.errorBudget skips, so it bounds the run, not
// each shard; its count is the run's total. Every packet outlives the
// cleanup.
func openTrace(cfg *config, skipMalformed bool) (_ trace.Reader, _ func() error, skips *trace.SkipBudget, err error) {
	var (
		readers []trace.Reader
		files   []*os.File
	)
	cleanup := func() error {
		var first error
		for _, f := range files {
			if err := f.Close(); first == nil {
				first = err
			}
		}
		return first
	}
	defer func() {
		if err != nil {
			cleanup()
		}
	}()
	skips = trace.NewSkipBudget(cfg.errorBudget)
	for _, path := range cfg.tracePaths() {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
		format := trace.FormatPcap
		if strings.HasSuffix(path, ".tsh") {
			format = trace.FormatTSH
		}
		r, err := trace.NewReader(f, format)
		if err != nil {
			return nil, nil, nil, err
		}
		fr := r.(interface {
			SetTotal(int64)
			SetSkipMalformed(*trace.SkipBudget)
		})
		// Let the reader report progress in input bytes.
		if fi, err := f.Stat(); err == nil {
			fr.SetTotal(fi.Size())
		}
		// Under a skip policy the readers degrade the same way the run
		// engine does: malformed records are skipped (resyncing the
		// stream) under the run's budget instead of aborting.
		if skipMalformed {
			fr.SetSkipMalformed(skips)
		}
		readers = append(readers, r)
	}
	switch len(readers) {
	case 0:
		return nil, nil, nil, fmt.Errorf("no trace files in %q", cfg.traceFile)
	case 1:
		return readers[0], cleanup, skips, nil
	}
	return trace.NewMergeReader(readers...), cleanup, skips, nil
}

// opener opens a fresh reader over the run's packets, with a cleanup
// closing whatever it opened and the reader's malformed-record budget.
type opener func() (trace.Reader, func() error, *trace.SkipBudget, error)

// source returns the opener of the run's packets: the -trace files, or
// the -gen trace, generated as it is read.
func (cfg *config) source(skipMalformed bool) (opener, error) {
	if cfg.traceFile != "" {
		return func() (trace.Reader, func() error, *trace.SkipBudget, error) {
			return openTrace(cfg, skipMalformed)
		}, nil
	}
	genName := cfg.gen
	if genName == "" {
		genName = "MRA"
	}
	prof, err := gen.ProfileByName(genName)
	if err != nil {
		return nil, err
	}
	preprocess := cfg.preprocess && genName != "LAN"
	return func() (trace.Reader, func() error, *trace.SkipBudget, error) {
		r := gen.NewReader(prof, cfg.count, preprocess, preprocess)
		return r, func() error { return nil }, trace.NewSkipBudget(cfg.errorBudget), nil
	}, nil
}

// routeTable loads -table, or derives the forwarding table from the
// destinations of the run's packets in a first pass over a fresh reader.
// The pass reads through the injector and stops at -n packets, as the
// run does, or once the table is full. Its skips draw on a budget of
// their own that is then dropped, so the run reports each skip once.
func (cfg *config) routeTable(src opener, inj *faultinject.Injector) (*route.Table, error) {
	if cfg.tableFile != "" {
		f, err := os.Open(cfg.tableFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return route.ParseTable(f)
	}
	r, cleanup, _, err := src()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	if inj != nil {
		r = inj.Reader(r)
	}
	tt := route.NewTrafficTable(cfg.prefixes, 16, 1)
	for i := 0; cfg.count <= 0 || i < cfg.count; i++ {
		p, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if h, err := packet.ParseIPv4(p.Data); err == nil && tt.Add(h.Dst) {
			break
		}
	}
	return tt.Table(), nil
}

// checkPool refuses -pool values the run cannot honour: fewer than one
// core, a pool with an output only the single-core path produces, or one
// core with a setting only the pool scheduler reads.
func (cfg *config) checkPool() error {
	if cfg.pool < 1 {
		return fmt.Errorf("-pool %d: want at least 1 core", cfg.pool)
	}
	for _, f := range []struct {
		name     string
		set      bool
		poolOnly bool
	}{
		{"-out", cfg.outFile != "", false},
		{"-microarch", cfg.uarch, false},
		{"-dumppkt", cfg.dumpPkt >= 0, false},
		{"-annotate", cfg.annotate, false},
		{"-flowgraph", cfg.flowDot != "", false},
		{"-deadline", cfg.deadline != 0, true},
		{"-stall-timeout", cfg.stallTimeout != 0, true},
		{"-shed", cfg.shed != "" && cfg.shed != "block", true},
		{"-batch", cfg.batch != 0, true},
		{"-checkpoint", cfg.checkpoint != "", true},
	} {
		if !f.set || f.poolOnly != (cfg.pool == 1) {
			continue
		}
		if f.poolOnly {
			return fmt.Errorf("%s needs the pool scheduler: drop it or run with -pool 2 or more", f.name)
		}
		return fmt.Errorf("%s is single-core only: drop it or run with -pool 1", f.name)
	}
	return nil
}

func run(cfg config) error {
	if err := cfg.checkPool(); err != nil {
		return err
	}
	faultPolicy, err := core.ParseFaultPolicy(cfg.faultPolicy)
	if err != nil {
		return err
	}
	engine, err := core.ParseEngine(cfg.engine)
	if err != nil {
		return err
	}
	tracer, err := cfg.buildTracer()
	if err != nil {
		return err
	}
	// The registry exists only when something consumes it; a nil registry
	// disables telemetry in the run engine at zero hot-path cost. A
	// -trace-out run wants it too, for the histogram→span exemplar links.
	var reg *telemetry.Registry
	if cfg.progress || cfg.debugAddr != "" || cfg.traceOut != "" {
		reg = telemetry.NewRegistry()
	}
	if cfg.debugAddr != "" {
		dbg, err := telemetry.ServeDebug(cfg.debugAddr, reg)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "debug endpoint on http://%s/ (/metrics, /debug/vars, /debug/pprof)\n", dbg.Addr)
	}
	if cfg.resume && cfg.checkpoint == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}
	if cfg.checkpoint != "" && cfg.traceFile == "" {
		return fmt.Errorf("-checkpoint needs -trace: a resume seeks back into the trace files")
	}
	shed, err := core.ParseShedPolicy(cfg.shed)
	if err != nil {
		return err
	}
	// Both run paths build their cores from these options; Bench ignores
	// the pool's, and checkPool keeps the detail outputs off pools.
	opts := core.Options{
		Coverage:     true,
		Errors:       core.ErrorPolicy{Policy: faultPolicy, ErrorBudget: cfg.errorBudget},
		Engine:       engine,
		NoVerify:     cfg.noVerify,
		Metrics:      reg,
		RunDeadline:  cfg.deadline,
		StallTimeout: cfg.stallTimeout,
		Shed:         shed,
		Trace:        tracer,
		FlightPath:   cfg.flightPath,
	}
	src, err := cfg.source(faultPolicy != core.FailFast)
	if err != nil {
		return err
	}

	// Fault injection: the injector corrupts packets deterministically
	// through a reader wrapper and arms execution faults on every core.
	var inj *faultinject.Injector
	if cfg.inject != "" {
		plan, err := faultinject.ParsePlan(cfg.inject)
		if err != nil {
			return err
		}
		inj = faultinject.New(cfg.seed, plan)
		fmt.Printf("fault injection: %d planned injections, seed %d\n", len(inj.Plan()), cfg.seed)
	}

	var app *core.App
	switch cfg.app {
	case "radix", "trie":
		tbl, err := cfg.routeTable(src, inj)
		if err != nil {
			return err
		}
		if cfg.app == "radix" {
			app = apps.IPv4Radix(tbl)
		} else {
			app = apps.IPv4Trie(tbl)
		}
		fmt.Printf("routing table: %d prefixes\n", len(tbl.Entries))
	case "flow":
		app = apps.FlowClassification(cfg.buckets)
	case "tsa":
		app = apps.TSAApp(cfg.tsaKey)
	default:
		return fmt.Errorf("unknown application %q (want radix, trie, flow or tsa)", cfg.app)
	}

	// Every run streams: the reader feeds one core or the pool, which
	// aggregate into a stats.Running and keep no packet.
	r, cleanup, skips, err := src()
	if err != nil {
		return err
	}
	if cfg.progress {
		defer startProgress(reg, func() (float64, bool) { return trace.Progress(r) })()
	}
	if cfg.pool > 1 {
		err = runPool(app, r, &cfg, opts, inj, skips)
	} else {
		err = runBench(app, r, &cfg, opts, inj)
	}
	cerr := cleanup()
	// Reported on every exit, failed runs included; a resumed run counts
	// the skips restored from its checkpoint.
	if n := skips.Used(); n > 0 {
		fmt.Printf("trace: skipped %d malformed records\n", n)
	}
	if err != nil {
		return err
	}
	return cerr
}

// tally is the result callback of both run paths: it folds one packet's
// result into the run's aggregate.
func tally(agg *stats.Running) func(int, core.Result) {
	return func(_ int, res core.Result) {
		if res.Shed {
			agg.AddShed(1)
			return
		}
		agg.Add(&res.Record)
		if !res.Faulted() {
			agg.AddVerdict(res.Verdict)
		}
	}
}

// blockSeq is -flowgraph's observer: it records the blocks the current
// packet enters, in order, by the collector's BlockSeq rule (a pass
// enters its block when its first instruction is the block's leader),
// without the collector's Detail traces, which nothing here reads.
type blockSeq struct {
	blocks *analysis.BlockMap
	seq    []int
}

// Pass implements vm.Tracer.
func (s *blockSeq) Pass(first, last int) {
	if b := s.blocks.BlockOfIndex(first); s.blocks.LeaderIndex(b) == first {
		s.seq = append(s.seq, b)
	}
}

// Mem implements vm.Tracer; the sequence has no use for accesses.
func (s *blockSeq) Mem(pc, addr uint32, size uint8, write bool, region vm.Region) {}

// runBench streams the reader through one simulated core, up to -n
// packets. The per-packet outputs (-dumppkt, -flowgraph, -out) read the
// core right after each packet, before the next one overwrites it. The
// collector traces only -dumppkt's packet; -flowgraph folds each
// packet's block sequence from its own pass observer.
func runBench(app *core.App, r trace.Reader, cfg *config, opts core.Options, inj *faultinject.Injector) error {
	bench, err := core.New(app, opts)
	if err != nil {
		return describeVerifyError(err)
	}
	col := bench.Collector()
	col.CountPCs = cfg.annotate || cfg.profileOut != ""
	bench.SetInjector(inj)
	if inj != nil {
		r = inj.Reader(r)
	}

	var prof *microarch.Profiler
	if cfg.uarch {
		ic, _ := microarch.NewCache(4096, 16, 2) // valid geometries
		dc, _ := microarch.NewCache(8192, 16, 2)
		prof = microarch.NewProfiler(ic, dc)
		bench.AddTracer(prof)
	}

	var outW trace.Writer
	var outFile *os.File
	if cfg.outFile != "" {
		f, err := os.Create(cfg.outFile)
		if err != nil {
			return err
		}
		defer f.Close() // for the error returns; a finished run closes it checked
		if outW, err = trace.NewPcapWriter(f); err != nil {
			return err
		}
		outFile = f
	}

	agg := &stats.Running{}
	onResult := tally(agg)
	var graph *analysis.FlowGraph
	var seq *blockSeq
	if cfg.flowDot != "" {
		graph = analysis.NewFlowGraph(bench.BlockMap().NumBlocks())
		seq = &blockSeq{blocks: bench.BlockMap()}
		bench.AddTracer(seq)
	}
	for i := 0; cfg.count <= 0 || i < cfg.count; i++ {
		p, err := r.Next()
		if err == io.EOF {
			break
		}
		var res core.Result
		if err == nil {
			col.Detail = i == cfg.dumpPkt
			res, err = bench.ProcessPacketAt(i, p)
		}
		if err != nil {
			// Single-core aborts dump the flight recorder here; pool runs
			// dump from inside the scheduler, closer to the failure.
			writeFlightDump(cfg, opts.Trace, err)
			return err
		}
		// Quarantined packets have no verdict and no coherent post-run
		// packet memory to dump or write out.
		if !res.Faulted() {
			if i == cfg.dumpPkt {
				dumpTrace(bench, i, res)
			}
			if graph != nil {
				graph.Add(seq.seq)
			}
			if outW != nil {
				out := *p
				out.Data = bench.PacketBytes(len(p.Data))
				if err := outW.WritePacket(&out); err != nil {
					fmt.Fprintln(os.Stderr, "packetbench: write:", err)
				}
			}
		}
		if seq != nil {
			seq.seq = seq.seq[:0]
		}
		onResult(i, res)
	}
	if outFile != nil {
		if err := outFile.Close(); err != nil {
			return err
		}
	}
	if err := printSummary(cfg, app.Name, agg, col, false); err != nil {
		return err
	}
	if prof != nil {
		prof.Flush()
		fmt.Printf("\nmicroarchitectural profile:\n%s", prof.Report())
	}
	if cfg.annotate {
		printAnnotatedListing(bench)
	}
	if graph != nil {
		if err := os.WriteFile(cfg.flowDot, []byte(graph.Dot()), 0o644); err != nil {
			return err
		}
		fmt.Printf("\nwrote weighted flow graph (%d edges) to %s\n", graph.NumEdges(), cfg.flowDot)
	}
	return writeOutputs(cfg, app, bench, opts)
}

// printSummary prints a finished run's summary, the same on every core
// count but for the header: the per-packet means, the memory touched by
// the cores, whose coverage col holds, any sheds and quarantines, the
// instruction-count occurrence table and the verdicts. A checkpoint does
// not carry the coverage sets, so a resumed run leaves memory touched
// out rather than report only its own share.
func printSummary(cfg *config, name string, agg *stats.Running, col *stats.Collector, resumed bool) error {
	s := agg.Summary()
	if s.Packets == 0 && s.Shed == 0 {
		return fmt.Errorf("no packets to process")
	}
	if cfg.pool > 1 {
		fmt.Printf("\n%s over %d packets on %d simulated cores\n", name, s.Packets, cfg.pool)
	} else {
		fmt.Printf("\n%s over %d packets\n", name, s.Packets)
	}
	fmt.Printf("  instructions/packet:        %10.1f\n", s.MeanInstructions)
	fmt.Printf("  unique instructions/packet: %10.1f\n", s.MeanUnique)
	fmt.Printf("  packet mem accesses/packet: %10.1f\n", s.MeanPacketAcc)
	fmt.Printf("  non-packet accesses/packet: %10.1f\n", s.MeanNonPacketAcc)
	if !resumed {
		fmt.Printf("  instruction memory touched: %10d bytes\n", col.InstrMemSize())
		fmt.Printf("  data memory touched:        %10d bytes\n", col.DataMemSize())
	}
	if s.Shed > 0 {
		fmt.Printf("  shed packets (overload):    %10d\n", s.Shed)
	}
	if s.Faulted > 0 {
		fmt.Printf("  quarantined packets:        %10d\n", s.Faulted)
		kinds := make([]vm.FaultKind, 0, len(s.FaultCounts))
		for k := range s.FaultCounts {
			kinds = append(kinds, k)
		}
		slices.Sort(kinds)
		for _, k := range kinds {
			fmt.Printf("    %-26s %10d\n", k.String()+":", s.FaultCounts[k])
		}
	}

	occ := analysis.OccurrencesOf(agg.InstructionHistogram(), cfg.topK)
	fmt.Printf("\n  most frequent instruction counts:\n")
	for _, o := range occ.Top {
		fmt.Printf("    %8d instructions: %6d packets (%.2f%%)\n", o.Value, o.Count, o.Pct(occ.Total))
	}
	fmt.Printf("    min %d (%.2f%%), max %d (%.2f%%), mean %.1f\n",
		occ.Min.Value, occ.Min.Pct(occ.Total), occ.Max.Value, occ.Max.Pct(occ.Total), occ.Mean)

	fmt.Printf("\n  verdicts:\n")
	verdicts := agg.Verdicts()
	vs := make([]uint32, 0, len(verdicts))
	for v := range verdicts {
		vs = append(vs, v)
	}
	slices.Sort(vs)
	for _, v := range vs {
		fmt.Printf("    %4d: %d packets\n", v, verdicts[v])
	}
	return nil
}

// writeOutputs writes the run's guest profile, from bench's PC counts,
// and its packet-journey trace, for whichever was asked for.
func writeOutputs(cfg *config, app *core.App, bench *core.Bench, opts core.Options) error {
	if cfg.profileOut != "" {
		if err := writeProfiles(cfg.profileOut, app, bench.Program(), bench.Collector().PCCounts); err != nil {
			return err
		}
	}
	return writeTraceOut(cfg, opts.Trace, opts.Metrics, app.Name)
}

// buildTracer arms the packet-journey tracer when any consumer of its
// data was requested; a nil tracer keeps the hot path allocation-free.
func (cfg *config) buildTracer() (*ptrace.Tracer, error) {
	if cfg.traceOut == "" && cfg.flightPath == "" {
		return nil, nil
	}
	every, err := parseSampleRate(cfg.traceSample)
	if err != nil {
		return nil, err
	}
	return ptrace.New(ptrace.Config{
		Lanes:       cfg.pool,
		SampleEvery: every,
		TailNS:      int64(cfg.traceTail),
	}), nil
}

// parseSampleRate reads -trace-sample: "1/N" or a bare N keeps every
// Nth packet; "off" (or 0, or empty) disables head sampling.
func parseSampleRate(s string) (int, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "off" {
		return 0, nil
	}
	num := strings.TrimPrefix(s, "1/")
	var n int
	if _, err := fmt.Sscanf(num, "%d", &n); err != nil || n < 0 || fmt.Sprint(n) != num {
		return 0, fmt.Errorf("bad -trace-sample %q (want \"1/N\", N, or \"off\")", s)
	}
	return n, nil
}

// writeTraceOut writes the run's kept packet journeys as Chrome
// trace-event JSON, decorated with the latency histogram's exemplar
// links when telemetry ran.
func writeTraceOut(cfg *config, tracer *ptrace.Tracer, reg *telemetry.Registry, appName string) error {
	if cfg.traceOut == "" || tracer == nil {
		return nil
	}
	opts := ptrace.ExportOptions{App: appName, Trace: cfg.traceFile}
	if reg != nil {
		if h, ok := reg.Snapshot().HistogramFor(telemetry.MetricPacketLatency); ok {
			for _, e := range h.Exemplars {
				var le uint64
				if e.Bucket < len(h.Bounds) {
					le = h.Bounds[e.Bucket]
				}
				opts.Exemplars = append(opts.Exemplars, ptrace.Exemplar{
					BucketLE: le, ValueNS: e.Value, Span: e.Span,
				})
			}
		}
	}
	f, err := os.Create(cfg.traceOut)
	if err != nil {
		return err
	}
	if err := tracer.WriteTrace(f, opts); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("\nwrote packet-journey trace to %s (load in ui.perfetto.dev)\n", cfg.traceOut)
	return nil
}

// writeFlightDump writes the post-mortem ring dump after a failed
// single-core run. Best-effort: a dump failure never masks the run
// error, which the caller is about to return.
func writeFlightDump(cfg *config, tracer *ptrace.Tracer, runErr error) {
	if cfg.flightPath == "" || tracer == nil || runErr == nil {
		return
	}
	f, err := os.Create(cfg.flightPath)
	if err != nil {
		return
	}
	if tracer.WriteFlight(f, ptrace.FlightInfo{Cause: runErr.Error(), Worker: -1, Index: -1}) == nil {
		fmt.Fprintf(os.Stderr, "packetbench: flight recorder dumped to %s\n", cfg.flightPath)
	}
	f.Close()
}

// startProgress launches the live status line and returns its stopper.
// frac reports the completed fraction of the run when known.
func startProgress(reg *telemetry.Registry, frac func() (float64, bool)) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		prev := reg.Snapshot()
		for {
			select {
			case <-quit:
				fmt.Fprintln(os.Stderr)
				return
			case <-tick.C:
			}
			cur := reg.Snapshot()
			line := fmt.Sprintf("\r%10.0f pkt/s %14.0f instr/s %6d faults",
				cur.Rate(prev, telemetry.MetricPacketsProcessed),
				cur.Rate(prev, telemetry.MetricInstrsExecuted),
				cur.CounterTotal(telemetry.MetricPacketsFaulted))
			if h, ok := cur.HistogramFor(telemetry.MetricPacketLatency); ok && h.Count > 0 {
				line += fmt.Sprintf(" p99=%s", fmtLatency(h.P99()))
			}
			if n := cur.CounterTotal(telemetry.MetricPacketsShed); n > 0 {
				line += fmt.Sprintf(" shed=%d", n)
			}
			if n := cur.CounterTotal(telemetry.MetricWatchdogStalls); n > 0 {
				line += fmt.Sprintf(" stalls=%d", n)
			}
			if f, ok := frac(); ok {
				line += fmt.Sprintf("  %5.1f%%", 100*f)
			}
			fmt.Fprint(os.Stderr, line+"  ")
			prev = cur
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// fmtLatency renders a nanosecond quantile for the status line.
func fmtLatency(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

// writeProfiles builds the guest profile from accumulated PC counts and
// writes both output formats next to each other: base.folded for
// flamegraph tools and base.pb.gz for go tool pprof.
func writeProfiles(base string, app *core.App, prog *asm.Program, counts []uint64) error {
	var entries []string
	if app.Entry != "" {
		entries = []string{app.Entry}
	}
	p, err := profile.Build(prog, counts, profile.Options{Entries: entries, AppName: app.Name})
	if err != nil {
		return err
	}
	write := func(path string, emit func(*os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(base+".folded", func(f *os.File) error { return p.WriteFolded(f) }); err != nil {
		return err
	}
	if err := write(base+".pb.gz", func(f *os.File) error { return p.WritePprof(f) }); err != nil {
		return err
	}
	fmt.Printf("\nwrote guest profile (%d functions, %d instructions) to %s.folded and %s.pb.gz\n",
		len(p.Funcs), p.Total, base, base)
	return nil
}

// describeVerifyError expands a static-verification rejection into the
// full diagnostic listing; other errors pass through unchanged.
func describeVerifyError(err error) error {
	var verr *core.VerifyError
	if !errors.As(err, &verr) {
		return err
	}
	for _, d := range verr.Diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", verr.App, d)
	}
	return fmt.Errorf("application %q failed static verification with %d error(s); rerun with -no-verify to execute it anyway",
		verr.App, len(verr.Diags.Errors()))
}

// printAnnotatedListing renders the program with per-instruction
// execution counts — the paper's application-optimization use case.
func printAnnotatedListing(bench *core.Bench) {
	col := bench.Collector()
	prog := bench.Program()
	var total uint64
	for _, c := range col.PCCounts {
		total += c
	}
	fmt.Printf("\nannotated listing (%d dynamic instructions):\n", total)
	for i, in := range prog.Text {
		pc := prog.TextBase + uint32(i)*4
		count := uint64(0)
		if i < len(col.PCCounts) {
			count = col.PCCounts[i]
		}
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(count) / float64(total)
		}
		marker := " "
		if pct >= 2 {
			marker = "*" // hot instruction
		}
		fmt.Printf("  %s %10d %6.2f%%  %08x  %s\n", marker, count, pct, pc, isa.Disassemble(pc, in))
	}
}

// dumpTrace prints the disassembled execution trace of one packet (the
// detail view behind the paper's Figure 6).
func dumpTrace(bench *core.Bench, idx int, res core.Result) {
	col := bench.Collector()
	prog := bench.Program()
	fmt.Printf("\nexecution trace of packet %d (%d instructions, verdict %d):\n",
		idx, len(col.InstrTrace), res.Verdict)
	const maxLines = 300
	for n, pc := range col.InstrTrace {
		if n == maxLines {
			fmt.Printf("  ... %d more instructions ...\n", len(col.InstrTrace)-maxLines)
			break
		}
		in, ok := prog.InstrAt(pc)
		if !ok {
			continue
		}
		fmt.Printf("  %6d  %08x  %s\n", n, pc, isa.Disassemble(pc, in))
	}
	fmt.Printf("  block entry sequence: %v\n", col.BlockSeq)
}

// runPool streams the trace reader through several simulated cores (up
// to -n packets) and prints the summary runBench prints, with memory
// touched the union of the cores' coverage. Stateful applications (flow
// classification) keep per-core tables in this mode, as real
// replicated-state engines would.
func runPool(app *core.App, reader trace.Reader, cfg *config, opts core.Options, inj *faultinject.Injector, skips *trace.SkipBudget) error {
	pool, err := core.NewPool(app, cfg.pool, opts)
	if err != nil {
		return describeVerifyError(err)
	}
	if cfg.batch > 0 {
		pool.SetBatchSize(cfg.batch)
	}
	for i := 0; i < pool.Cores(); i++ {
		pool.Bench(i).SetInjector(inj)
		pool.Bench(i).Collector().CountPCs = cfg.profileOut != ""
	}
	agg := &stats.Running{}
	var ck *core.Checkpointer
	if cfg.checkpoint != "" {
		ck = core.NewCheckpointer(cfg.checkpoint, cfg.checkpointEvery, agg)
		// Fingerprint every shard in the order openTrace reads them, so a
		// resume refuses a different or rewritten capture.
		var ids []core.TraceID
		for _, path := range cfg.tracePaths() {
			id, err := core.FingerprintFile(path)
			if err != nil {
				return err
			}
			ids = append(ids, id)
		}
		ck.SetTraceID(ids)
		if inj != nil {
			ck.TearWrite = inj.CheckpointTearFunc()
		}
		restored := 0 // malformed records skipped before a resumed checkpoint
		if cfg.resume {
			cp, err := core.LoadCheckpoint(cfg.checkpoint)
			if err != nil {
				return err
			}
			if err := cp.ValidateTrace(ids); err != nil {
				return err
			}
			sk, ok := reader.(trace.Seeker)
			if !ok {
				return fmt.Errorf("trace reader %T cannot seek to a checkpoint", reader)
			}
			if err := sk.SeekTo(cp.ReaderPos); err != nil {
				return err
			}
			ck.Restore(cp)
			fmt.Printf("resuming from %s: %d packets already committed\n", cfg.checkpoint, cp.NextIndex)
			// Records skipped before the checkpoint count too, and spent
			// the same budget an uninterrupted run spends.
			skips.Preload(cp.ReaderSkipped)
			restored = cp.ReaderSkipped
		}
		// A checkpoint stores the skips behind its reader position, not
		// the budget's count: a merge's shards read one packet ahead, and
		// a resume re-reads (and skips again) whatever lies past the
		// position. src is the unwrapped reader that counts them.
		src := reader
		ck.SetSkippedFunc(func() int { return restored + trace.Skipped(src) })
	}
	// The injector's packet corruptions apply through a reader wrapper,
	// wrapped after any resume seek with the restored start index, so
	// plan entries keep their absolute trace positions.
	if inj != nil {
		start := 0
		if ck != nil {
			start = ck.StartIndex()
		}
		reader = inj.ReaderFrom(reader, start)
	}
	if _, err := pool.RunTraceCheckpointed(context.Background(), reader, cfg.count, tally(agg), ck); err != nil {
		if cfg.flightPath != "" && opts.Trace != nil {
			// The pool dumps the flight recorder itself before the run
			// error surfaces; just point the operator at the file.
			if _, serr := os.Stat(cfg.flightPath); serr == nil {
				fmt.Fprintf(os.Stderr, "packetbench: flight recorder dumped to %s\n", cfg.flightPath)
			}
		}
		return err
	}
	// Fold every core's coverage and PC counts into core 0's collector:
	// one footprint and one profile for the pooled run.
	col := pool.Bench(0).Collector()
	for i := 1; i < pool.Cores(); i++ {
		c := pool.Bench(i).Collector()
		col.Account().Union(c.Account())
		for j, n := range c.PCCounts {
			col.PCCounts[j] += n
		}
	}
	if err := printSummary(cfg, app.Name, agg, col, cfg.resume); err != nil {
		return err
	}
	if ck != nil && ck.Written() > 0 {
		fmt.Printf("\ncheckpoints: %d written to %s\n", ck.Written(), cfg.checkpoint)
	}
	return writeOutputs(cfg, app, pool.Bench(0), opts)
}
