package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/route"
	"repro/internal/trace"
)

// testConfig mirrors the flag defaults, scaled down for test speed.
func testConfig(app, gen string, n int) config {
	return config{
		app:         app,
		gen:         gen,
		count:       n,
		prefixes:    512,
		buckets:     64,
		topK:        3,
		tsaKey:      1,
		preprocess:  true,
		dumpPkt:     -1,
		pool:        1,
		faultPolicy: "fail-fast",
		seed:        1,
	}
}

func TestRunAllApps(t *testing.T) {
	for _, app := range []string{"radix", "trie", "flow", "tsa"} {
		if err := run(testConfig(app, "LAN", 100)); err != nil {
			t.Errorf("%s: %v", app, err)
		}
	}
}

func TestRunWithMicroarchAndOutput(t *testing.T) {
	cfg := testConfig("tsa", "COS", 50)
	cfg.outFile = filepath.Join(t.TempDir(), "anon.pcap")
	cfg.tsaKey = 2
	cfg.uarch = true
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunFromTraceFile(t *testing.T) {
	// Round trip: write a trace with the tsa run above, read it back in.
	dir := t.TempDir()
	out := filepath.Join(dir, "t.pcap")
	cfg := testConfig("tsa", "LAN", 30)
	cfg.outFile = out
	cfg.tsaKey = 2
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg = testConfig("flow", "", 30)
	cfg.traceFile = out
	cfg.tsaKey = 2
	cfg.dumpPkt = 0
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithTableFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "routes.txt")
	tbl := route.GenerateTable(route.GenOptions{Prefixes: 100, Seed: 4, IncludeDefault: true})
	var buf bytes.Buffer
	if err := tbl.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig("radix", "LAN", 50)
	cfg.tableFile = path
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	cfg.tableFile = "/absent-table"
	if err := run(cfg); err == nil {
		t.Error("missing table file accepted")
	}
}

func TestRunAnnotateAndFlowgraph(t *testing.T) {
	dot := filepath.Join(t.TempDir(), "g.dot")
	cfg := testConfig("trie", "LAN", 60)
	cfg.annotate = true
	cfg.flowDot = dot
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("digraph")) {
		t.Errorf("flow graph not Graphviz: %q", data[:min(len(data), 40)])
	}
}

// TestFlowgraphMatchesCollector: -flowgraph's pass observer builds the
// graph the Detail collector's BlockSeq gives, packet by packet, on both
// engines, with and without -dumppkt arming the collector beside it.
func TestFlowgraphMatchesCollector(t *testing.T) {
	prof, _ := gen.ProfileByName("MRA")
	pkts := gen.Generate(prof, 300)
	var dsts []uint32
	for _, p := range pkts {
		dsts = append(dsts, binary.BigEndian.Uint32(p.Data[16:]))
	}
	tbl := route.TableFromTraffic(dsts, 512, 16, 1)
	for _, app := range []*core.App{apps.IPv4Radix(tbl), apps.IPv4Trie(tbl), apps.FlowClassification(64), apps.TSAApp(1)} {
		for _, engine := range []core.EngineKind{core.EngineThreaded, core.EngineInterpreter} {
			ref, err := core.New(app, core.Options{Detail: true, Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			want := analysis.NewFlowGraph(ref.BlockMap().NumBlocks())
			for i, p := range pkts {
				if _, err := ref.ProcessPacketAt(i, p); err != nil {
					t.Fatal(err)
				}
				want.Add(ref.Collector().BlockSeq)
			}
			for _, dump := range []int{-1, 7} {
				cfg := testConfig(app.Name, "", len(pkts))
				cfg.flowDot = filepath.Join(t.TempDir(), "g.dot")
				cfg.dumpPkt = dump
				if err := runBench(app, trace.NewSliceReader(pkts), &cfg, core.Options{Coverage: true, Engine: engine}, nil); err != nil {
					t.Fatal(err)
				}
				got, err := os.ReadFile(cfg.flowDot)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != want.Dot() {
					t.Errorf("%s on %v, -dumppkt %d: the graph differs from the collector's BlockSeq graph", app.Name, engine, dump)
				}
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(testConfig("bogus", "LAN", 10)); err == nil {
		t.Error("unknown app accepted")
	}
	if err := run(testConfig("flow", "NOPE", 10)); err == nil {
		t.Error("unknown profile accepted")
	}
	cfg := testConfig("flow", "", 10)
	cfg.traceFile = "/absent.pcap"
	if err := run(cfg); err == nil {
		t.Error("missing trace file accepted")
	}
	for _, policy := range []string{"explode", "retry"} {
		cfg = testConfig("flow", "LAN", 10)
		cfg.faultPolicy = policy
		if err := run(cfg); err == nil || !strings.Contains(err.Error(), "want fail-fast or skip") {
			t.Errorf("-fault-policy %s: got %v, want the unknown-policy error", policy, err)
		}
	}
	for spec, want := range map[string]string{
		"zap@3":         "unknown kind",
		"vmfault@3:2:1": "too many arguments",
	} {
		cfg = testConfig("flow", "LAN", 10)
		cfg.inject = spec
		if err := run(cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-inject %s: got %v, want %q", spec, err, want)
		}
	}
	cfg = testConfig("flow", "LAN", 10)
	cfg.engine = "compiled"
	if err := run(cfg); err == nil || !strings.Contains(err.Error(), "want threaded or interp") {
		t.Errorf("-engine compiled: got %v, want the unknown-engine error", err)
	}
}

// TestFlagHelp pins the engine and profile flags' surface: two engines,
// and -profile-out writes only the .folded and .pb.gz outputs.
func TestFlagHelp(t *testing.T) {
	fs := flag.NewFlagSet("packetbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var cfg config
	registerFlags(fs, &cfg)
	if got := fs.Lookup("engine").Usage; !strings.Contains(got, "threaded|interp") || strings.Contains(got, "compiled") {
		t.Errorf("-engine help = %q, want threaded|interp only", got)
	}
	if got := fs.Lookup("profile-out").Usage; !strings.Contains(got, ".folded") || !strings.Contains(got, ".pb.gz") || strings.Contains(got, ".counts") {
		t.Errorf("-profile-out help = %q, want .folded and .pb.gz only", got)
	}
	if err := fs.Parse([]string{"-profile-in", "x.counts"}); err == nil {
		t.Error("-profile-in accepted")
	}
}

// TestPoolFlagChecks: -pool below 1, a pool with an output only the
// single-core path writes, and one core with a setting only the pool
// scheduler reads, exit with an error naming the flag.
func TestPoolFlagChecks(t *testing.T) {
	for _, tc := range []struct {
		name string
		pool int
		set  func(*config)
		want string
	}{
		{"pool 0", 0, func(*config) {}, "-pool 0"},
		{"pool -1", -1, func(*config) {}, "-pool -1"},
		{"out", 2, func(c *config) { c.outFile = filepath.Join(t.TempDir(), "o.pcap") }, "-out"},
		{"microarch", 2, func(c *config) { c.uarch = true }, "-microarch"},
		{"dumppkt", 2, func(c *config) { c.dumpPkt = 3 }, "-dumppkt"},
		{"annotate", 2, func(c *config) { c.annotate = true }, "-annotate"},
		{"flowgraph", 2, func(c *config) { c.flowDot = filepath.Join(t.TempDir(), "f.dot") }, "-flowgraph"},
		{"deadline", 1, func(c *config) { c.deadline = time.Nanosecond }, "-deadline"},
		{"stall-timeout", 1, func(c *config) { c.stallTimeout = time.Nanosecond }, "-stall-timeout"},
		{"shed", 1, func(c *config) { c.shed = "drop-newest" }, "-shed"},
		{"batch", 1, func(c *config) { c.batch = 7 }, "-batch"},
		{"checkpoint", 1, func(c *config) { c.checkpoint = filepath.Join(t.TempDir(), "ck.json") }, "-checkpoint needs the pool scheduler"},
		{"checkpoint gen", 2, func(c *config) { c.checkpoint = filepath.Join(t.TempDir(), "ck.json") }, "-checkpoint needs -trace"},
	} {
		cfg := testConfig("tsa", "LAN", 20)
		cfg.pool = tc.pool
		tc.set(&cfg)
		if err := run(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error naming %s", tc.name, err, tc.want)
		}
	}
	cfg := testConfig("tsa", "LAN", 20)
	cfg.shed = "block" // the flag's default
	if err := run(cfg); err != nil {
		t.Errorf("-shed block at -pool 1: %v", err)
	}
}

func TestRunPoolMode(t *testing.T) {
	cfg := testConfig("tsa", "LAN", 80)
	cfg.pool = 4
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRunPoolStreamsShardedTrace exercises the streaming ingestion path:
// a multi-core pool fed straight from a timestamp-merged pair of pcap
// shards, with an explicit batch size.
func TestRunPoolStreamsShardedTrace(t *testing.T) {
	dir := t.TempDir()
	pkts := gen.Generate(gen.Profile{
		Name: "shardtest", Flows: 30, NewFlowProb: 0.1, TCP: 1,
		Sizes: []gen.SizePoint{{Bytes: 80, Weight: 1}}, AddrBits: 12, Seed: 7,
	}, 120)
	shards := []string{filepath.Join(dir, "s0.pcap"), filepath.Join(dir, "s1.pcap")}
	for i, path := range shards {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w, err := trace.NewPcapWriter(f)
		if err != nil {
			t.Fatal(err)
		}
		for j := i; j < len(pkts); j += 2 {
			if err := w.WritePacket(pkts[j]); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cfg := testConfig("flow", "", 0)
	cfg.traceFile = shards[0] + "," + shards[1]
	cfg.pool = 4
	cfg.batch = 8
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithFaultInjection(t *testing.T) {
	// Injected corruption under the skip policy must not abort the run,
	// on one core or on a pool.
	cfg := testConfig("tsa", "LAN", 40)
	cfg.faultPolicy = "skip"
	cfg.errorBudget = 10
	cfg.inject = "flip@3,trunc@7:20,vmfault@11:5"
	if err := run(cfg); err != nil {
		t.Fatalf("single core: %v", err)
	}
	cfg.pool = 3
	if err := run(cfg); err != nil {
		t.Fatalf("pool: %v", err)
	}

	// The same corruption under fail-fast must abort: vmfault@11 forces an
	// illegal instruction regardless of what the app does with the packet.
	cfg = testConfig("tsa", "LAN", 40)
	cfg.inject = "vmfault@11:5"
	if err := run(cfg); err == nil {
		t.Error("fail-fast swallowed a forced VM fault")
	}
}

// TestPacketFaultsKeepThreadedEngine: an injection plan, of packet- or
// execution-surface faults, leaves the run on the threaded engine.
func TestPacketFaultsKeepThreadedEngine(t *testing.T) {
	for _, inject := range []string{"flip@3,trunc@7:20", "flip@3,vmfault@500"} {
		for _, pool := range []int{1, 2} {
			cfg := testConfig("radix", "MRA", 200)
			cfg.pool = pool
			cfg.inject = inject
			cfg.traceOut = filepath.Join(t.TempDir(), "journeys.json")
			cfg.traceSample = "1"
			if err := run(cfg); err != nil {
				t.Fatalf("%s, pool %d: %v", inject, pool, err)
			}
			data, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Name string
					Args map[string]any
				}
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			spans := 0
			for _, ev := range doc.TraceEvents {
				if ev.Name != "exec" {
					continue
				}
				spans++
				if got := ev.Args["engine"]; got != float64(core.EngineThreaded) {
					t.Fatalf("%s, pool %d: exec span of packet %v reports engine %v, want %d",
						inject, pool, ev.Args["index"], got, core.EngineThreaded)
				}
			}
			if spans == 0 {
				t.Fatalf("%s, pool %d: no exec spans kept", inject, pool)
			}
		}
	}
}

// writeCorruptPcap writes n generated packets to a pcap file and breaks
// the record length of each record listed in corrupt.
func writeCorruptPcap(t *testing.T, n int, corrupt ...int) string {
	t.Helper()
	return writeCorruptShard(t, corruptPackets(n), "corrupt.pcap", corrupt...)
}

func corruptPackets(n int) []*trace.Packet {
	return gen.Generate(gen.Profile{
		Name: "corrupt", Flows: 30, NewFlowProb: 0.1, TCP: 1,
		Sizes: []gen.SizePoint{{Bytes: 80, Weight: 1}}, AddrBits: 12, Seed: 3,
	}, n)
}

// writeCorruptShard writes pkts to the pcap file name in a temporary
// directory and breaks the record length of each record listed in
// corrupt.
func writeCorruptShard(t *testing.T, pkts []*trace.Packet, name string, corrupt ...int) string {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewPcapWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	data := buf.Bytes()
	for off, i := 24, 0; off+16 <= len(data); i++ {
		incl := int(binary.LittleEndian.Uint32(data[off+8:]))
		for _, c := range corrupt {
			if c == i {
				binary.LittleEndian.PutUint32(data[off+8:], 0xFFFFFFF0)
			}
		}
		off += 16 + incl
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// captureRun runs cfg with stdout captured.
func captureRun(t *testing.T, cfg config) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := run(cfg)
	os.Stdout = stdout
	w.Close()
	return <-out, runErr
}

// TestCorruptPcapLosesOnlyCorruptRecords: skip-and-resync past a broken
// record length loses that record and no other. The resync scan runs
// through the broken record's body, where a window can alias a header
// whose claimed body swallows dozens of real records and still lines up
// with one of them; its timestamp gives it away.
func TestCorruptPcapLosesOnlyCorruptRecords(t *testing.T) {
	for _, c := range []struct {
		n       int
		corrupt []int
	}{{400, []int{50, 120, 200, 300}}, {1200, []int{100, 350, 700, 1000}}} {
		r, err := trace.OpenPcap(writeCorruptPcap(t, c.n, c.corrupt...))
		if err != nil {
			t.Fatal(err)
		}
		r.SetSkipMalformed(trace.NewSkipBudget(len(c.corrupt)))
		pkts, err := trace.ReadAll(r, 0)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(pkts) != c.n-len(c.corrupt) || r.Skipped() != len(c.corrupt) {
			t.Errorf("%d records broken at %v: read %d packets and %d skips, want %d and %d",
				c.n, c.corrupt, len(pkts), r.Skipped(), c.n-len(c.corrupt), len(c.corrupt))
		}
	}
}

// TestCorruptTraceSameErrorOnEveryPath: once the reader's skip budget is
// spent, the single-core and pool paths fail with the same reader error
// at the same offset.
func TestCorruptTraceSameErrorOnEveryPath(t *testing.T) {
	path := writeCorruptPcap(t, 400, 50, 120, 200, 300)
	var errs []string
	for _, pool := range []int{1, 2} {
		cfg := testConfig("tsa", "", 0)
		cfg.traceFile = path
		cfg.pool = pool
		cfg.faultPolicy = "skip"
		cfg.errorBudget = 2
		_, err := captureRun(t, cfg)
		if err == nil || !strings.Contains(err.Error(), "malformed pcap record at offset") {
			t.Fatalf("pool %d: got %v, want the reader's malformed-record error", pool, err)
		}
		errs = append(errs, err.Error())
	}
	if errs[0] != errs[1] {
		t.Errorf("paths disagree:\n  pool 1: %s\n  pool 2: %s", errs[0], errs[1])
	}
}

// TestResumeKeepsSkipCount: a run interrupted after its checkpoint and
// resumed prints the summary of an uninterrupted run, its malformed-record
// count included, and checkpoints the restored count plus its own. Radix
// derives its table in a pass that reads the trace again from its start.
// A checkpoint does not carry the coverage sets, so the resumed run
// leaves memory touched out.
func TestResumeKeepsSkipCount(t *testing.T) {
	path := writeCorruptPcap(t, 1200, 100, 350, 700, 1000)
	summary := func(out string) string {
		var keep []string
		for _, line := range strings.Split(out, "\n") {
			if line != "" && !strings.Contains(line, "memory touched") &&
				!strings.HasPrefix(line, "resuming from") && !strings.HasPrefix(line, "checkpoints:") {
				keep = append(keep, line)
			}
		}
		return strings.Join(keep, "\n")
	}
	for _, app := range []string{"tsa", "radix"} {
		t.Run(app, func(t *testing.T) {
			base := testConfig(app, "", 0)
			base.traceFile = path
			base.pool = 2
			base.faultPolicy = "skip"
			// The interrupted run stops at -n 600, and its table pass with
			// it: a table that fills within 600 packets is the one the
			// full run derives too.
			base.prefixes = 64
			full, err := captureRun(t, base)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(full, "trace: skipped 4 malformed records") {
				t.Fatalf("uninterrupted run does not skip the 4 corrupt records:\n%s", full)
			}

			part := base
			part.count = 600
			part.checkpoint = filepath.Join(t.TempDir(), "ck.json")
			part.checkpointEvery = 100
			if _, err := captureRun(t, part); err != nil {
				t.Fatal(err)
			}
			cp, err := core.LoadCheckpoint(part.checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			if cp.ReaderSkipped == 0 {
				t.Fatalf("checkpoint at %d records no skips", cp.NextIndex)
			}
			resumed := base
			resumed.checkpoint = part.checkpoint
			resumed.resume = true
			out, err := captureRun(t, resumed)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out, "resuming from") || strings.Contains(out, "memory touched") {
				t.Fatalf("run did not resume, or reports memory touched:\n%s", out)
			}
			if got, want := summary(out), summary(full); got != want {
				t.Errorf("resumed run:\n%s\nuninterrupted run:\n%s", got, want)
			}
		})
	}
}

// TestResumeKeepsSkipBudget: the readers' skip budget is spent across a
// kill and resume exactly as in an uninterrupted run. With three skips
// allowed and five corrupt records, the uninterrupted run fails at the
// fourth, and so must a run stopped after the third and resumed, whether
// the capture is one file or two shards drawing on the one budget.
func TestResumeKeepsSkipBudget(t *testing.T) {
	pkts := corruptPackets(2000)
	var evens, odds []*trace.Packet
	for i, p := range pkts {
		if i%2 == 0 {
			evens = append(evens, p)
		} else {
			odds = append(odds, p)
		}
	}
	for _, tc := range []struct {
		name   string
		traces string
	}{
		{"one file", writeCorruptShard(t, pkts, "one.pcap", 100, 300, 500, 1300, 1600)},
		// Shard 0 holds three of the corrupt records and shard 1 two, so
		// only a budget the shards share runs out.
		{"two shards", writeCorruptShard(t, evens, "s0.pcap", 50, 150, 650) + "," +
			writeCorruptShard(t, odds, "s1.pcap", 250, 800)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := testConfig("tsa", "", 0)
			base.traceFile = tc.traces
			base.pool = 2
			base.faultPolicy = "skip"
			base.errorBudget = 3
			_, fullErr := captureRun(t, base)
			if fullErr == nil || !strings.Contains(fullErr.Error(), "malformed pcap record at offset") {
				t.Fatalf("uninterrupted run: got %v, want the reader's malformed-record error", fullErr)
			}

			part := base
			part.count = 1200
			part.checkpoint = filepath.Join(t.TempDir(), "ck.json")
			part.checkpointEvery = 100
			if _, err := captureRun(t, part); err != nil {
				t.Fatal(err)
			}
			cp, err := core.LoadCheckpoint(part.checkpoint)
			if err != nil {
				t.Fatal(err)
			}
			if cp.ReaderSkipped != 3 {
				t.Fatalf("checkpoint at %d records %d skips, want the budget's 3", cp.NextIndex, cp.ReaderSkipped)
			}
			resumed := base
			resumed.checkpoint = part.checkpoint
			resumed.resume = true
			out, err := captureRun(t, resumed)
			if !strings.Contains(out, "resuming from") {
				t.Fatalf("run did not resume:\n%s", out)
			}
			if err == nil || err.Error() != fullErr.Error() {
				t.Errorf("resumed run: got %v, uninterrupted run %v", err, fullErr)
			}
		})
	}
}

// TestResumeSkipsPastPendingHead: a merge reads one packet ahead on every
// shard, so when a checkpoint is taken, a shard's buffered head may lie
// past a corrupt record it already skipped. The checkpoint must not count
// that skip: the resumed run re-reads and skips the record again, and
// with a budget of one it would otherwise fail where the uninterrupted
// run completes. Shard 1's first packet is the earliest of the run and
// its next good one the latest, so its head waits past the corrupt
// record while shard 0 supplies every packet up to the checkpoint.
func TestResumeSkipsPastPendingHead(t *testing.T) {
	pkts := corruptPackets(1000)
	for i, p := range pkts {
		p.Sec, p.Usec = uint32(1+i), 0
	}
	pkts[900].Sec = 0
	traces := writeCorruptShard(t, pkts[:900], "s0.pcap") + "," +
		writeCorruptShard(t, pkts[900:], "s1.pcap", 1)
	base := testConfig("tsa", "", 0)
	base.traceFile = traces
	base.pool = 2
	base.faultPolicy = "skip"
	base.errorBudget = 1
	full, err := captureRun(t, base)
	if err != nil {
		t.Fatal(err)
	}
	const want = "trace: skipped 1 malformed records"
	if !strings.Contains(full, want) {
		t.Fatalf("uninterrupted run does not report %q:\n%s", want, full)
	}

	part := base
	part.count = 600
	part.checkpoint = filepath.Join(t.TempDir(), "ck.json")
	part.checkpointEvery = 100
	if _, err := captureRun(t, part); err != nil {
		t.Fatal(err)
	}
	cp, err := core.LoadCheckpoint(part.checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if cp.ReaderSkipped != 0 {
		t.Errorf("checkpoint at %d counts %d skips past its reader position %v", cp.NextIndex, cp.ReaderSkipped, cp.ReaderPos)
	}
	resumed := base
	resumed.checkpoint = part.checkpoint
	resumed.resume = true
	out, err := captureRun(t, resumed)
	if err != nil {
		t.Fatalf("resumed run: %v (the uninterrupted run completes)", err)
	}
	if !strings.Contains(out, "resuming from") || !strings.Contains(out, want) {
		t.Errorf("resumed run does not resume and report %q:\n%s", want, out)
	}
}

// TestNoVerifyGatesLoading exercises the load-time verification contract
// the -no-verify flag toggles: a statically-rejected program refuses to
// load by default, the refusal names the escape hatch, and setting
// NoVerify (what -no-verify does) loads it anyway.
func TestNoVerifyGatesLoading(t *testing.T) {
	bad := &core.App{Name: "escape", Source: "e:\nj 0x100000\nhalt", Entry: "e"}
	_, err := core.New(bad, core.Options{})
	if err == nil {
		t.Fatal("verifier-rejected program loaded without -no-verify")
	}
	err = describeVerifyError(err)
	if !strings.Contains(err.Error(), "-no-verify") {
		t.Errorf("refusal does not mention the flag: %v", err)
	}
	if _, err := core.New(bad, core.Options{NoVerify: true}); err != nil {
		t.Fatalf("-no-verify load failed: %v", err)
	}
	// Non-verifier errors pass through describeVerifyError untouched.
	if got := describeVerifyError(os.ErrNotExist); got != os.ErrNotExist {
		t.Errorf("unrelated error rewritten: %v", got)
	}
}

func TestRunObservability(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig("radix", "MRA", 200)
	cfg.progress = true
	cfg.debugAddr = "127.0.0.1:0"
	cfg.profileOut = filepath.Join(dir, "prof")
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	folded, err := os.ReadFile(cfg.profileOut + ".folded")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(folded), "process_packet ") {
		t.Errorf("folded output missing process_packet:\n%s", folded)
	}
	if _, err := os.Stat(cfg.profileOut + ".pb.gz"); err != nil {
		t.Errorf("pprof output missing: %v", err)
	}
	if _, err := os.Stat(cfg.profileOut + ".counts"); !os.IsNotExist(err) {
		t.Errorf("-profile-out wrote a .counts file: %v", err)
	}
}

func TestRunPoolObservability(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig("flow", "COS", 300)
	cfg.pool = 3
	cfg.progress = true
	cfg.profileOut = filepath.Join(dir, "poolprof")
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(cfg.profileOut + ".folded"); err != nil {
		t.Errorf("pool folded output missing: %v", err)
	}
}

// writeTracePcap writes n packets of the named generator profile to a
// pcap file in a temporary directory.
func writeTracePcap(t *testing.T, profile string, n int) string {
	t.Helper()
	prof, err := gen.ProfileByName(profile)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), profile+".pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewPcapWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range gen.Generate(prof, n) {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// coreCountLine matches the summary header, the one line that names the
// core count.
var coreCountLine = regexp.MustCompile(`(?m)^.* over [0-9]+ packets( on [0-9]+ simulated cores)?\n`)

// summaryLines are the lines every run's summary prints.
var summaryLines = []string{
	"instructions/packet:", "unique instructions/packet:", "packet mem accesses/packet:",
	"non-packet accesses/packet:", "instruction memory touched:", "data memory touched:",
	"most frequent instruction counts:", "    min ", "verdicts:",
}

// TestSingleCoreMatchesPool: one core and a pool of two print the same
// summary for the stateless applications, apart from the header naming
// the core count, on a pcap and on a generated trace, with a table the
// run derives from the trace. Flow classification keeps per-core tables,
// so both of its runs need only print every summary line.
func TestSingleCoreMatchesPool(t *testing.T) {
	pcap := writeTracePcap(t, "MRA", 400)
	corrupt := writeCorruptPcap(t, 1200, 100, 350, 700, 1000)
	for _, tc := range []struct {
		name   string
		set    func(*config)
		want   string // a line both runs print, when set
		golden string // both runs' output, header aside, when set
	}{
		{"radix pcap", func(c *config) { c.traceFile = pcap }, "", ""},
		{"trie pcap", func(c *config) { c.traceFile = pcap }, "", ""},
		{"tsa pcap", func(c *config) { c.traceFile = pcap }, "", ""},
		{"flow pcap", func(c *config) { c.traceFile = pcap }, "", ""},
		{"radix gen", func(c *config) { c.gen, c.count = "MRA", 400 }, "", ""},
		{"trie gen", func(c *config) { c.gen, c.count = "MRA", 400 }, "", ""},
		{"tsa gen", func(c *config) { c.gen, c.count = "MRA", 400 }, "", ""},
		{"flow gen", func(c *config) { c.gen, c.count = "MRA", 400 }, "", ""},
		{"radix corrupt pcap", func(c *config) {
			c.traceFile = corrupt
			c.faultPolicy = "skip"
		}, "trace: skipped 4 malformed records", ""},
		// The table pass reads through the injector, as the run does: the
		// flips at 3 and 7 land in destination addresses and move the
		// derived table (267 prefixes without them).
		{"radix inject", func(c *config) {
			c.gen, c.count = "MRA", 300
			c.inject = "flip@3:17,flip@7:19,flip@40"
			c.faultPolicy = "skip"
		}, "", injectedRadixGolden},
	} {
		t.Run(tc.name, func(t *testing.T) {
			app, _, _ := strings.Cut(tc.name, " ")
			var outs []string
			for _, pool := range []int{1, 2} {
				cfg := testConfig(app, "", 0)
				tc.set(&cfg)
				cfg.pool = pool
				out, err := captureRun(t, cfg)
				if err != nil {
					t.Fatalf("pool %d: %v", pool, err)
				}
				for _, line := range summaryLines {
					if !strings.Contains(out, line) {
						t.Errorf("pool %d prints no %q line:\n%s", pool, line, out)
					}
				}
				if tc.want != "" && strings.Count(out, tc.want+"\n") != 1 {
					t.Errorf("pool %d does not print %q once:\n%s", pool, tc.want, out)
				}
				outs = append(outs, coreCountLine.ReplaceAllString(out, ""))
			}
			if app != "flow" && outs[0] != outs[1] {
				t.Errorf("one core and a pool disagree:\n--- pool 1\n%s\n--- pool 2\n%s", outs[0], outs[1])
			}
			if want := coreCountLine.ReplaceAllString(tc.golden, ""); tc.golden != "" && outs[0] != want {
				t.Errorf("output differs from the preloading run's:\n--- got\n%s\n--- want\n%s", outs[0], want)
			}
		})
	}
}

// injectedRadixGolden is the output of the "radix inject" case from the
// single-core path that preloaded the trace and corrupted it up front.
const injectedRadixGolden = `fault injection: 3 planned injections, seed 1
routing table: 268 prefixes

IPv4-radix over 300 packets
  instructions/packet:             700.2
  unique instructions/packet:      127.4
  packet mem accesses/packet:       33.9
  non-packet accesses/packet:      174.6
  instruction memory touched:        576 bytes
  data memory touched:             58044 bytes

  most frequent instruction counts:
         730 instructions:    135 packets (45.00%)
         862 instructions:     32 packets (10.67%)
         554 instructions:     25 packets (8.33%)
    min 105 (0.67%), max 862 (10.67%), mean 700.2

  verdicts:
       0: 2 packets
       1: 14 packets
       2: 11 packets
       3: 14 packets
       4: 15 packets
       5: 21 packets
       6: 14 packets
       7: 11 packets
       8: 20 packets
       9: 15 packets
      10: 16 packets
      11: 24 packets
      12: 23 packets
      13: 13 packets
      14: 51 packets
      15: 15 packets
      16: 21 packets
`
