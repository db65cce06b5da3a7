// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md for the experiment index). Each benchmark
// runs the corresponding experiment end to end and reports the headline
// quantity of that table/figure as a custom metric, so `go test -bench`
// output doubles as a compact reproduction summary. The full formatted
// tables and ASCII figures come from `go run ./cmd/pbreport`.
//
// Benchmark workloads are scaled below the paper's packet counts to keep
// a full -bench=. sweep in seconds; cmd/pbreport runs paper scale.
package packetbench

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/ptrace"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// benchConfig scales the experiments for benchmarking.
var benchConfig = report.Config{
	TablePackets:       1_000,
	CoveragePackets:    500,
	VariationPackets:   2_000,
	FigurePackets:      500,
	RoutePrefixes:      8_192,
	SmallRoutePrefixes: 512,
}

// freshEnv builds an environment with the timer stopped. Each iteration
// gets its own, so it times the simulation rather than reads of runs an
// earlier iteration left in the Env's run cache; trace and table
// generation stay out of the timings.
func freshEnv(b *testing.B) *report.Env {
	b.StopTimer()
	defer b.StartTimer()
	return report.NewEnv(benchConfig)
}

// BenchmarkTable1TraceGen regenerates Table I's trace inventory by
// generating packets from each profile (the inventory itself is static;
// the work is the generation the other experiments depend on).
func BenchmarkTable1TraceGen(b *testing.B) {
	profiles := gen.Profiles()
	b.ReportMetric(float64(len(profiles)), "traces")
	var pkts int
	for i := 0; i < b.N; i++ {
		for _, p := range profiles {
			pkts += len(gen.Generate(p, 500))
		}
	}
	b.ReportMetric(float64(pkts)/float64(b.N), "packets/op")
}

// BenchmarkTable2Complexity runs the 4x4 application/trace matrix and
// reports the paper's headline cell: IPv4-radix mean instructions per
// packet (paper: thousands; trie and flow: low hundreds).
func BenchmarkTable2Complexity(b *testing.B) {
	var m *report.Matrix
	var err error
	for i := 0; i < b.N; i++ {
		m, err = freshEnv(b).RunMatrix(benchConfig.TablePackets)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(m.Cells["MRA"]["IPv4-radix"].MeanInstructions, "radix-instr/pkt")
	b.ReportMetric(m.Cells["MRA"]["IPv4-trie"].MeanInstructions, "trie-instr/pkt")
	b.ReportMetric(m.Cells["MRA"]["Flow Classification"].MeanInstructions, "flow-instr/pkt")
	b.ReportMetric(m.Cells["MRA"]["TSA"].MeanInstructions, "tsa-instr/pkt")
}

// BenchmarkTable3MemAccess reports the Table III split: packet versus
// non-packet memory accesses per packet for IPv4-radix (paper: 32 vs
// ~840).
func BenchmarkTable3MemAccess(b *testing.B) {
	var m *report.Matrix
	var err error
	for i := 0; i < b.N; i++ {
		m, err = freshEnv(b).RunMatrix(benchConfig.TablePackets)
		if err != nil {
			b.Fatal(err)
		}
	}
	c := m.Cells["MRA"]["IPv4-radix"]
	b.ReportMetric(c.MeanPacketAcc, "radix-pktacc/pkt")
	b.ReportMetric(c.MeanNonPacketAcc, "radix-nonpkt/pkt")
}

// BenchmarkTable4MemCoverage reports the Table IV memory footprints for
// IPv4-radix (paper: 4,420 instruction bytes, 18,004 data bytes).
func BenchmarkTable4MemCoverage(b *testing.B) {
	var rows []report.Table4Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = freshEnv(b).Table4()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.App == "IPv4-radix" {
			b.ReportMetric(float64(r.InstrMemSize), "radix-instr-bytes")
			b.ReportMetric(float64(r.DataMemSize), "radix-data-bytes")
		}
	}
}

// BenchmarkTable5Variation reports the Table V concentration: combined
// share of the three most frequent instruction counts for Flow
// Classification (paper: ~94%).
func BenchmarkTable5Variation(b *testing.B) {
	var rows []report.VariationRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = freshEnv(b).Variation(false)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.App {
		case "Flow Classification":
			b.ReportMetric(r.Table.TopPct(), "flow-top3-pct")
		case "IPv4-radix":
			b.ReportMetric(r.Table.TopPct(), "radix-top3-pct")
		}
	}
}

// BenchmarkTable6UniqueVariation reports Table VI: the repetition factor
// (total/unique instructions) for IPv4-radix versus IPv4-trie (paper:
// ~4x vs ~1.5x). Both tables read one simulation per application, as in
// pbreport: Table VI is a second read of the COS runs Table V cached.
func BenchmarkTable6UniqueVariation(b *testing.B) {
	var totals, uniques []report.VariationRow
	var err error
	for i := 0; i < b.N; i++ {
		e := freshEnv(b)
		totals, err = e.Variation(false)
		if err != nil {
			b.Fatal(err)
		}
		uniques, err = e.Variation(true)
		if err != nil {
			b.Fatal(err)
		}
	}
	factor := func(app string) float64 {
		var tot, uni float64
		for _, r := range totals {
			if r.App == app {
				tot = r.Table.Mean
			}
		}
		for _, r := range uniques {
			if r.App == app {
				uni = r.Table.Mean
			}
		}
		if uni == 0 {
			return 0
		}
		return tot / uni
	}
	b.ReportMetric(factor("IPv4-radix"), "radix-repetition")
	b.ReportMetric(factor("IPv4-trie"), "trie-repetition")
}

// BenchmarkFig3ComplexityScatter regenerates the Figure 3 per-packet
// series and reports the IPv4-radix min-max spread (paper: wide) and the
// Flow Classification spread (paper: a few discrete levels).
func BenchmarkFig3ComplexityScatter(b *testing.B) {
	var series []report.Series
	var err error
	for i := 0; i < b.N; i++ {
		series, err = freshEnv(b).FigureSeries(report.MetricInstructions)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range series {
		lo, hi := s.Values[0], s.Values[0]
		for _, v := range s.Values {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		name := "radix-spread"
		if s.App == "Flow Classification" {
			name = "flow-spread"
		}
		b.ReportMetric(hi-lo, name)
	}
}

// BenchmarkFig4PacketMemScatter regenerates Figure 4 and reports the
// near-constant packet-memory access level.
func BenchmarkFig4PacketMemScatter(b *testing.B) {
	var series []report.Series
	var err error
	for i := 0; i < b.N; i++ {
		series, err = freshEnv(b).FigureSeries(report.MetricPacketAccesses)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum float64
	for _, v := range series[0].Values {
		sum += v
	}
	b.ReportMetric(sum/float64(len(series[0].Values)), "radix-pktacc/pkt")
}

// BenchmarkFig5NonPacketMemScatter regenerates Figure 5 and reports the
// correlation driver: mean non-packet accesses for IPv4-radix.
func BenchmarkFig5NonPacketMemScatter(b *testing.B) {
	var series []report.Series
	var err error
	for i := 0; i < b.N; i++ {
		series, err = freshEnv(b).FigureSeries(report.MetricNonPacketAccesses)
		if err != nil {
			b.Fatal(err)
		}
	}
	var sum float64
	for _, v := range series[0].Values {
		sum += v
	}
	b.ReportMetric(sum/float64(len(series[0].Values)), "radix-nonpkt/pkt")
}

// BenchmarkFig6InstrPattern regenerates the single-packet instruction
// pattern and reports the loop repetition visible in Figure 6.
func BenchmarkFig6InstrPattern(b *testing.B) {
	var patterns []report.Pattern
	var err error
	for i := 0; i < b.N; i++ {
		patterns, err = freshEnv(b).Figure6(0)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range patterns {
		name := "radix-repetition"
		if p.App == "Flow Classification" {
			name = "flow-repetition"
		}
		b.ReportMetric(float64(len(p.Indices))/float64(p.Unique), name)
	}
}

// BenchmarkFig7BBFreq regenerates Figure 7 and reports the fraction of
// basic blocks executed by every packet (probability 1).
func BenchmarkFig7BBFreq(b *testing.B) {
	var bs []report.BlockStats
	var err error
	for i := 0; i < b.N; i++ {
		bs, err = freshEnv(b).BlockStatistics()
		if err != nil {
			b.Fatal(err)
		}
	}
	always := 0
	for _, p := range bs[0].Probabilities {
		if p == 1 {
			always++
		}
	}
	b.ReportMetric(float64(always)/float64(len(bs[0].Probabilities)), "radix-always-frac")
}

// BenchmarkFig8BBCoverage regenerates Figure 8 and reports the paper's
// sweet spot: blocks needed for 90% packet coverage.
func BenchmarkFig8BBCoverage(b *testing.B) {
	var bs []report.BlockStats
	var err error
	for i := 0; i < b.N; i++ {
		bs, err = freshEnv(b).BlockStatistics()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range bs {
		name := "radix-blocks90"
		if s.App == "Flow Classification" {
			name = "flow-blocks90"
		}
		b.ReportMetric(float64(s.Blocks90), name)
	}
}

// BenchmarkFig9MemSequence regenerates the single-packet memory access
// sequence and reports its length.
func BenchmarkFig9MemSequence(b *testing.B) {
	var seqs []report.MemSeq
	var err error
	for i := 0; i < b.N; i++ {
		seqs, err = freshEnv(b).Figure9(0)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(seqs[0].Instr)), "radix-accesses")
}

// ----------------------------------------------------------------------
// Raw throughput benchmarks: how fast the simulator itself runs. These
// are not paper experiments but the practical numbers a user of the tool
// cares about.

func benchmarkApp(b *testing.B, app *core.App, pkts []*trace.Packet) {
	bench, err := core.New(app, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		res, err := bench.ProcessPacket(pkts[i%len(pkts)])
		if err != nil {
			b.Fatal(err)
		}
		instr += res.Record.Instructions
	}
	b.ReportMetric(float64(instr)/float64(b.N), "sim-instr/pkt")
}

func benchPackets(b *testing.B) ([]*trace.Packet, *RouteTable) {
	b.Helper()
	pkts := GenerateTrace("MRA", 2000)
	return pkts, RouteTableFromTrace(pkts, 8192)
}

func BenchmarkSimIPv4Radix(b *testing.B) {
	pkts, tbl := benchPackets(b)
	benchmarkApp(b, NewIPv4Radix(tbl), pkts)
}

func BenchmarkSimIPv4Trie(b *testing.B) {
	pkts, tbl := benchPackets(b)
	benchmarkApp(b, NewIPv4Trie(tbl), pkts)
}

func BenchmarkSimFlowClassification(b *testing.B) {
	pkts, _ := benchPackets(b)
	benchmarkApp(b, NewFlowClassification(0), pkts)
}

func BenchmarkSimTSA(b *testing.B) {
	pkts, _ := benchPackets(b)
	benchmarkApp(b, NewTSA(7), pkts)
}

// BenchmarkSimulatorMIPS measures raw simulated instructions per second
// with the statistics collector attached (the realistic configuration).
func BenchmarkSimulatorMIPS(b *testing.B) {
	pkts, tbl := benchPackets(b)
	bench, err := core.New(NewIPv4Radix(tbl), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instr uint64
	for i := 0; i < b.N; i++ {
		res, err := bench.ProcessPacket(pkts[i%len(pkts)])
		if err != nil {
			b.Fatal(err)
		}
		instr += res.Record.Instructions
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(instr)/sec/1e6, "sim-MIPS")
	}
}

// BenchmarkProcessPacketSmall measures the per-packet hot path on
// 40–64-byte packets — the minimum-size traffic that dominates backbone
// captures — across engine × tracing. Before the dirty-length
// optimization every packet paid a 64 KiB buffer memset; now placement
// cost tracks the packet size. The threaded/traced=false row runs the
// block-threaded loop with statistics off and is the one to watch for
// hot-path regressions. threaded/traced=true is the path -pool runs
// take: the same loop keeping the collector's account inline, with no
// tracer attached. interp rows exist so the speedup of
// the block-threaded engine over the reference interpreter stays
// visible in plain -bench output.
func BenchmarkProcessPacketSmall(b *testing.B) {
	pkts := smallPackets()
	for _, engine := range []core.EngineKind{core.EngineThreaded, core.EngineInterpreter} {
		for _, traced := range []bool{false, true} {
			b.Run(fmt.Sprintf("%s/traced=%v", engine, traced), func(b *testing.B) {
				bench, err := core.New(NewTSA(7), core.Options{Engine: engine})
				if err != nil {
					b.Fatal(err)
				}
				bench.SetTracing(traced)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := bench.ProcessPacket(pkts[i%len(pkts)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
	// Telemetry guardrail on the fast path (threaded, tracing off): with
	// no registry the hot path must keep zero allocations per packet —
	// only nil-check branches remain; with a registry attached the cost
	// is a handful of atomic adds and must stay allocation-free too.
	for _, tel := range []bool{false, true} {
		b.Run(fmt.Sprintf("telemetry=%v", tel), func(b *testing.B) {
			opts := core.Options{Engine: core.EngineThreaded}
			if tel {
				opts.Metrics = telemetry.NewRegistry()
			}
			bench, err := core.New(NewTSA(7), opts)
			if err != nil {
				b.Fatal(err)
			}
			bench.SetTracing(false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bench.ProcessPacket(pkts[i%len(pkts)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// Packet-journey tracing guardrail, same contract as telemetry:
	// disarmed (no Tracer in Options) the hot path pays only nil
	// checks and must stay at zero allocations per packet; armed, every
	// span lands in preallocated rings and must stay allocation-free
	// too.
	for _, traced := range []bool{false, true} {
		b.Run(fmt.Sprintf("ptrace=%v", traced), func(b *testing.B) {
			opts := core.Options{Engine: core.EngineThreaded}
			if traced {
				opts.Trace = ptrace.New(ptrace.Config{Lanes: 1, SampleEvery: 64})
			}
			bench, err := core.New(NewTSA(7), opts)
			if err != nil {
				b.Fatal(err)
			}
			bench.SetTracing(false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bench.ProcessPacket(pkts[i%len(pkts)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// smallPackets is the 256-packet minimum-size (40-64 B IPv4/UDP) input
// of BenchmarkProcessPacketSmall and TestTracingGuardrail.
func smallPackets() []*trace.Packet {
	pkts := make([]*trace.Packet, 256)
	for i := range pkts {
		n := 40 + i%25 // 40..64 bytes
		data := make([]byte, n)
		data[0] = 0x45 // IPv4, IHL 5
		data[9] = 17   // UDP
		data[12] = byte(i)
		data[16] = byte(i >> 4)
		pkts[i] = &trace.Packet{Data: data, WireLen: n}
	}
	return pkts
}

// BenchmarkPoolStreaming measures multi-core scaling of the pool's
// batched streaming scheduler (Pool.RunTrace, which Pool.RunPackets also
// runs) on the heaviest application (IPv4-radix). The packets/sec metric
// should scale with the core count up to the host's parallelism. Rows
// with more cores than GOMAXPROCS measure oversubscription, not scaling.
func BenchmarkPoolStreaming(b *testing.B) {
	pkts, tbl := benchPackets(b)
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			pool, err := core.NewPool(NewIPv4Radix(tbl), n, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pool.RunTrace(trace.NewSliceReader(pkts), 0, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(b.N)*float64(len(pkts))/sec, "pkts/sec")
			}
		})
	}
}

func BenchmarkSimPayloadScan(b *testing.B) {
	pkts, _ := benchPackets(b)
	benchmarkApp(b, NewPayloadScan([4]byte{1, 2, 3, 4}), pkts)
}

func BenchmarkSimFrag(b *testing.B) {
	pkts, _ := benchPackets(b)
	benchmarkApp(b, NewFrag(576), pkts)
}
