// Ablation benchmarks for the design choices DESIGN.md calls out: how
// routing table size drives IPv4-radix cost, what the TSA optimization
// buys over full prefix-preserving anonymization, what level compression
// buys the LC-trie, what the statistics tracer costs the simulator, and
// how payload processing scales with packet size.
package packetbench

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/anon"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/microarch"
	"repro/internal/packet"
	"repro/internal/route"
	"repro/internal/trace"
)

// BenchmarkAblationRadixTableKind shows how the trace/table pairing
// drives IPv4-radix cost: a table derived from the traffic (the paper's
// uniform-coverage setup after scrambling) forces deep tree walks, while
// a synthetic table the traffic rarely matches ends walks early — the
// bias the paper's address preprocessing exists to remove.
func BenchmarkAblationRadixTableKind(b *testing.B) {
	pkts := GenerateTrace("MRA", 1000)
	var dsts []uint32
	for _, p := range pkts {
		if h, err := packet.ParseIPv4(p.Data); err == nil {
			dsts = append(dsts, h.Dst)
		}
	}
	kinds := []struct {
		name string
		tbl  *route.Table
	}{
		{"traffic-derived", route.TableFromTraffic(dsts, 0, 16, 9)},
		{"synthetic-random", route.GenerateTable(route.GenOptions{Prefixes: 8192, Seed: 10})},
		{"synthetic-default", route.GenerateTable(route.GenOptions{Prefixes: 8192, Seed: 10, IncludeDefault: true})},
	}
	for _, k := range kinds {
		b.Run(k.name, func(b *testing.B) {
			bench, err := core.New(apps.IPv4Radix(k.tbl), core.Options{})
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
		})
	}
}

// BenchmarkAblationTSAVsFullPP compares the native TSA tables against
// the full bit-by-bit prefix-preserving scheme it optimizes — the
// speedup that justifies the TSA application's existence.
func BenchmarkAblationTSAVsFullPP(b *testing.B) {
	addrs := make([]uint32, 4096)
	rng := rand.New(rand.NewSource(2))
	for i := range addrs {
		addrs[i] = rng.Uint32()
	}
	b.Run("TSA", func(b *testing.B) {
		t := anon.NewTSA(5)
		b.ResetTimer()
		var sink uint32
		for i := 0; i < b.N; i++ {
			sink ^= t.Anonymize(addrs[i%len(addrs)])
		}
		_ = sink
	})
	b.Run("FullPP", func(b *testing.B) {
		f := anon.NewFullPP(5)
		b.ResetTimer()
		var sink uint32
		for i := 0; i < b.N; i++ {
			sink ^= f.Anonymize(addrs[i%len(addrs)])
		}
		_ = sink
	})
}

// BenchmarkAblationLookupStructures compares the native lookup
// structures' speed, the Nilsson-Karlsson motivation for the LC-trie.
func BenchmarkAblationLookupStructures(b *testing.B) {
	tbl := route.GenerateTable(route.GenOptions{Prefixes: 16384, Seed: 3, IncludeDefault: true})
	radix := route.NewRadixTree(tbl)
	lc, err := route.NewLCTrie(tbl)
	if err != nil {
		b.Fatal(err)
	}
	addrs := make([]uint32, 4096)
	rng := rand.New(rand.NewSource(4))
	for i := range addrs {
		addrs[i] = rng.Uint32()
	}
	b.Run("radix", func(b *testing.B) {
		var sink uint32
		for i := 0; i < b.N; i++ {
			h, _ := radix.Lookup(addrs[i%len(addrs)])
			sink ^= h
		}
		_ = sink
	})
	b.Run("lctrie", func(b *testing.B) {
		var sink uint32
		for i := 0; i < b.N; i++ {
			h, _ := lc.Lookup(addrs[i%len(addrs)])
			sink ^= h
		}
		_ = sink
	})
	b.Run("linear", func(b *testing.B) {
		var sink uint32
		for i := 0; i < b.N; i++ {
			h, _ := tbl.LookupLinear(addrs[i%len(addrs)])
			sink ^= h
		}
		_ = sink
	})
}

// BenchmarkAblationTracerOverhead measures what the selective-accounting
// collector costs the simulator, by running the same application with
// tracing detached (the paper's claim that PacketBench "does not
// significantly reduce the performance" of the underlying simulator).
// Every row runs the threaded engine's loop. with-collector keeps the
// collector's account inline with no tracer attached; coverage adds the
// whole-run coverage sets, which is the path packetbench runs on one
// core (the radix-mra benchmark workload); detail also attaches the
// collector as a tracer for its per-packet traces; without-collector is
// the untraced floor.
func BenchmarkAblationTracerOverhead(b *testing.B) {
	pkts := GenerateTrace("MRA", 500)
	tbl := RouteTableFromTrace(pkts, 8192)
	run := func(b *testing.B, opts core.Options, traced bool) {
		bench, err := core.New(apps.IPv4Radix(tbl), opts)
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
	}
	b.Run("with-collector", func(b *testing.B) { run(b, core.Options{}, true) })
	b.Run("coverage", func(b *testing.B) { run(b, core.Options{Coverage: true}, true) })
	b.Run("detail", func(b *testing.B) { run(b, core.Options{Coverage: true, Detail: true}, true) })
	b.Run("without-collector", func(b *testing.B) { run(b, core.Options{}, false) })
}

// BenchmarkAblationPayloadScanSize shows the payload application's cost
// scaling with packet size, unlike the header applications.
func BenchmarkAblationPayloadScanSize(b *testing.B) {
	for _, size := range []int{64, 576, 1500} {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			h := packet.IPv4Header{Version: 4, IHL: 5, TTL: 9,
				Protocol: packet.ProtoUDP, Src: 1, Dst: 2, TotalLen: uint16(size)}
			buf := make([]byte, size)
			for i := range buf {
				buf[i] = byte(i)
			}
			h.MarshalInto(buf)
			pkt := &trace.Packet{Data: buf}
			bench, err := core.New(apps.PayloadScan([4]byte{9, 9, 9, 9}), core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var instr uint64
			for i := 0; i < b.N; i++ {
				res, err := bench.ProcessPacket(pkt)
				if err != nil {
					b.Fatal(err)
				}
				instr += res.Record.Instructions
			}
			b.ReportMetric(float64(instr)/float64(b.N), "sim-instr/pkt")
		})
	}
}

// BenchmarkAblationCacheSize sweeps first-level cache sizes under the
// IPv4-radix workload — quantifying the paper's motivation that "smaller
// on-chip memories suffice due to the nature of packet processing": the
// instruction working set fits in the smallest cache, while the data
// side is table-walk dominated and barely improves with capacity.
func BenchmarkAblationCacheSize(b *testing.B) {
	pkts := GenerateTrace("MRA", 500)
	tbl := RouteTableFromTrace(pkts, 8192)
	for _, kb := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("size=%dKB", kb), func(b *testing.B) {
			bench, err := core.New(apps.IPv4Radix(tbl), core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			ic, err := microarch.NewCache(kb*1024, 16, 2)
			if err != nil {
				b.Fatal(err)
			}
			dc, err := microarch.NewCache(kb*1024, 16, 2)
			if err != nil {
				b.Fatal(err)
			}
			prof := microarch.NewProfiler(ic, dc)
			bench.AddTracer(prof)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bench.ProcessPacket(pkts[i%len(pkts)]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*ic.MissRate(), "icache-miss-%")
			b.ReportMetric(100*dc.MissRate(), "dcache-miss-%")
		})
	}
}
