// Coverage: size a network processor's on-chip instruction store, the
// design question behind the paper's Figure 8 ("the size of the on-chip
// instruction store ... has to be big enough to accommodate enough
// instructions to achieve sufficient packet coverage").
//
// The example profiles IPv4-radix over a backbone trace, ranks its basic
// blocks by execution probability, and reports how many blocks (and how
// many instruction bytes) the fast path needs for 90/95/99/100% packet
// coverage — the rarely executed remainder is exactly the slow-path code
// the paper suggests delegating to the control processor.
package main

import (
	"fmt"
	"log"

	packetbench "repro"
)

func main() {
	pkts := packetbench.GenerateTrace("MRA", 3000)
	table := packetbench.RouteTableFromTrace(pkts, 8192)

	bench, err := packetbench.New(packetbench.NewIPv4Radix(table), packetbench.Options{})
	if err != nil {
		log.Fatal(err)
	}
	bench.Collector().BlockSets = true // the curve reads each record's block set
	records, err := bench.RunPackets(pkts, nil)
	if err != nil {
		log.Fatal(err)
	}

	curve := packetbench.CoverageCurve(bench, records)
	blocks := bench.BlockMap()
	fmt.Printf("IPv4-radix: %d basic blocks, %d instructions total\n",
		blocks.NumBlocks(), blocks.NumInstructions())

	// Translate "top-k blocks" into instruction-store bytes by summing
	// the sizes of the k cheapest-to-retain blocks along the curve.
	fmt.Printf("%10s %8s %14s\n", "coverage", "blocks", "store bytes")
	for _, target := range []float64{0.90, 0.95, 0.99, 1.0} {
		k := minBlocksFor(curve, target)
		fmt.Printf("%9.0f%% %8d %14d\n", target*100, k, storeBytes(bench, records, k))
	}

	full := blocks.NumInstructions() * 4
	k90 := minBlocksFor(curve, 0.90)
	fmt.Printf("\nretaining %d of %d blocks covers 90%% of packets; the remaining\n",
		k90, blocks.NumBlocks())
	fmt.Printf("blocks (%d instruction bytes of slow path) can live on the control processor\n",
		full-storeBytes(bench, records, k90))
}

func minBlocksFor(curve []packetbench.CoveragePoint, target float64) int {
	for _, p := range curve {
		if p.Coverage >= target {
			return p.Blocks
		}
	}
	if len(curve) == 0 {
		return 0
	}
	return curve[len(curve)-1].Blocks
}

// storeBytes sums the instruction bytes of the k most frequently
// executed blocks.
func storeBytes(bench *packetbench.Bench, records []packetbench.PacketRecord, k int) int {
	blocks := bench.BlockMap()
	counts := make([]int, blocks.NumBlocks())
	for i := range records {
		for _, b := range records[i].Blocks {
			counts[b]++
		}
	}
	// Selection by repeated max keeps this dependency-free; block counts
	// are tiny.
	picked := make([]bool, len(counts))
	bytes := 0
	for n := 0; n < k && n < len(counts); n++ {
		best, bestCount := -1, -1
		for b, c := range counts {
			if !picked[b] && c > bestCount {
				best, bestCount = b, c
			}
		}
		picked[best] = true
		bytes += blocks.Size(best) * 4
	}
	return bytes
}
