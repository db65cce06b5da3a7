// Faults: run an application over a corrupted trace under each fault
// policy. Real captures arrive damaged — truncated bodies, flipped
// header bytes, records whose lengths lie — and a workload
// characterization tool that aborts on the first bad packet cannot
// profile them at all.
//
// The example corrupts a synthetic backbone trace with the deterministic
// fault injector — a flipped header byte and a truncation, which the
// forwarding application digests silently (it just routes differently),
// plus a forced VM fault mid-execution standing in for corruption the
// application cannot digest. It then shows the two policies: FailFast
// aborts on the first fault, and SkipAndRecord quarantines the faulted
// packet and reports per-fault-kind counts while every untouched
// packet's record stays byte-identical to a clean run.
package main

import (
	"errors"
	"fmt"
	"log"

	packetbench "repro"
)

func main() {
	pkts := packetbench.GenerateTrace("MRA", 500)
	table := packetbench.RouteTableFromTrace(pkts, 4096)
	app := packetbench.NewIPv4Radix(table)

	// Corrupt the trace deterministically: flip a seed-chosen byte of
	// packet 17, truncate packet 100 to 20 bytes, and force an illegal
	// instruction 6 steps into packet 250's execution. Same seed, same
	// corruption — a failure seen once is reproducible forever. The flip
	// and the truncation still parse as IPv4 (they merely perturb the
	// lookup), so only the forced fault quarantines a packet here.
	plan, err := packetbench.ParseInjectionPlan("flip@17,trunc@100:20,vmfault@250:6")
	if err != nil {
		log.Fatal(err)
	}
	inj := packetbench.NewFaultInjector(42, plan)
	corrupted := packetbench.InjectTraceFaults(inj, pkts)

	// FailFast (the default): the forced fault kills the run.
	bench, err := packetbench.New(app, packetbench.Options{})
	if err != nil {
		log.Fatal(err)
	}
	bench.SetInjector(inj)
	_, err = bench.RunPackets(corrupted, nil)
	fmt.Printf("fail-fast:       %v\n", err)

	// SkipAndRecord: quarantine the damaged packets (up to the error
	// budget) and keep profiling the rest.
	bench, err = packetbench.New(app, packetbench.Options{
		Errors: packetbench.ErrorPolicy{Policy: packetbench.SkipAndRecord, ErrorBudget: 10},
	})
	if err != nil {
		log.Fatal(err)
	}
	bench.SetInjector(inj)
	records, err := bench.RunPackets(corrupted, nil)
	if err != nil {
		log.Fatal(err)
	}
	s := packetbench.Summarize(records)
	fmt.Printf("skip-and-record: %d packets, %d measured, %d quarantined\n",
		s.Packets, s.Measured(), s.Faulted)
	for kind, n := range s.FaultCounts {
		fmt.Printf("                 %d × %v\n", n, kind)
	}
	fmt.Printf("                 %.1f instructions/packet over the measured packets\n",
		s.MeanInstructions)

	// The quarantined records keep their index slots, so per-packet
	// results still line up with the trace.
	for _, r := range records {
		if r.Faulted() {
			fmt.Printf("                 packet %4d quarantined: %v\n", r.Index, r.Fault)
		}
	}

	// Clean reference: the measured mean above excludes the quarantined
	// packet but still includes the two corrupted-yet-processable ones,
	// so it sits within a fraction of a percent of the pristine trace.
	cleanBench, err := packetbench.New(app, packetbench.Options{})
	if err != nil {
		log.Fatal(err)
	}
	cleanRecords, err := cleanBench.RunPackets(pkts, nil)
	if err != nil {
		log.Fatal(err)
	}
	clean := packetbench.Summarize(cleanRecords)
	fmt.Printf("clean reference: %.1f instructions/packet\n", clean.MeanInstructions)

	// Fault errors stay inspectable: budget exhaustion wraps the last
	// underlying fault kind.
	bench, err = packetbench.New(app, packetbench.Options{
		Errors: packetbench.ErrorPolicy{Policy: packetbench.SkipAndRecord, ErrorBudget: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	inj = packetbench.NewFaultInjector(42, mustPlan("vmfault@3,vmfault@5"))
	bench.SetInjector(inj)
	if _, err := bench.RunPackets(pkts, nil); err != nil {
		fmt.Printf("budget of 1:     %v (illegal instruction: %v)\n",
			err, errors.Is(err, packetbench.FaultBadInstr))
	}
}

func mustPlan(spec string) []packetbench.Injection {
	plan, err := packetbench.ParseInjectionPlan(spec)
	if err != nil {
		panic(err)
	}
	return plan
}
