//go:build !race

package packetbench

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ptrace"
)

// TestTracingGuardrail pins the packet-journey tracer's cost on the
// per-packet hot path (TSA over BenchmarkProcessPacketSmall's packets).
// With the statistics collector detached, the hot path must not
// allocate, disarmed or armed. With the collector attached — the path
// every CLI run takes — a pass makes at most maxAttachedAllocs
// allocations, disarmed or armed: none, since records gather no
// block sets by default and the armed lane copies a packet's blocks
// into a scratch slice the bench keeps. Arming the tracer must add no
// allocations and at most 3x the time per packet, measured against a
// disarmed run in the same process, so the gate needs no baseline from
// another host.
// The race detector's instrumentation allocates, hence the build tag.
func TestTracingGuardrail(t *testing.T) {
	pkts := smallPackets()
	newBench := func(collector, armed bool) *core.Bench {
		t.Helper()
		opts := core.Options{Engine: core.EngineThreaded}
		if armed {
			opts.Trace = ptrace.New(ptrace.Config{Lanes: 1, SampleEvery: 64})
		}
		b, err := core.New(NewTSA(7), opts)
		if err != nil {
			t.Fatal(err)
		}
		b.SetTracing(collector)
		return b
	}
	pass := func(b *core.Bench) {
		for _, p := range pkts {
			if _, err := b.ProcessPacket(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	// allocsPerPass counts allocations over whole passes of the packet
	// set, so no per-packet average can round a stray one away.
	allocsPerPass := func(b *core.Bench) float64 {
		return testing.AllocsPerRun(10, func() { pass(b) })
	}

	for _, armed := range []bool{false, true} {
		if a := allocsPerPass(newBench(false, armed)); a != 0 {
			t.Errorf("collector detached, ptrace armed=%v: %v allocs per %d packets, want 0", armed, a, len(pkts))
		}
	}

	const maxAttachedAllocs = 0
	off, on := newBench(true, false), newBench(true, true)
	offAllocs, onAllocs := allocsPerPass(off), allocsPerPass(on)
	if offAllocs > maxAttachedAllocs || onAllocs > maxAttachedAllocs {
		t.Errorf("collector attached: %v (disarmed) and %v (armed) allocs per %d packets, want at most %d",
			offAllocs, onAllocs, len(pkts), maxAttachedAllocs)
	}
	if onAllocs != offAllocs {
		t.Errorf("collector attached: armed tracer makes %v allocs per %d packets, disarmed %v", onAllocs, len(pkts), offAllocs)
	}
	// Time alternating passes and keep each side's fastest, which is
	// the least disturbed by other load on the host.
	timePass := func(b *core.Bench) time.Duration {
		start := time.Now()
		pass(b)
		return time.Since(start)
	}
	offBest, onBest := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < 7; i++ {
		offBest = min(offBest, timePass(off))
		onBest = min(onBest, timePass(on))
	}
	offNS := float64(offBest.Nanoseconds()) / float64(len(pkts))
	onNS := float64(onBest.Nanoseconds()) / float64(len(pkts))
	if onNS > 3*offNS {
		t.Errorf("collector attached: armed tracer %.0f ns/pkt vs disarmed %.0f ns/pkt (> 3x)", onNS, offNS)
	}
	t.Logf("collector attached: disarmed %.0f ns/pkt, armed %.0f ns/pkt, %v allocs per %d packets", offNS, onNS, offAllocs, len(pkts))
}
