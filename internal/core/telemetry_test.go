package core

import (
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vm"
)

// telemetryApp is a tiny self-contained program: reads the first packet
// word, returns its low byte as the verdict.
const telemetrySrc = `
	.text
	.global main
main:
	lw   t0, 0(a0)
	andi a0, t0, 0xFF
	ret
`

// faultyApp dereferences an unmapped address for packets whose first
// byte is odd, so runs can mix measured and quarantined packets
// deterministically.
const telemetryFaultySrc = `
	.text
	.global main
main:
	lbu  t0, 0(a0)
	andi t1, t0, 1
	beq  t1, zero, ok
	lui  t2, 0xDEAD0
	lw   t3, 0(t2)
ok:
	li   a0, 1
	ret
`

func telemetryPackets(n int) []*trace.Packet {
	pkts := make([]*trace.Packet, n)
	for i := range pkts {
		data := make([]byte, 40)
		data[0] = byte(i)
		pkts[i] = &trace.Packet{Data: data, WireLen: len(data)}
	}
	return pkts
}

func TestBenchTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	b, err := New(&App{Name: "tm", Source: telemetrySrc, Entry: "main"},
		Options{Metrics: reg, NoVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	pkts := telemetryPackets(10)
	records, err := b.RunPackets(pkts, nil)
	if err != nil {
		t.Fatal(err)
	}

	s := reg.Snapshot()
	if got := s.CounterTotal(telemetry.MetricPacketsProcessed); got != 10 {
		t.Errorf("packets_processed_total = %d, want 10", got)
	}
	var wantInstr, wantPktReads uint64
	for i := range records {
		wantInstr += records[i].Instructions
		wantPktReads += records[i].PacketReads
	}
	if got := s.CounterTotal(telemetry.MetricInstrsExecuted); got != wantInstr {
		t.Errorf("instrs_executed_total = %d, want %d", got, wantInstr)
	}
	key := telemetry.MetricMemRefs + `{op="read",region="packet"}`
	if got := s.Counters[key]; got != wantPktReads {
		t.Errorf("%s = %d, want %d (have %v)", key, got, wantPktReads, s.Counters)
	}
	lat, ok := s.Histograms[telemetry.MetricPacketLatency]
	if !ok || lat.Count != 10 {
		t.Errorf("packet_latency_ns count = %d, want 10", lat.Count)
	}
	if lat.Sum == 0 {
		t.Errorf("packet_latency_ns sum is zero")
	}
}

func TestBenchTelemetryFaultKinds(t *testing.T) {
	reg := telemetry.NewRegistry()
	b, err := New(&App{Name: "tmf", Source: telemetryFaultySrc, Entry: "main"},
		Options{Metrics: reg, NoVerify: true,
			Errors: ErrorPolicy{Policy: SkipAndRecord}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.RunPackets(telemetryPackets(10), nil); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.CounterTotal(telemetry.MetricPacketsProcessed); got != 5 {
		t.Errorf("processed = %d, want 5", got)
	}
	if got := s.CounterTotal(telemetry.MetricPacketsFaulted); got != 5 {
		t.Errorf("faulted = %d, want 5", got)
	}
	// The fault kind must be labeled.
	found := false
	for k, v := range s.Counters {
		if strings.HasPrefix(k, telemetry.MetricPacketsFaulted+"{") &&
			strings.Contains(k, vm.FaultUnmapped.String()) && v == 5 {
			found = true
		}
	}
	if !found {
		t.Errorf("no packets_faulted_total{kind=%q} = 5 series; have %v",
			vm.FaultUnmapped.String(), s.Counters)
	}
}

func TestPoolTelemetrySharedAcrossCores(t *testing.T) {
	reg := telemetry.NewRegistry()
	pool, err := NewPool(&App{Name: "tmp", Source: telemetrySrc, Entry: "main"},
		4, Options{Metrics: reg, NoVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	pkts := telemetryPackets(64)
	if _, err := pool.RunPackets(pkts, nil); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.CounterTotal(telemetry.MetricPacketsProcessed); got != 64 {
		t.Errorf("pooled packets_processed_total = %d, want 64", got)
	}
	if got := s.Gauges[telemetry.MetricPoolCores]; got != 4 {
		t.Errorf("pool_cores = %d, want 4", got)
	}
	if got := s.Gauges[telemetry.MetricPoolWorkersBusy]; got != 0 {
		t.Errorf("pool_workers_busy = %d after run, want 0", got)
	}
}

func TestTelemetryDisabledIsInert(t *testing.T) {
	b, err := New(&App{Name: "tm0", Source: telemetrySrc, Entry: "main"},
		Options{NoVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	if b.Metrics() != nil {
		t.Fatalf("Metrics() should be nil when disabled")
	}
	if _, err := b.RunPackets(telemetryPackets(3), nil); err != nil {
		t.Fatal(err)
	}
}
