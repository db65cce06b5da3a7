package core

import (
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// runMetrics is a Bench's pre-resolved telemetry handles. Resolving
// every series once at load time keeps the per-packet cost to plain
// atomic adds — no map lookups, no label rendering, no allocation on
// the hot path. A nil *runMetrics (telemetry disabled) costs one nil
// check per packet.
type runMetrics struct {
	packets *telemetry.Counter
	instrs  *telemetry.Counter

	pktReads, pktWrites       *telemetry.Counter
	nonPktReads, nonPktWrites *telemetry.Counter

	latency *telemetry.Histogram

	// faulted is indexed by vm.FaultKind (masked); unknown kinds hit a
	// nil (no-op) slot.
	faulted [16]*telemetry.Counter
}

// newRunMetrics resolves the run-engine series in reg, or returns nil
// when telemetry is disabled.
func newRunMetrics(reg *telemetry.Registry) *runMetrics {
	if reg == nil {
		return nil
	}
	m := &runMetrics{
		packets:      reg.Counter(telemetry.MetricPacketsProcessed, "Packets measured to completion."),
		instrs:       reg.Counter(telemetry.MetricInstrsExecuted, "Simulated guest instructions of measured packets."),
		pktReads:     reg.Counter(telemetry.MetricMemRefs, "Guest data-memory references by region and op.", telemetry.L("region", "packet"), telemetry.L("op", "read")),
		pktWrites:    reg.Counter(telemetry.MetricMemRefs, "", telemetry.L("region", "packet"), telemetry.L("op", "write")),
		nonPktReads:  reg.Counter(telemetry.MetricMemRefs, "", telemetry.L("region", "nonpacket"), telemetry.L("op", "read")),
		nonPktWrites: reg.Counter(telemetry.MetricMemRefs, "", telemetry.L("region", "nonpacket"), telemetry.L("op", "write")),
		latency:      reg.Histogram(telemetry.MetricPacketLatency, "Host wall-clock per simulated packet, nanoseconds.", telemetry.LatencyBuckets()),
	}
	for k := vm.FaultNone + 1; k <= vm.FaultHostPanic; k++ {
		m.faulted[k&15] = reg.Counter(telemetry.MetricPacketsFaulted,
			"Packets quarantined by the error policy, by fault kind.",
			telemetry.L("kind", k.String()))
	}
	return m
}

// measured folds one completed packet record into the counters.
func (m *runMetrics) measured(rec *stats.PacketRecord) {
	m.packets.Inc()
	m.instrs.Add(rec.Instructions)
	m.pktReads.Add(rec.PacketReads)
	m.pktWrites.Add(rec.PacketWrites)
	m.nonPktReads.Add(rec.NonPacketReads)
	m.nonPktWrites.Add(rec.NonPacketWrites)
}

// fault counts one quarantined packet of the given kind.
func (m *runMetrics) fault(kind vm.FaultKind) {
	if m == nil {
		return
	}
	m.faulted[kind&15].Inc()
}
