package telemetry

// Canonical metric names of the PacketBench run engine. Everything that
// reads or writes run metrics — internal/core, the CLIs' progress
// renderers, the CI smoke test scraping /metrics — goes through these
// constants so a rename can never silently split a series.
const (
	// MetricPacketsProcessed counts successfully measured packets.
	MetricPacketsProcessed = "packets_processed_total"
	// MetricPacketsFaulted counts quarantined packets, labeled by
	// kind=<vm.FaultKind.String()>.
	MetricPacketsFaulted = "packets_faulted_total"
	// MetricInstrsExecuted counts simulated guest instructions of
	// measured packets.
	MetricInstrsExecuted = "instrs_executed_total"
	// MetricMemRefs counts guest data-memory references, labeled by
	// region=packet|nonpacket and op=read|write.
	MetricMemRefs = "mem_refs_total"
	// MetricPacketLatency is the host-side wall-clock histogram of one
	// packet's simulation, in nanoseconds.
	MetricPacketLatency = "packet_latency_ns"
	// MetricPoolWorkersBusy gauges how many pool cores are simulating
	// a packet right now.
	MetricPoolWorkersBusy = "pool_workers_busy"
	// MetricPoolCores gauges the pool size of the current run.
	MetricPoolCores = "pool_cores"
	// MetricPacketsShed counts packets dropped unprocessed by the
	// overload shed policy, labeled by policy=drop-newest|drop-oldest.
	MetricPacketsShed = "packets_shed_total"
	// MetricWatchdogStalls counts pool runs cancelled by the progress
	// watchdog after a worker exceeded the stall timeout.
	MetricWatchdogStalls = "watchdog_stalls_total"
	// MetricCheckpointsWritten counts run checkpoints committed to disk.
	MetricCheckpointsWritten = "checkpoints_written_total"
)
