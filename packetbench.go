// Package packetbench is the public API of the PacketBench reproduction:
// a programming and simulation environment for characterizing network
// processing workloads, after "Analysis of Network Processing Workloads"
// (Ramaswamy, Weng and Wolf, ISPASS 2005).
//
// PacketBench loads a packet processing application — written in PB32
// assembly, the instruction set of the simulated network-processor core —
// feeds it packets from real or synthetic traces, and collects workload
// statistics for the application code alone (the framework's own work is
// excluded, mirroring the paper's selective accounting). The statistics
// go beyond generic microarchitectural metrics: per-packet instruction
// counts, packet-memory versus non-packet-memory access splits, basic
// block execution probabilities and instruction-store coverage curves.
//
// # Quick start
//
//	pkts := packetbench.GenerateTrace("MRA", 1000)
//	tbl := packetbench.RouteTableFromTrace(pkts, 4096)
//	bench, err := packetbench.New(packetbench.NewIPv4Radix(tbl), packetbench.Options{})
//	if err != nil { ... }
//	records, err := bench.RunPackets(pkts, nil)
//	summary := packetbench.Summarize(records)
//	fmt.Printf("%.0f instructions/packet\n", summary.MeanInstructions)
//
// The four applications evaluated in the paper are provided (IPv4-radix,
// IPv4-trie, Flow Classification, TSA); new applications are ordinary
// App values whose Source is PB32 assembly — see examples/customapp.
package packetbench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/microarch"
	"repro/internal/npmodel"
	"repro/internal/packet"
	"repro/internal/qsim"
	"repro/internal/route"
	"repro/internal/staticcheck"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Core framework types.
type (
	// App is a PacketBench application: PB32 assembly source, an entry
	// symbol, and an optional host-side Init hook that builds tables in
	// simulated memory (the paper's uncounted init()).
	App = core.App
	// Bench is a loaded application on one simulated core.
	Bench = core.Bench
	// Options configures statistics collection and resource limits.
	Options = core.Options
	// Loader is passed to App.Init for placing application state.
	Loader = core.Loader
	// Result is a packet's verdict plus its workload record.
	Result = core.Result
	// PacketRecord is the per-packet workload profile. Its Blocks set
	// is gathered only while the bench's Collector().BlockSets is on.
	PacketRecord = stats.PacketRecord
	// Summary aggregates a run.
	Summary = stats.Summary
	// RunningStats aggregates packet records on the fly (streaming pool
	// runs feed one from their onResult callback); it also backs the
	// Checkpointer's serialized statistics.
	RunningStats = stats.Running
	// Packet is one captured packet (layer-3 bytes plus metadata).
	Packet = trace.Packet
	// RouteTable is a prefix table for the forwarding applications.
	RouteTable = route.Table
	// TraceProfile parameterizes synthetic trace generation.
	TraceProfile = gen.Profile
	// OccurrenceTable summarizes a per-packet metric distribution.
	OccurrenceTable = analysis.OccurrenceTable
	// CoveragePoint is one point of an instruction-store coverage curve.
	CoveragePoint = analysis.CoveragePoint
	// FiveTuple is the flow key used by classification.
	FiveTuple = packet.FiveTuple
	// FaultPolicy selects how a run reacts to per-packet faults.
	FaultPolicy = core.FaultPolicy
	// ErrorPolicy is the full fault-handling configuration (policy and
	// error budget), set via Options.Errors.
	ErrorPolicy = core.ErrorPolicy
	// FaultKind tags a quarantined packet's failure cause; use it with
	// errors.Is and Summary.FaultCounts.
	FaultKind = vm.FaultKind
	// FaultInjector deterministically corrupts trace packets and forces
	// VM faults at chosen packet indexes — the test harness behind the
	// fault policies.
	FaultInjector = faultinject.Injector
	// Injection is one planned fault in an injection plan.
	Injection = faultinject.Injection
	// Diagnostic is one static-verifier (or assembler lint) finding:
	// severity, check name, source line, and message.
	Diagnostic = staticcheck.Diagnostic
	// Severity classifies a Diagnostic.
	Severity = staticcheck.Severity
	// Diagnostics is an ordered list of findings; HasErrors reports
	// whether any would block loading.
	Diagnostics = staticcheck.List
	// VerifyError is the error New returns when the static verifier
	// refuses an application; its Diags field holds the full report.
	VerifyError = core.VerifyError
	// EngineKind selects the execution engine (Options.Engine): the
	// block-threaded engine (default) or the reference interpreter it is
	// differentially validated against. Both produce bit-identical
	// results.
	EngineKind = core.EngineKind
	// ShedPolicy selects how Pool.RunTrace reacts when its bounded
	// backlog is full (Options.Shed): block the producer (lossless) or
	// drop whole batches, newest- or oldest-first. Pool.RunPackets
	// always blocks.
	ShedPolicy = core.ShedPolicy
	// StallError is the typed run error surfaced when the progress
	// watchdog (Options.StallTimeout) cancels a run because a worker
	// made no progress; use errors.As to recover worker and packet.
	StallError = core.StallError
	// Checkpoint is the on-disk resume state of a streaming pool run.
	Checkpoint = core.Checkpoint
	// Checkpointer periodically persists a streaming run's committed
	// state; pass it to Pool.RunTraceCheckpointed.
	Checkpointer = core.Checkpointer
	// TraceID fingerprints a trace input so checkpoints refuse to resume
	// against the wrong capture.
	TraceID = core.TraceID
)

// The execution engines.
const (
	EngineThreaded    = core.EngineThreaded
	EngineInterpreter = core.EngineInterpreter
)

// The diagnostic severities.
const (
	SeverityInfo    = staticcheck.Info
	SeverityWarning = staticcheck.Warning
	SeverityError   = staticcheck.Error
)

// The fault policies: abort on the first fault (the default), or
// quarantine faulted packets under a budget.
const (
	FailFast      = core.FailFast
	SkipAndRecord = core.SkipAndRecord
)

// The overload shed policies for streaming pool runs.
const (
	ShedBlock      = core.ShedBlock
	ShedDropNewest = core.ShedDropNewest
	ShedDropOldest = core.ShedDropOldest
)

// The fault kinds a packet can be quarantined (or a run aborted) with;
// every run error wraps one, so errors.Is(err, packetbench.FaultStepLimit)
// and friends work across the API.
const (
	FaultBadFetch       = vm.FaultBadFetch
	FaultUnmapped       = vm.FaultUnmapped
	FaultUnaligned      = vm.FaultUnaligned
	FaultTextWrite      = vm.FaultTextWrite
	FaultStepLimit      = vm.FaultStepLimit
	FaultBadInstr       = vm.FaultBadInstr
	FaultOversizePacket = vm.FaultOversizePacket
	FaultHostPanic      = vm.FaultHostPanic
)

// New loads an application onto a fresh simulated core. The program is
// statically verified first (control flow, register dataflow, memory
// ranges, stack discipline — see Verify); error-severity findings refuse
// the load with a *VerifyError unless Options.NoVerify is set.
func New(app *App, opts Options) (*Bench, error) { return core.New(app, opts) }

// Verify runs the static verifier over an application without loading
// it, returning every finding (warnings included). The program is
// checked against the exact memory map New would run it under.
func Verify(app *App) (Diagnostics, error) {
	return core.Verify(app, core.Options{})
}

// ParseInjectionPlan parses a comma-separated fault injection spec
// ("kind@index[:arg]", kinds flip/trunc/clamp/vmfault plus the
// host-fault kinds panic/delay/stall/tearckpt) — the format of
// cmd/packetbench's -inject flag.
func ParseInjectionPlan(spec string) ([]Injection, error) { return faultinject.ParsePlan(spec) }

// ParseShedPolicy parses an overload shed policy name: "block",
// "drop-newest"/"newest", or "drop-oldest"/"oldest" — the format of
// cmd/packetbench's -shed flag.
func ParseShedPolicy(s string) (ShedPolicy, error) { return core.ParseShedPolicy(s) }

// NewCheckpointer writes resume checkpoints of a streaming pool run to
// path at most every `every` committed packets, snapshotting agg — the
// same Running the run's onResult callback must feed.
func NewCheckpointer(path string, every int, agg *stats.Running) *Checkpointer {
	return core.NewCheckpointer(path, every, agg)
}

// LoadCheckpoint reads and validates a checkpoint file written by a
// previous run.
func LoadCheckpoint(path string) (*Checkpoint, error) { return core.LoadCheckpoint(path) }

// FingerprintTraceFile fingerprints a trace file for
// Checkpointer.SetTraceID / Checkpoint.ValidateTrace.
func FingerprintTraceFile(path string) (TraceID, error) { return core.FingerprintFile(path) }

// NewFaultInjector builds a deterministic injector: every unspecified
// choice (byte offset, mask, step count) is drawn from seed at
// construction, so runs are reproducible regardless of scheduling.
// Attach it to each bench with Bench.SetInjector to arm its execution
// faults: each fires after exactly its instruction count, on either
// engine.
func NewFaultInjector(seed int64, plan []Injection) *FaultInjector {
	return faultinject.New(seed, plan)
}

// InjectTraceFaults applies the injector's packet-level corruption
// (flips, truncations, length clamps) to the trace, returning the
// corrupted packets; untouched packets are shared, corrupted ones are
// copies.
func InjectTraceFaults(inj *FaultInjector, pkts []*Packet) []*Packet {
	out, err := trace.ReadAll(inj.Reader(trace.NewSliceReader(pkts)), 0)
	if err != nil {
		// A slice reader cannot fail and the injector adds no errors.
		panic(err)
	}
	return out
}

// NewIPv4Radix returns the paper's IPv4-radix forwarding application
// (RFC 1812 forwarding over a BSD-style radix tree).
func NewIPv4Radix(tbl *RouteTable) *App { return apps.IPv4Radix(tbl) }

// NewIPv4Trie returns the paper's IPv4-trie forwarding application
// (RFC 1812 forwarding over an LC-trie).
func NewIPv4Trie(tbl *RouteTable) *App { return apps.IPv4Trie(tbl) }

// NewFlowClassification returns the paper's flow classification
// application with the given hash bucket count (0 selects the default).
func NewFlowClassification(buckets int) *App {
	if buckets == 0 {
		buckets = flow.DefaultBuckets
	}
	return apps.FlowClassification(buckets)
}

// NewTSA returns the paper's TSA prefix-preserving anonymization
// application.
func NewTSA(key uint64) *App { return apps.TSAApp(key) }

// Summarize aggregates per-packet records into run-level averages.
func Summarize(records []PacketRecord) Summary { return stats.Summarize(records) }

// InstructionOccurrences builds the paper's Table V style distribution of
// per-packet instruction counts, keeping the topK most frequent values.
func InstructionOccurrences(records []PacketRecord, topK int) OccurrenceTable {
	return analysis.Occurrences(stats.InstructionCounts(records), topK)
}

// CoverageCurve computes the paper's Figure 8 curve for a finished bench:
// the fraction of packets fully processable with the k most frequently
// executed basic blocks, for every k. It reads the records' block sets,
// which the bench gathers only while Collector().BlockSets is on.
func CoverageCurve(b *Bench, records []PacketRecord) []CoveragePoint {
	return analysis.CoverageCurve(stats.BlockSets(records), b.BlockMap().NumBlocks())
}

// TraceProfiles returns the built-in trace profiles (MRA, COS, ODU, LAN),
// the synthetic stand-ins for the paper's Table I traces.
func TraceProfiles() []TraceProfile { return gen.Profiles() }

// GenerateTrace produces n deterministic synthetic packets from a named
// built-in profile. It panics on an unknown name; use gen.ProfileByName
// via TraceProfiles for error handling.
func GenerateTrace(profile string, n int) []*Packet {
	p, err := gen.ProfileByName(profile)
	if err != nil {
		panic(err)
	}
	return gen.Generate(p, n)
}

// GenerateRouteTable builds a deterministic synthetic routing table with
// a backbone-like prefix length distribution.
func GenerateRouteTable(prefixes int, seed int64) *RouteTable {
	return route.GenerateTable(route.GenOptions{Prefixes: prefixes, Seed: seed})
}

// RouteTableFromTrace derives a routing table covering the destinations
// of the given packets, so forwarding lookups find deep matches (the
// paper's uniform-coverage setup).
func RouteTableFromTrace(pkts []*Packet, maxPrefixes int) *RouteTable {
	tt := route.NewTrafficTable(maxPrefixes, 16, 1)
	for _, p := range pkts {
		if h, err := packet.ParseIPv4(p.Data); err == nil && tt.Add(h.Dst) {
			break
		}
	}
	return tt.Table()
}

// formatForPath picks a trace format from a file extension.
func formatForPath(path string) (trace.Format, error) {
	switch strings.ToLower(filepath.Ext(path)) {
	case ".pcap", ".cap", ".dump":
		return trace.FormatPcap, nil
	case ".tsh":
		return trace.FormatTSH, nil
	}
	return 0, fmt.Errorf("packetbench: cannot infer trace format from %q (use .pcap or .tsh)", path)
}

// ReadTraceFile loads up to limit packets (limit <= 0 means all) from a
// pcap (.pcap/.cap/.dump) or NLANR TSH (.tsh) file.
func ReadTraceFile(path string, limit int) ([]*Packet, error) {
	format, err := formatForPath(path)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := trace.NewReader(f, format)
	if err != nil {
		return nil, err
	}
	return trace.ReadAll(r, limit)
}

// WriteTraceFile writes packets to a pcap or TSH file, inferring the
// format from the extension.
func WriteTraceFile(path string, pkts []*Packet) error {
	format, err := formatForPath(path)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w, err := trace.NewWriter(f, format)
	if err != nil {
		f.Close()
		return err
	}
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// Microarchitectural profiling and system modeling -----------------------

// MicroarchProfiler computes instruction mix, branch prediction, cache
// and cycle statistics for a run; attach with Bench.AddTracer.
type MicroarchProfiler = microarch.Profiler

// Workload is a per-packet processing profile for the system model.
type Workload = npmodel.Workload

// Hardware parameterizes the network-processor system model.
type Hardware = npmodel.Hardware

// NewMicroarchProfiler builds a profiler with two-way 16B-line caches of
// the given capacities (either may be 0 to omit that cache).
func NewMicroarchProfiler(icacheBytes, dcacheBytes int) (*MicroarchProfiler, error) {
	var ic, dc *microarch.Cache
	var err error
	if icacheBytes > 0 {
		if ic, err = microarch.NewCache(icacheBytes, 16, 2); err != nil {
			return nil, err
		}
	}
	if dcacheBytes > 0 {
		if dc, err = microarch.NewCache(dcacheBytes, 16, 2); err != nil {
			return nil, err
		}
	}
	return microarch.NewProfiler(ic, dc), nil
}

// DefaultHardware returns the IXP2400-flavored system model operating
// point.
func DefaultHardware() Hardware { return npmodel.DefaultHardware }

// CompareTopologies renders a parallel-vs-pipeline throughput comparison
// for a measured workload (the paper's "allocation of processing tasks"
// and "developing novel NP architectures" use cases).
func CompareTopologies(name string, w Workload, h Hardware, meanPacketBytes float64) (string, error) {
	return npmodel.CompareTopologies(name, w, h, meanPacketBytes)
}

// Pool runs one application on several independent simulated cores via a
// batched work-queue scheduler with first-error cancellation; RunTrace
// streams traces too large to hold in memory, and RunPackets runs the
// same scheduler over a preloaded slice. See core.Pool.
type Pool = core.Pool

// NewPool builds a pool of n simulated cores running app.
func NewPool(app *App, n int, opts Options) (*Pool, error) {
	return core.NewPool(app, n, opts)
}

// Queueing-delay simulation ----------------------------------------------

// QueueJob is one packet's arrival time and service demand for the
// delay simulator.
type QueueJob = qsim.Job

// QueueConfig parameterizes the simulated port (engines, queue bound).
type QueueConfig = qsim.Config

// QueueResult summarizes a delay simulation.
type QueueResult = qsim.Result

// RunQueue simulates FCFS service of measured per-packet jobs through a
// multi-engine port, returning delay percentiles, utilization and loss —
// the paper's processing-delay use case.
func RunQueue(jobs []QueueJob, cfg QueueConfig) (*QueueResult, error) {
	return qsim.Run(jobs, cfg)
}

// QueueJobs builds the job list for RunQueue from trace timestamps and
// per-packet cycle counts at the given engine clock.
func QueueJobs(secs, usecs []uint32, cycles []uint64, clockHz float64) ([]QueueJob, error) {
	return qsim.JobsFromMeasurements(secs, usecs, cycles, clockHz)
}

// NewPayloadScan returns the payload-processing extension application:
// scan every payload for a 4-byte signature (verdict = match count).
func NewPayloadScan(sig [4]byte) *App { return apps.PayloadScan(sig) }

// NewFrag returns the fragmentation application (CommBench's FRAG
// kernel): packets above mtu are split into RFC 791 fragments (verdict
// = fragment count; 0 = dropped for don't-fragment).
func NewFrag(mtu int) *App { return apps.Frag(mtu) }
