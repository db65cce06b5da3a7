// Package stats implements PacketBench's selective-accounting statistics
// engine: it turns what the simulator observed while application code
// ran into the per-packet workload records the paper's evaluation is
// built from.
//
// Because accounting is attached only while application code runs (the
// framework itself executes natively, outside the simulator), every
// number collected here reflects application processing alone — the
// paper's "statistics as if the application had run by itself on the
// processor".
//
// The collector has three cost tiers:
//
//   - summary counting (always on): per-packet instruction counts, unique
//     instruction counts, region-split memory access counts and, with
//     Coverage, whole-run memory coverage (Table IV), which both engines
//     keep inline in the collector's vm.Account with no tracer;
//   - executed-block sets (BlockSets) for Figures 7 and 8, gathered from
//     the same account into each packet's record while the flag is on,
//     and not built at all while it is off;
//   - optional detail traces (Detail) for the individual-packet figures
//     (6, 9) and per-instruction counts (CountPCs), for which the
//     collector is a vm.Tracer: both engines report executed passes
//     (whole block passes on the threaded engine, one-instruction passes
//     on the interpreter) plus every data access, and the collector
//     derives the same traces and PCCounts from either.
package stats

import (
	"maps"

	"repro/internal/analysis"
	"repro/internal/isa"
	"repro/internal/vm"
)

// PacketRecord is the workload profile of one packet.
type PacketRecord struct {
	// Index is the packet's ordinal within the run.
	Index int
	// Instructions is the number of instructions executed.
	Instructions uint64
	// Unique is the number of distinct instruction addresses executed.
	Unique int
	// Region-split data memory access counts. Stack accesses count as
	// non-packet accesses: they are application state, like table data.
	PacketReads, PacketWrites       uint64
	NonPacketReads, NonPacketWrites uint64
	// Blocks is the sorted set of basic blocks executed, gathered only
	// while the collector's BlockSets is on; nil otherwise.
	Blocks []int
	// Fault marks a quarantined packet: processing failed with this kind
	// under a skip policy. A faulted record keeps its Index slot so the
	// run's packet numbering is stable, but carries no workload counts
	// and is excluded from aggregate means.
	Fault vm.FaultKind
}

// Faulted reports whether the record is a quarantine marker rather than a
// measured packet.
func (r *PacketRecord) Faulted() bool { return r.Fault != vm.FaultNone }

// PacketAccesses returns total packet-memory accesses.
func (r *PacketRecord) PacketAccesses() uint64 { return r.PacketReads + r.PacketWrites }

// NonPacketAccesses returns total non-packet data memory accesses.
func (r *PacketRecord) NonPacketAccesses() uint64 { return r.NonPacketReads + r.NonPacketWrites }

// MemEvent is one data memory access in a detail trace.
type MemEvent struct {
	// InstrNum is the 0-based index of the access's instruction within
	// the packet's execution.
	InstrNum uint64
	Addr     uint32
	Size     uint8
	Write    bool
	Region   vm.Region
}

// Collector accumulates workload statistics from its Account, which the
// CPU must carry as CPU.Account. It is the CPU's vm.Tracer only while
// Detail or CountPCs is on.
type Collector struct {
	// Detail enables per-packet instruction and memory event traces
	// (InstrTrace, MemTrace, BlockSeq), reset at BeginPacket.
	Detail bool
	// Coverage enables whole-run unique-address tracking (Table IV).
	Coverage bool
	// CountPCs enables per-instruction execution counters (PCCounts),
	// the input for gprof-style annotated listings.
	CountPCs bool
	// BlockSets enables each record's executed-block set
	// (PacketRecord.Blocks), the input of Figures 7 and 8. It is read as
	// each packet ends, so it may change between packets.
	BlockSets bool

	blocks   *analysis.BlockMap
	textBase uint32
	acct     *vm.Account

	// slab is the chunk the executed-block sets of records are carved
	// from; records share it through capped sub-slices.
	slab []int

	packets int

	// memFixed is the number of MemTrace events whose InstrNum is final;
	// the rest wait for their pass (see Mem).
	memFixed int

	// Detail traces for the current packet.
	InstrTrace []uint32
	MemTrace   []MemEvent
	// BlockSeq is the dynamic block entry sequence of the current packet.
	BlockSeq []int

	// PCCounts[i] is how many times instruction i executed across the
	// whole run (enabled by CountPCs).
	PCCounts []uint64
}

// NewCollector creates a collector for a program's text segment. The
// layout supplies the region bounds the coverage sets are keyed off; it
// must be the layout the CPU classifies accesses with.
func NewCollector(text []isa.Instruction, textBase uint32, blocks *analysis.BlockMap, layout vm.Layout) *Collector {
	return &Collector{
		blocks:   blocks,
		textBase: textBase,
		acct:     vm.NewAccount(blocks, layout),
		// PCCounts is eagerly allocated (one counter per text
		// instruction is a few KiB at most) so the per-instruction hot
		// path never has to test for a nil slice.
		PCCounts: make([]uint64, len(text)),
	}
}

// Blocks returns the block map the collector was built with.
func (c *Collector) Blocks() *analysis.BlockMap { return c.blocks }

// Account returns the account the records are read from; packets run
// without it on the CPU get records holding only their Index.
func (c *Collector) Account() *vm.Account { return c.acct }

// Packets returns the number of completed packets.
func (c *Collector) Packets() int { return c.packets }

// BeginPacket starts accounting for the next packet.
func (c *Collector) BeginPacket() {
	c.acct.Begin(c.Coverage)
	if c.Detail {
		c.InstrTrace = c.InstrTrace[:0]
		c.MemTrace = c.MemTrace[:0]
		c.BlockSeq = c.BlockSeq[:0]
		c.memFixed = 0
	}
}

// blockSlabChunk is the largest slab chunk, in block ids: enough for a
// few hundred packets' block sets per allocation.
const blockSlabChunk = 8192

// EndPacket finalizes the current packet and returns its record.
func (c *Collector) EndPacket() PacketRecord {
	a := c.acct
	rec := PacketRecord{
		Index:           c.packets,
		Instructions:    a.Instructions,
		Unique:          a.Unique,
		PacketReads:     a.Accesses[vm.RegionPacket][0],
		PacketWrites:    a.Accesses[vm.RegionPacket][1],
		NonPacketReads:  a.Accesses[vm.RegionData][0] + a.Accesses[vm.RegionStack][0],
		NonPacketWrites: a.Accesses[vm.RegionData][1] + a.Accesses[vm.RegionStack][1],
	}
	c.packets++
	if c.BlockSets {
		// Gather the executed block set (ascending ids, hence sorted)
		// into the slab. A chunk with room for every block never
		// reallocates mid-set, and the capped sub-slice keeps a
		// caller's append from overwriting the next record's set. The
		// first chunk holds one such set and each next one doubles, up
		// to blockSlabChunk ids, so a collector that gathers few sets
		// allocates little.
		if n := c.blocks.NumBlocks(); cap(c.slab)-len(c.slab) < n {
			c.slab = make([]int, 0, max(n, min(2*cap(c.slab), blockSlabChunk)))
		}
		start := len(c.slab)
		c.slab = a.AppendBlocks(c.slab)
		if end := len(c.slab); end > start {
			rec.Blocks = c.slab[start:end:end]
		}
	}
	return rec
}

// AbortPacket finalizes the current packet as quarantined: the returned
// record occupies the packet's Index slot but holds only the fault kind —
// partial counts from the failed execution are discarded, since they
// describe an execution that never completed. Any partial detail traces
// are reset by the next BeginPacket as usual.
func (c *Collector) AbortPacket(kind vm.FaultKind) PacketRecord {
	rec := PacketRecord{Index: c.packets, Fault: kind}
	c.packets++
	return rec
}

// Pass implements vm.Tracer: it counts each instruction of the pass
// under CountPCs and traces it under Detail.
//
// pblint:hotpath — runs once per block pass of every packet it observes.
func (c *Collector) Pass(first, last int) {
	if c.CountPCs {
		for i := first; i <= last; i++ {
			c.PCCounts[i]++
		}
	}
	if c.Detail {
		// The pass's Mem events came first and were numbered as if the
		// pass started at text index 0 (see Mem).
		for i := c.memFixed; i < len(c.MemTrace); i++ {
			c.MemTrace[i].InstrNum -= uint64(first)
		}
		c.memFixed = len(c.MemTrace)
		for i := first; i <= last; i++ {
			c.InstrTrace = append(c.InstrTrace, c.textBase+uint32(i)*isa.WordSize) //pblint:allow — Detail runs keep a per-packet trace
		}
		// Only first can be a leader inside one pass: a block is entered
		// whenever its leader executes, so self-loops count as re-entries.
		if b := c.blocks.BlockOfIndex(first); c.blocks.LeaderIndex(b) == first {
			c.BlockSeq = append(c.BlockSeq, b) //pblint:allow — Detail runs keep a per-packet trace
		}
	}
}

// Mem implements vm.Tracer: it traces the access under Detail.
//
// pblint:hotpath — runs once per data access of every packet it observes.
func (c *Collector) Mem(pc, addr uint32, size uint8, write bool, region vm.Region) {
	if c.Detail {
		// The access's pass is not traced yet: number it by its text
		// index past the pass start, and Pass subtracts the pass's first
		// index.
		c.MemTrace = append(c.MemTrace, MemEvent{ //pblint:allow — Detail runs keep a per-packet trace
			InstrNum: uint64(len(c.InstrTrace)) + uint64(pc-c.textBase)/isa.WordSize,
			Addr:     addr, Size: size, Write: write, Region: region,
		})
	}
}

// InstrMemSize returns the touched instruction-memory footprint in bytes
// (Table IV). Requires Coverage.
func (c *Collector) InstrMemSize() int { return c.acct.Touched(vm.RegionText) * isa.WordSize }

// DataMemSize returns the touched data-memory footprint in bytes at
// word granularity, counting non-packet data only (routing tables, flow
// state, stack), which is the application-owned memory Table IV
// reports. Requires Coverage.
func (c *Collector) DataMemSize() int {
	return (c.acct.Touched(vm.RegionData) + c.acct.Touched(vm.RegionStack)) * isa.WordSize
}

// PacketMemSize returns the touched packet-buffer footprint in bytes at
// word granularity. Requires Coverage.
func (c *Collector) PacketMemSize() int { return c.acct.Touched(vm.RegionPacket) * isa.WordSize }

// Summary aggregates a run's records. Quarantined (faulted) records are
// counted in Packets and broken out per fault kind, but contribute
// nothing to the means and totals — those describe measured packets only,
// so a run that skips a few corrupt packets reports the same per-packet
// workload figures as a clean run over the surviving packets.
type Summary struct {
	Packets           int // all records, including faulted
	Faulted           int // quarantined records
	MeanInstructions  float64
	MeanUnique        float64
	MeanPacketAcc     float64
	MeanNonPacketAcc  float64
	TotalInstructions uint64
	// FaultCounts maps fault kind to quarantined-record count; nil when
	// the run had no faults.
	FaultCounts map[vm.FaultKind]int
	// Shed counts packets dropped unprocessed by an overload shed policy.
	// Shed packets keep their index slots in the streaming contract but
	// were never attempted, so — unlike quarantined records — they are not
	// counted in Packets and contribute to no other figure.
	Shed int
}

// Measured returns the number of non-quarantined records the means are
// computed over.
func (s *Summary) Measured() int { return s.Packets - s.Faulted }

// Summarize computes run-level averages from a record slice.
func Summarize(records []PacketRecord) Summary {
	var a Running
	for i := range records {
		a.Add(&records[i])
	}
	return a.Summary()
}

// Running incrementally aggregates packet records into the same
// run-level figures Summarize computes, for streaming runs (Pool.RunTrace)
// that never materialize a full []PacketRecord. Add is not safe for
// concurrent use; streaming schedulers deliver records to it from a
// single aggregation goroutine.
type Running struct {
	// KeepInstructionCounts also retains each packet's instruction count
	// in order (8 bytes per packet), for callers that need the sequence.
	// Occurrence tables need only InstructionHistogram, which is always
	// kept and grows with the distinct counts, not the packets.
	KeepInstructionCounts bool

	packets           int
	totalInstructions uint64
	unique            uint64
	pktAcc            uint64
	nonPktAcc         uint64
	counts            []uint64
	hist              map[uint64]int
	faultCounts       map[vm.FaultKind]int
	verdicts          map[uint32]int
	faulted           int
	shed              int
}

// RunningState is the portable snapshot of a Running aggregate — the
// piece of per-run state a checkpoint serializes. Fields mirror
// Running's accumulators; FaultCounts integer keys marshal as JSON
// string keys per encoding/json's integer-keyed-map rule.
type RunningState struct {
	Packets           int                  `json:"packets"`
	Faulted           int                  `json:"faulted"`
	Shed              int                  `json:"shed,omitempty"`
	TotalInstructions uint64               `json:"total_instructions"`
	Unique            uint64               `json:"unique"`
	PacketAcc         uint64               `json:"packet_acc"`
	NonPacketAcc      uint64               `json:"non_packet_acc"`
	FaultCounts       map[vm.FaultKind]int `json:"fault_counts,omitempty"`
	Verdicts          map[uint32]int       `json:"verdicts,omitempty"`
	Counts            []uint64             `json:"counts,omitempty"`
	Histogram         map[uint64]int       `json:"histogram,omitempty"`
}

// State snapshots the aggregate for a checkpoint. The snapshot owns its
// memory (maps and slices are copied), so it stays stable across further
// Adds. Call from the goroutine that Adds.
func (a *Running) State() RunningState {
	st := RunningState{
		Packets:           a.packets,
		Faulted:           a.faulted,
		Shed:              a.shed,
		TotalInstructions: a.totalInstructions,
		Unique:            a.unique,
		PacketAcc:         a.pktAcc,
		NonPacketAcc:      a.nonPktAcc,
		FaultCounts:       a.FaultCounts(),
		Verdicts:          a.Verdicts(),
		Histogram:         maps.Clone(a.hist),
	}
	if a.KeepInstructionCounts && len(a.counts) > 0 {
		st.Counts = append([]uint64(nil), a.counts...)
	}
	return st
}

// SetState replaces the aggregate's contents with a snapshot — the
// resume half of checkpointing. After SetState, further Adds continue
// the restored run exactly where the snapshot left it.
func (a *Running) SetState(st RunningState) {
	a.packets = st.Packets
	a.faulted = st.Faulted
	a.shed = st.Shed
	a.totalInstructions = st.TotalInstructions
	a.unique = st.Unique
	a.pktAcc = st.PacketAcc
	a.nonPktAcc = st.NonPacketAcc
	a.faultCounts = maps.Clone(st.FaultCounts)
	a.verdicts = maps.Clone(st.Verdicts)
	a.hist = maps.Clone(st.Histogram)
	a.counts = nil
	if len(st.Counts) > 0 {
		a.counts = append([]uint64(nil), st.Counts...)
	}
}

// AddVerdict tallies one measured packet's application verdict. Kept in
// the aggregate (rather than by the caller) so verdict counts survive a
// checkpoint/resume cycle like every other run figure.
func (a *Running) AddVerdict(v uint32) {
	if a.verdicts == nil {
		a.verdicts = make(map[uint32]int)
	}
	a.verdicts[v]++
}

// Verdicts returns the per-verdict packet tally as a copy safe to retain
// across further Adds; nil when no verdict was recorded.
func (a *Running) Verdicts() map[uint32]int {
	if len(a.verdicts) == 0 {
		return nil
	}
	return maps.Clone(a.verdicts)
}

// AddShed counts n packets dropped unprocessed by an overload shed
// policy. Shed packets appear only in Summary.Shed; see that field for
// why they are kept out of every other figure.
func (a *Running) AddShed(n int) { a.shed += n }

// Shed returns how many packets were shed so far.
func (a *Running) Shed() int { return a.shed }

// Add folds one packet record into the aggregate. Quarantined records
// only advance the fault counters.
func (a *Running) Add(r *PacketRecord) {
	a.packets++
	if r.Faulted() {
		a.faulted++
		if a.faultCounts == nil {
			a.faultCounts = make(map[vm.FaultKind]int)
		}
		a.faultCounts[r.Fault]++
		return
	}
	a.totalInstructions += r.Instructions
	a.unique += uint64(r.Unique)
	a.pktAcc += r.PacketAccesses()
	a.nonPktAcc += r.NonPacketAccesses()
	if a.hist == nil {
		a.hist = make(map[uint64]int)
	}
	a.hist[r.Instructions]++
	if a.KeepInstructionCounts {
		a.counts = append(a.counts, r.Instructions)
	}
}

// Packets returns the number of records added.
func (a *Running) Packets() int { return a.packets }

// Faulted returns how many added records were quarantined.
func (a *Running) Faulted() int { return a.faulted }

// FaultCounts returns the per-kind quarantine tally so far, as a copy
// safe to retain across further Adds. It is how a progress display
// reports fault composition mid-run, before Summary is built. The map
// is nil when no record has faulted.
func (a *Running) FaultCounts() map[vm.FaultKind]int {
	if len(a.faultCounts) == 0 {
		return nil
	}
	return maps.Clone(a.faultCounts)
}

// Summary returns the run-level figures of the records added so far.
func (a *Running) Summary() Summary {
	s := Summary{Packets: a.packets, Faulted: a.faulted, TotalInstructions: a.totalInstructions, Shed: a.shed}
	if a.faulted > 0 {
		s.FaultCounts = maps.Clone(a.faultCounts)
	}
	if n := float64(s.Measured()); n > 0 {
		s.MeanInstructions = float64(a.totalInstructions) / n
		s.MeanUnique = float64(a.unique) / n
		s.MeanPacketAcc = float64(a.pktAcc) / n
		s.MeanNonPacketAcc = float64(a.nonPktAcc) / n
	}
	return s
}

// InstructionCounts returns the retained per-packet instruction counts
// (nil unless KeepInstructionCounts was set before the run).
func (a *Running) InstructionCounts() []uint64 { return a.counts }

// InstructionHistogram returns how many measured packets ran each
// instruction count: the input of analysis.OccurrencesOf.
func (a *Running) InstructionHistogram() map[uint64]int { return a.hist }

// InstructionCounts extracts the per-packet instruction counts from
// records (input to analysis.Occurrences for Table V). Quarantined
// records carry no counts and are excluded, matching Summarize's means.
func InstructionCounts(records []PacketRecord) []uint64 {
	out := make([]uint64, 0, len(records))
	for i := range records {
		if records[i].Faulted() {
			continue
		}
		out = append(out, records[i].Instructions)
	}
	return out
}

// BlockSets extracts per-packet executed block sets (Figures 7 and 8),
// excluding quarantined records.
func BlockSets(records []PacketRecord) [][]int {
	out := make([][]int, 0, len(records))
	for i := range records {
		if records[i].Faulted() {
			continue
		}
		out = append(out, records[i].Blocks)
	}
	return out
}
