// Package ptrace is the packet-journey tracer: a low-overhead recorder
// of what the pipeline did to individual packets, stage by stage —
// batch read, queue wait, execution (engine tier, retired
// instructions, executed blocks), quarantine, overload shedding and
// checkpoint commits.
//
// The design contract mirrors telemetry.Registry: a nil *Tracer (and
// the nil *Lane handles it hands out) costs the hot path nothing
// beyond a pointer test, and an armed tracer is allocation-free per
// packet — every buffer is sized at New time.
//
// # Storage
//
// Each lane (one per pool worker, plus one for the trace producer and
// one for the checkpoint committer) owns three fixed-size stores,
// written only by that lane's goroutine:
//
//   - a ring buffer of fixed-width events — the flight recorder. Every
//     stage event of every packet lands here, overwriting the oldest;
//     after a crash the rings hold the pipeline's final milliseconds.
//     Slots are atomic words, so a post-mortem dump may read them while
//     a wedged-then-unwedged worker is still writing.
//   - a kept-journey store for head-sampled packets (every Nth trace
//     index) and packets over the tail latency threshold. Bounded;
//     overflow increments a drop counter instead of allocating.
//   - a tail reservoir of the K slowest journeys seen by the lane, so
//     the globally slowest packets of a run are always captured no
//     matter the sampling rate.
//
// # Spans
//
// Execution spans are bracketed: ExecBegin writes an in-flight marker
// event into the ring and returns the span's start timestamp, and
// ExecEnd completes it. If a worker wedges mid-packet, the marker is
// the ring's final event for that lane — the post-mortem dump
// reconstructs which packet it was executing without touching any
// non-atomic state. The pblint span-pairing rule holds callers to the
// bracket discipline.
package ptrace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one pipeline stage of a packet's journey.
type Stage uint8

// The journey stages.
const (
	// StageRead is one batched trace read by the producer.
	StageRead Stage = iota
	// StageQueue is a batch's wait in the bounded job queue, from
	// enqueue to worker pickup.
	StageQueue
	// StageExec is one packet's execution on a simulated core.
	StageExec
	// StageQuarantine marks a packet quarantined after its execution
	// faulted.
	StageQuarantine
	// StageShed marks a batch dropped unprocessed by the overload
	// policy.
	StageShed
	// StageCheckpoint is one checkpoint commit by the aggregator.
	StageCheckpoint

	numStages
)

// NumStages is the number of distinct stages.
const NumStages = int(numStages)

var stageNames = [numStages]string{
	"read", "queue", "exec", "quarantine", "shed", "checkpoint",
}

// String returns the stage's report name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage?"
}

// Event is one fixed-width journey event. Times are nanoseconds since
// the tracer's epoch (its New call, or the injected clock's zero).
type Event struct {
	// Stage is the pipeline stage this event measures.
	Stage Stage
	// Mark is set on in-flight begin markers: the stage has started but
	// not finished, so Dur is meaningless. A lane whose ring ends in a
	// marked exec event was wedged inside that packet.
	Mark bool
	// Engine is the core.EngineKind ordinal for exec events.
	Engine uint8
	// Fault is the vm.FaultKind ordinal that ended a failed execution
	// (offset by one: 0 means no fault, k+1 means kind k).
	Fault uint8
	// Lane is the recording lane (worker index, or the producer or
	// committer lane).
	Lane int32
	// Index is the trace index of the packet, or the base index of the
	// batch for read/queue/shed events.
	Index int64
	// Start and Dur bound the stage in epoch nanoseconds.
	Start int64
	Dur   int64
	// Count is the batch size for read/queue/shed events.
	Count uint32
	// Verdict is the application verdict of a successful exec event.
	Verdict uint32
	// Instrs is the retired instruction count of a successful exec
	// event.
	Instrs uint64
}

// slotWords is the ring footprint of one encoded event.
const slotWords = 6

// encode packs the event into its ring representation.
func (ev *Event) encode() (w [slotWords]uint64) {
	var mark uint64
	if ev.Mark {
		mark = 1
	}
	w[0] = uint64(ev.Stage) | mark<<8 | uint64(ev.Engine)<<16 |
		uint64(ev.Fault)<<24 | uint64(uint16(ev.Lane))<<32
	w[1] = uint64(ev.Index)
	w[2] = uint64(ev.Start)
	w[3] = uint64(ev.Dur)
	w[4] = uint64(ev.Count) | uint64(ev.Verdict)<<32
	w[5] = ev.Instrs
	return w
}

func decodeEvent(w [slotWords]uint64) Event {
	return Event{
		Stage:   Stage(w[0] & 0xff),
		Mark:    w[0]>>8&0xff != 0,
		Engine:  uint8(w[0] >> 16),
		Fault:   uint8(w[0] >> 24),
		Lane:    int32(uint16(w[0] >> 32)),
		Index:   int64(w[1]),
		Start:   int64(w[2]),
		Dur:     int64(w[3]),
		Count:   uint32(w[4]),
		Verdict: uint32(w[4] >> 32),
		Instrs:  w[5],
	}
}

// Journey bounds: events and executed-block ids retained per packet.
// Both are fixed arrays so keeping a journey never allocates.
const (
	maxJourneyEvents = 24
	maxJourneyBlocks = 8
)

// Journey is one packet's recorded journey through the pipeline.
type Journey struct {
	// Index is the packet's trace index.
	Index int64
	// Lane is the worker that processed it.
	Lane int32
	// Sampled marks a head-sampled journey (vs. one kept only because
	// of its latency).
	Sampled bool
	// Fault is the quarantining fault kind + 1 (0 = measured packet).
	Fault uint8
	// Start is the journey's first timestamp (epoch ns).
	Start int64
	// Latency is execution start to policy resolution (ns).
	Latency int64
	// Verdict is the application verdict (0 for quarantined packets).
	Verdict uint32
	// Instrs is the retired instruction count of the execution.
	Instrs uint64

	nEv int
	nBl int
	ev  [maxJourneyEvents]Event
	bl  [maxJourneyBlocks]int32
}

// Events returns the journey's stage events in recording order.
func (j *Journey) Events() []Event { return j.ev[:j.nEv] }

// Blocks returns up to maxJourneyBlocks executed basic-block ids of the
// execution, in program order — the hook function attribution hangs
// off.
func (j *Journey) Blocks() []int32 { return j.bl[:j.nBl] }

// reset re-arms the scratch journey for a new packet without zeroing
// the event array (nEv masks stale entries).
func (j *Journey) reset(idx int64, lane int32, now int64) {
	j.Index, j.Lane, j.Start = idx, lane, now
	j.Sampled, j.Fault, j.Latency, j.Verdict, j.Instrs = false, 0, 0, 0, 0
	j.nEv, j.nBl = 0, 0
}

// add appends an event, dropping silently at the cap (a packet with
// more than maxJourneyEvents stages keeps its earliest ones).
func (j *Journey) add(ev Event) {
	if j.nEv < maxJourneyEvents {
		j.ev[j.nEv] = ev
		j.nEv++
	}
}

// Config sizes a Tracer. The zero value of each field selects the
// documented default.
type Config struct {
	// Lanes is the number of worker lanes (pool cores). Default 1. Two
	// internal lanes (producer, committer) are always added.
	Lanes int
	// SampleEvery keeps the journey of every Nth packet by trace index
	// (the -trace-sample 1/N head rate). 0 disables head sampling;
	// the tail reservoir still captures the slowest packets.
	SampleEvery int
	// TailK is the per-lane reservoir of slowest journeys (default 8).
	TailK int
	// TailNS force-keeps any journey at least this slow, regardless of
	// sampling (0 = off).
	TailNS int64
	// RingEvents is the flight-recorder ring capacity per lane
	// (default 512 events).
	RingEvents int
	// MaxKept bounds head-sampled journeys retained per lane (default
	// 1024); overflow is counted, not stored.
	MaxKept int
	// Clock overrides the timestamp source (epoch nanoseconds,
	// monotone). Tests inject a deterministic counter here; nil uses
	// the wall clock relative to the New call.
	Clock func() int64
}

// Tracer owns the per-lane stores. A nil Tracer is fully inert: Lane
// returns nil handles whose methods no-op.
type Tracer struct {
	sampleEvery int64
	tailNS      int64
	clock       func() int64
	lanes       []*Lane // Config.Lanes workers + producer + committer
}

// New builds an armed tracer. All storage is allocated here; recording
// never allocates.
func New(cfg Config) *Tracer {
	if cfg.Lanes < 1 {
		cfg.Lanes = 1
	}
	if cfg.TailK <= 0 {
		cfg.TailK = 8
	}
	if cfg.RingEvents <= 0 {
		cfg.RingEvents = 512
	}
	if cfg.MaxKept <= 0 {
		cfg.MaxKept = 1024
	}
	clock := cfg.Clock
	if clock == nil {
		epoch := time.Now()
		clock = func() int64 { return time.Since(epoch).Nanoseconds() }
	}
	t := &Tracer{
		sampleEvery: int64(cfg.SampleEvery),
		tailNS:      cfg.TailNS,
		clock:       clock,
		lanes:       make([]*Lane, cfg.Lanes+2),
	}
	for i := range t.lanes {
		t.lanes[i] = &Lane{
			t:       t,
			id:      int32(i),
			ringLen: cfg.RingEvents,
			ring:    make([]atomic.Uint64, cfg.RingEvents*slotWords),
			kept:    make([]Journey, 0, cfg.MaxKept),
			tail:    make([]Journey, 0, cfg.TailK),
		}
		t.lanes[i].tailMin.Store(-1) // reservoir not full
	}
	return t
}

// Now returns the tracer's current timestamp (0 on a nil tracer).
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return t.clock()
}

// Lane returns worker lane i's handle, or nil when the tracer is nil
// or i is out of range — either way the handle is safe to use.
func (t *Tracer) Lane(i int) *Lane {
	if t == nil || i < 0 || i >= len(t.lanes)-2 {
		return nil
	}
	return t.lanes[i]
}

// Producer returns the trace-reader lane (read and shed events).
func (t *Tracer) Producer() *Lane {
	if t == nil {
		return nil
	}
	return t.lanes[len(t.lanes)-2]
}

// Committer returns the checkpoint-committer lane.
func (t *Tracer) Committer() *Lane {
	if t == nil {
		return nil
	}
	return t.lanes[len(t.lanes)-1]
}

// Workers returns the number of worker lanes.
func (t *Tracer) Workers() int {
	if t == nil {
		return 0
	}
	return len(t.lanes) - 2
}

// Lane is one goroutine's recording handle. All recording methods are
// single-writer: only the owning goroutine may call them. All are
// nil-receiver safe.
type Lane struct {
	t       *Tracer
	id      int32
	ringLen int
	ring    []atomic.Uint64
	head    atomic.Uint64 // events ever recorded; slot = head % ringLen

	// Scratch journey of the packet currently in flight, plus the batch
	// context its read/queue spans are synthesized from. Owner-only.
	cur        Journey
	batchBase  int64
	batchRead  int64
	batchQueue int64
	batchN     uint32

	// Per-stage accumulators; atomic because dumps read them while a
	// cooperatively-unwedged worker may still be recording.
	stageCount [numStages]atomic.Uint64
	stageSum   [numStages]atomic.Uint64
	stageMax   [numStages]atomic.Uint64

	mu          sync.Mutex
	kept        []Journey     // head-sampled / over-threshold journeys
	tail        []Journey     // reservoir of the K slowest
	tailMin     atomic.Int64  // min latency in a full reservoir; -1 while filling
	keptDropped atomic.Uint64 // journeys lost to the kept cap
}

// record writes one event into the flight-recorder ring.
//
// pblint:hotpath — runs once per stage event of every packet.
func (l *Lane) record(ev Event) {
	seq := l.head.Load()
	w := ev.encode()
	base := int(seq%uint64(l.ringLen)) * slotWords
	for i := 0; i < slotWords; i++ {
		l.ring[base+i].Store(w[i])
	}
	l.head.Store(seq + 1)
}

// stageAdd folds a completed stage into the lane accumulators.
//
// pblint:hotpath — runs once per stage event of every packet.
func (l *Lane) stageAdd(s Stage, dur int64) {
	l.stageCount[s].Add(1)
	l.stageSum[s].Add(uint64(dur))
	if uint64(dur) > l.stageMax[s].Load() {
		l.stageMax[s].Store(uint64(dur)) // single writer: no CAS needed
	}
}

// BatchStart tells a worker lane which batch its next packets belong
// to: the producer's read time and the batch's queue wait become the
// leading spans of every journey in the batch. Records the queue-wait
// event.
//
// pblint:hotpath — runs once per batch on the worker.
func (l *Lane) BatchStart(base int64, n int, readNS, queueNS int64) {
	if l == nil {
		return
	}
	l.batchBase, l.batchN = base, uint32(n)
	l.batchRead, l.batchQueue = readNS, queueNS
	now := l.t.clock()
	l.record(Event{Stage: StageQueue, Lane: l.id, Index: base, Start: now - queueNS, Dur: queueNS, Count: uint32(n)})
	l.stageAdd(StageQueue, queueNS)
}

// ExecBegin opens the packet's journey and its execution span: it
// writes the in-flight marker into the ring (the wedge witness) and
// returns the span start for the matching ExecEnd.
//
// pblint:hotpath — runs once per packet.
func (l *Lane) ExecBegin(idx int64) int64 {
	if l == nil {
		return 0
	}
	now := l.t.clock()
	l.cur.reset(idx, l.id, now)
	if l.batchN > 0 {
		// Synthesize the batch's read and queue spans as the journey
		// prologue, back-dated so the span tree reads causally.
		l.cur.add(Event{Stage: StageRead, Lane: l.id, Index: l.batchBase,
			Start: now - l.batchQueue - l.batchRead, Dur: l.batchRead, Count: l.batchN})
		l.cur.add(Event{Stage: StageQueue, Lane: l.id, Index: l.batchBase,
			Start: now - l.batchQueue, Dur: l.batchQueue, Count: l.batchN})
	}
	l.record(Event{Stage: StageExec, Mark: true, Lane: l.id, Index: idx, Start: now})
	return now
}

// ExecEnd closes the execution span opened by ExecBegin. fault is the
// vm.FaultKind ordinal + 1 of a failed execution (0 = success).
//
// pblint:hotpath — runs once per packet.
func (l *Lane) ExecEnd(start, idx int64, engine uint8, instrs uint64, verdict uint32, fault uint8) {
	if l == nil {
		return
	}
	now := l.t.clock()
	ev := Event{Stage: StageExec, Lane: l.id, Index: idx, Start: start, Dur: now - start,
		Engine: engine, Fault: fault, Instrs: instrs, Verdict: verdict}
	l.record(ev)
	l.cur.add(ev)
	l.stageAdd(StageExec, ev.Dur)
}

// Quarantine records the quarantine decision for a packet whose
// execution faulted. fault is the vm.FaultKind ordinal + 1.
//
// pblint:hotpath — runs once per quarantined packet.
func (l *Lane) Quarantine(idx int64, fault uint8) {
	if l == nil {
		return
	}
	now := l.t.clock()
	ev := Event{Stage: StageQuarantine, Lane: l.id, Index: idx, Start: now, Fault: fault}
	l.record(ev)
	l.cur.add(ev)
	l.stageAdd(StageQuarantine, 0)
}

// EndPacket closes the packet's journey and decides whether to keep it:
// head-sampled indexes and journeys over the tail threshold go to the
// kept store, and every journey competes for the slowest-K reservoir.
// blocks is the execution's executed-block set (may be nil).
//
// pblint:hotpath — runs once per packet.
func (l *Lane) EndPacket(idx int64, verdict uint32, fault uint8, blocks []int) {
	if l == nil {
		return
	}
	now := l.t.clock()
	l.cur.Latency = now - l.cur.Start
	l.cur.Verdict, l.cur.Fault = verdict, fault
	n := len(blocks)
	if n <= maxJourneyBlocks {
		for i := 0; i < n; i++ {
			l.cur.bl[i] = int32(blocks[i])
		}
	} else {
		// Stride-sample the sequence so the kept blocks span the whole
		// execution (attribution sees late functions, not just the
		// entry), keeping first and last.
		step := (n - 1) / (maxJourneyBlocks - 1)
		for i := 0; i < maxJourneyBlocks-1; i++ {
			l.cur.bl[i] = int32(blocks[i*step])
		}
		l.cur.bl[maxJourneyBlocks-1] = int32(blocks[n-1])
		n = maxJourneyBlocks
	}
	l.cur.nBl = n
	for i := 0; i < l.cur.nEv; i++ {
		if l.cur.ev[i].Stage == StageExec {
			l.cur.Instrs = l.cur.ev[i].Instrs
		}
	}
	t := l.t
	sampled := t.sampleEvery > 0 && idx%t.sampleEvery == 0
	if sampled || (t.tailNS > 0 && l.cur.Latency >= t.tailNS) {
		l.cur.Sampled = sampled
		l.keep()
	}
	min := l.tailMin.Load()
	if min < 0 || l.cur.Latency > min {
		l.reservoir()
	}
}

// keep stores the scratch journey in the kept list (no allocation: the
// backing array was sized at New; overflow only counts).
//
// pblint:hotpath — runs for every kept packet.
func (l *Lane) keep() {
	l.mu.Lock()
	if len(l.kept) < cap(l.kept) {
		l.kept = l.kept[:len(l.kept)+1]
		l.kept[len(l.kept)-1] = l.cur
	} else {
		l.keptDropped.Add(1)
	}
	l.mu.Unlock()
}

// reservoir offers the scratch journey to the slowest-K store,
// replacing the current minimum when full.
//
// pblint:hotpath — runs for every packet slower than the lane minimum.
func (l *Lane) reservoir() {
	l.mu.Lock()
	if len(l.tail) < cap(l.tail) {
		l.tail = l.tail[:len(l.tail)+1]
		l.tail[len(l.tail)-1] = l.cur
	} else {
		mi := 0
		for i := 1; i < len(l.tail); i++ {
			if l.tail[i].Latency < l.tail[mi].Latency {
				mi = i
			}
		}
		if l.cur.Latency > l.tail[mi].Latency {
			l.tail[mi] = l.cur
		}
	}
	if len(l.tail) == cap(l.tail) {
		min := l.tail[0].Latency
		for i := 1; i < len(l.tail); i++ {
			if l.tail[i].Latency < min {
				min = l.tail[i].Latency
			}
		}
		l.tailMin.Store(min)
	}
	l.mu.Unlock()
}

// Read records one producer batch read.
//
// pblint:hotpath — runs once per batch on the producer.
func (l *Lane) Read(base int64, n int, start, dur int64) {
	if l == nil {
		return
	}
	l.record(Event{Stage: StageRead, Lane: l.id, Index: base, Start: start, Dur: dur, Count: uint32(n)})
	l.stageAdd(StageRead, dur)
}

// Shed records a batch dropped by the overload policy.
//
// pblint:hotpath — runs once per shed batch on the producer.
func (l *Lane) Shed(base int64, n int) {
	if l == nil {
		return
	}
	now := l.t.clock()
	l.record(Event{Stage: StageShed, Lane: l.id, Index: base, Start: now, Count: uint32(n)})
	l.stageAdd(StageShed, 0)
}

// Checkpoint records one checkpoint commit at in-order index next.
//
// pblint:hotpath — runs once per checkpoint on the aggregator.
func (l *Lane) Checkpoint(next int64, start, dur int64) {
	if l == nil {
		return
	}
	l.record(Event{Stage: StageCheckpoint, Lane: l.id, Index: next, Start: start, Dur: dur})
	l.stageAdd(StageCheckpoint, dur)
}

// ringEvents decodes the lane's ring, oldest first. Safe concurrently
// with recording (slots are atomic; a wrapped-over slot may decode as
// the newer event, which a best-effort flight recorder tolerates).
func (l *Lane) ringEvents() []Event {
	h := l.head.Load()
	n := h
	if n > uint64(l.ringLen) {
		n = uint64(l.ringLen)
	}
	out := make([]Event, 0, n)
	for seq := h - n; seq < h; seq++ {
		base := int(seq%uint64(l.ringLen)) * slotWords
		var w [slotWords]uint64
		for i := 0; i < slotWords; i++ {
			w[i] = l.ring[base+i].Load()
		}
		out = append(out, decodeEvent(w))
	}
	return out
}

// journeys snapshots the lane's kept and reservoir journeys.
func (l *Lane) journeys() []Journey {
	l.mu.Lock()
	out := make([]Journey, 0, len(l.kept)+len(l.tail))
	out = append(out, l.kept...)
	out = append(out, l.tail...)
	l.mu.Unlock()
	return out
}
