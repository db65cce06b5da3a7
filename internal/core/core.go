// Package core is PacketBench itself: the framework that loads a network
// processing application onto the simulated PB32 core, feeds it packets
// from a trace, and collects selectively-accounted workload statistics.
//
// The paper's architecture (its Figure 2) maps onto this package as
// follows:
//
//   - PacketBench framework: the Bench type. Trace reading/writing,
//     packet placement and memory management run natively on the host and
//     are invisible to the statistics, because "on a network processor,
//     many of these functions are implemented by specialized hardware
//     components and therefore should not be considered part of the
//     application".
//   - PacketBench API: the application ABI documented below, the analogue
//     of the paper's init() / process_packet() / write_packet_to_file()
//     interface.
//   - Network processing application: a PB32 assembly program plus a
//     host-side Init hook that builds its data structures in simulated
//     memory (the work the paper's uncounted init() performs).
//   - Processor simulator & selective accounting: internal/vm driving an
//     internal/stats collector.
//
// # Application ABI
//
// The application's entry point is its exported (".global") symbol named
// by App.Entry. For each packet the framework:
//
//	a0 <- address of the packet's layer-3 header in packet memory
//	a1 <- length in bytes of the packet data
//	sp <- top of the stack region
//	ra <- vm.ReturnAddress
//	pc <- entry
//
// The application processes the packet and returns ("ret") or executes
// "halt". Its a0 at that point is the verdict (application defined; the
// forwarding applications return the output port, 0 meaning drop). The
// packet buffer may be modified in place (for example TSA rewrites
// addresses); the framework reads it back when writing output traces.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/asm"
	"repro/internal/faultinject"
	"repro/internal/isa"
	"repro/internal/ptrace"
	"repro/internal/staticcheck"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vm"
)

// Default address-space layout of a PacketBench core. The text and data
// bases follow the assembler defaults.
const (
	// PacketBase is where the framework places each packet.
	PacketBase uint32 = 0x20000000
	// MaxPacketLen bounds a single packet buffer.
	MaxPacketLen = 64 * 1024
	// StackSize is the size of the application stack region.
	StackSize uint32 = 64 * 1024
	// StackTop is the initial stack pointer (stack grows down).
	StackTop uint32 = 0x80000000
	// DefaultHeapSize is the simulated-memory budget for application
	// data: the assembled data segment plus the heap Init allocates
	// application structures from.
	DefaultHeapSize uint32 = 64 * 1024 * 1024
	// DefaultStepLimit bounds instructions per packet; network processing
	// tasks are short, so hitting this means a broken application.
	DefaultStepLimit uint64 = 10_000_000
)

// App is one PacketBench application: PB32 source plus the host-side
// initialization that the paper's init() performs (building routing
// tables, hash buckets, anonymization tables in simulated memory).
type App struct {
	// Name identifies the application in reports.
	Name string
	// Source is the PB32 assembly implementing packet processing.
	Source string
	// Entry is the exported symbol the framework calls per packet.
	Entry string
	// Init builds the application's data structures in simulated memory
	// before any packet is processed. May be nil. Init processing is not
	// counted toward packet statistics, matching the paper's API.
	Init func(ld *Loader) error
}

// EngineKind selects the execution engine a Bench simulates with. Both
// engines implement the same architecture bit for bit — identical
// registers, memory, statistics records and fault PCs for any program —
// so the choice is purely a speed/validation tradeoff.
type EngineKind int

// The execution engines.
const (
	// EngineThreaded is the default: the block-threaded engine, which
	// pre-translates the text segment into basic-block micro-op traces
	// at load time and executes block bodies with no per-instruction
	// fetch checks.
	EngineThreaded EngineKind = iota
	// EngineInterpreter is the reference interpreter — the oracle the
	// threaded engine is differentially validated against.
	EngineInterpreter
)

// Deprecated: EngineCompiled is EngineThreaded.
const EngineCompiled = EngineThreaded

// String returns the CLI name of the engine.
func (e EngineKind) String() string {
	switch e {
	case EngineThreaded:
		return "threaded"
	case EngineInterpreter:
		return "interp"
	}
	return fmt.Sprintf("engine?%d", int(e))
}

// ParseEngine parses a CLI engine name.
func ParseEngine(s string) (EngineKind, error) {
	switch s {
	case "threaded", "":
		return EngineThreaded, nil
	case "interp", "interpreter":
		return EngineInterpreter, nil
	}
	return EngineThreaded, fmt.Errorf("core: unknown engine %q (want threaded or interp)", s)
}

// FaultPolicy selects how the run engine reacts to a packet whose
// processing faults (a *vm.Fault: bad instruction, unmapped access, step
// limit, oversize packet, recovered panic, ...).
type FaultPolicy int

// The fault policies.
const (
	// FailFast aborts the run on the first fault — the historical
	// behavior, and the default: on a reproduction rig a fault usually
	// means a broken application or harness, and measuring past it
	// silently would taint the run.
	FailFast FaultPolicy = iota
	// SkipAndRecord quarantines the faulted packet — the run continues,
	// the packet keeps its index slot as a fault-tagged record excluded
	// from aggregate statistics — until ErrorBudget faults have been
	// quarantined, after which the next fault aborts the run.
	SkipAndRecord
)

// String returns the CLI name of the policy.
func (p FaultPolicy) String() string {
	switch p {
	case FailFast:
		return "fail-fast"
	case SkipAndRecord:
		return "skip"
	}
	return fmt.Sprintf("policy?%d", int(p))
}

// ParseFaultPolicy parses a CLI policy name.
func ParseFaultPolicy(s string) (FaultPolicy, error) {
	switch s {
	case "fail-fast", "failfast":
		return FailFast, nil
	case "skip", "skip-and-record":
		return SkipAndRecord, nil
	}
	return FailFast, fmt.Errorf("core: unknown fault policy %q (want fail-fast or skip)", s)
}

// ErrorPolicy is a Bench's full fault-handling configuration.
type ErrorPolicy struct {
	// Policy selects the reaction to per-packet faults.
	Policy FaultPolicy
	// ErrorBudget bounds how many packets one run may quarantine under
	// SkipAndRecord; <= 0 means unlimited. Pool runs share a single
	// budget across all cores.
	ErrorBudget int
}

// ShedPolicy selects what a streaming pool run does when the bounded
// backlog is full: the producer has a batch ready but every job slot is
// occupied, meaning the source is outrunning the pool.
type ShedPolicy int

// The shed policies.
const (
	// ShedBlock applies backpressure: the producer waits for a free job
	// slot. The default, and the right choice whenever the source can
	// wait (a file replay).
	ShedBlock ShedPolicy = iota
	// ShedDropNewest drops the just-read batch when the backlog is full
	// — the arriving traffic is sacrificed, queued work is preserved
	// (tail drop).
	ShedDropNewest
	// ShedDropOldest evicts the oldest queued batch to make room for the
	// just-read one — queued work is sacrificed for fresher traffic
	// (head drop).
	ShedDropOldest
)

// String returns the CLI name of the policy.
func (s ShedPolicy) String() string {
	switch s {
	case ShedBlock:
		return "block"
	case ShedDropNewest:
		return "drop-newest"
	case ShedDropOldest:
		return "drop-oldest"
	}
	return fmt.Sprintf("shed?%d", int(s))
}

// ParseShedPolicy parses a CLI shed policy name.
func ParseShedPolicy(s string) (ShedPolicy, error) {
	switch s {
	case "block", "":
		return ShedBlock, nil
	case "drop-newest", "newest":
		return ShedDropNewest, nil
	case "drop-oldest", "oldest":
		return ShedDropOldest, nil
	}
	return ShedBlock, fmt.Errorf("core: unknown shed policy %q (want block, drop-newest or drop-oldest)", s)
}

// errorBudget is a run-scoped quarantine allowance, shared by every core
// of a pool run.
type errorBudget struct {
	limit int
	used  atomic.Int64
}

func newErrorBudget(limit int) *errorBudget { return &errorBudget{limit: limit} }

// take claims one quarantine slot; false means the budget is exhausted
// and the fault must abort the run.
func (e *errorBudget) take() bool {
	return e.limit <= 0 || e.used.Add(1) <= int64(e.limit)
}

// takeN claims n slots at once (a shed batch); false means the budget
// cannot cover them and the run must abort.
func (e *errorBudget) takeN(n int) bool {
	return e.limit <= 0 || e.used.Add(int64(n)) <= int64(e.limit)
}

// preload marks n slots as already spent — how a resumed run carries the
// quarantines and sheds committed before the crash, so the budget spans
// the whole logical run rather than resetting per process.
func (e *errorBudget) preload(n int64) { e.used.Store(n) }

// Options configures a Bench.
type Options struct {
	// HeapSize overrides DefaultHeapSize when nonzero. It is the size of
	// the data region, the assembled data segment included, so New
	// refuses a data segment larger than it.
	HeapSize uint32
	// StepLimit overrides DefaultStepLimit when nonzero.
	StepLimit uint64
	// Detail enables per-packet instruction/memory traces on the
	// collector.
	Detail bool
	// Coverage enables whole-run memory coverage tracking.
	Coverage bool
	// Errors selects the fault-handling policy (zero value: FailFast).
	Errors ErrorPolicy
	// Engine selects the execution engine (zero value: EngineThreaded).
	Engine EngineKind
	// NoVerify skips the static verifier. By default New refuses to load
	// a program with error-severity findings (control transfers that
	// leave the text segment, statically-bad memory accesses, paths that
	// run off the end of the program); NoVerify loads it anyway, leaving
	// fault handling to the runtime ErrorPolicy.
	NoVerify bool
	// Metrics, when non-nil, receives run telemetry: per-packet
	// counters (packets, instructions, region-split memory references,
	// faults by kind) and the packet-latency histogram. All cores of a
	// Pool share one registry, so the series aggregate across cores.
	// Nil disables telemetry at zero hot-path cost.
	Metrics *telemetry.Registry
	// RunDeadline bounds a pool run's wall-clock duration: the run is
	// cancelled when it elapses and returns a deadline error. Zero means
	// no deadline.
	RunDeadline time.Duration
	// StallTimeout enables the pool's progress watchdog: a worker that
	// makes no packet progress for this long has the run cancelled with
	// a *StallError naming it. Zero disables the watchdog.
	StallTimeout time.Duration
	// Shed selects the overload policy of Pool.RunTrace runs (zero
	// value: ShedBlock — backpressure, never drop). Pool.RunPackets
	// ignores it and always blocks: its source is memory, which can
	// always wait, and its []PacketRecord result has no shed marker.
	Shed ShedPolicy
	// Trace, when non-nil, arms the packet-journey tracer: each core
	// records per-stage span events into its own ptrace lane (Pool core
	// i uses Trace.Lane(i), so the tracer must be built with at least
	// as many lanes as the pool has cores). Nil disables journey
	// tracing at zero hot-path cost, the same contract as Metrics.
	Trace *ptrace.Tracer
	// FlightPath, when set alongside Trace, is where a pool run dumps
	// the flight recorder (Chrome trace-event JSON) if it aborts —
	// stall, panic, error-budget exhaustion, run deadline, torn
	// checkpoint or any other run error. Best-effort: a dump that
	// cannot be written never masks the run error.
	FlightPath string
	// Deprecated: ignored.
	ProfileCounts []uint64
}

// VerifyError is returned by New when the static verifier refuses an
// application. Diags holds the full report (warnings included); only
// error-severity findings cause rejection.
type VerifyError struct {
	App   string
	Diags staticcheck.List
}

func (e *VerifyError) Error() string {
	errs := e.Diags.Errors()
	return fmt.Sprintf("core: application %q failed static verification (%d error(s), e.g. %s); use NoVerify to load it anyway",
		e.App, len(errs), errs[0])
}

// LayoutFor is the memory map a Bench gives a program assembled from an
// application: the framework constants (packet buffer, stack) plus the
// program's own text segment and a data region of heapSize bytes that
// starts with its data segment. It is exported so the static verifier
// and CLIs check programs against the exact map they will run under.
func LayoutFor(prog *asm.Program, heapSize uint32) vm.Layout {
	if heapSize == 0 {
		heapSize = DefaultHeapSize
	}
	return vm.Layout{
		TextBase:   prog.TextBase,
		TextEnd:    prog.TextEnd(),
		PacketBase: PacketBase,
		PacketEnd:  PacketBase + MaxPacketLen,
		DataBase:   prog.DataBase,
		DataEnd:    prog.DataBase + heapSize,
		StackBase:  StackTop - StackSize,
		StackEnd:   StackTop,
	}
}

// Verify runs the static verifier over an application's program exactly
// as New would, without building a Bench.
func Verify(app *App, opts Options) (staticcheck.List, error) {
	prog, err := asm.Assemble(app.Source, asm.Options{})
	if err != nil {
		return nil, fmt.Errorf("core: assembling %s: %w", app.Name, err)
	}
	return verifyProg(prog, app, opts), nil
}

func verifyProg(prog *asm.Program, app *App, opts Options) staticcheck.List {
	return staticcheck.Verify(prog, staticcheck.Options{
		Layout:  LayoutFor(prog, opts.HeapSize),
		Entries: []string{app.Entry},
	})
}

// Loader is the interface Init hooks use to place application state into
// simulated memory. Allocation is a bump pointer over the heap that
// follows the assembled data segment; there is no free.
type Loader struct {
	mem     *vm.Memory
	next    uint32
	limit   uint32
	symbols map[string]uint32
}

// Alloc reserves size bytes aligned to align (a power of two; zero
// selects word alignment) and returns the base address.
func (l *Loader) Alloc(size, align uint32) (uint32, error) {
	if align == 0 {
		align = 4
	}
	if align&(align-1) != 0 {
		return 0, fmt.Errorf("core: alignment %d is not a power of two", align)
	}
	if align < 4 {
		return 0, fmt.Errorf("core: alignment %d is below the minimum word alignment 4", align)
	}
	base := (l.next + align - 1) &^ (align - 1)
	if base < l.next || base > l.limit || size > l.limit-base {
		return 0, fmt.Errorf("core: heap exhausted: need %d bytes at %#x, limit %#x", size, base, l.limit)
	}
	l.next = base + size
	return base, nil
}

// Write copies bytes into simulated memory (host-side, uncounted).
func (l *Loader) Write(addr uint32, b []byte) { l.mem.WriteBytes(addr, b) }

// Write32 stores a little-endian word (host-side, uncounted).
func (l *Loader) Write32(addr, v uint32) { l.mem.Write32(addr, v) }

// Symbol resolves a label defined by the application's assembly.
func (l *Loader) Symbol(name string) (uint32, error) {
	if a, ok := l.symbols[name]; ok {
		return a, nil
	}
	return 0, fmt.Errorf("core: undefined symbol %q", name)
}

// SetWord stores v at the address of the named label — the idiom Init
// hooks use to publish table addresses to the application ("globals").
func (l *Loader) SetWord(symbol string, v uint32) error {
	addr, err := l.Symbol(symbol)
	if err != nil {
		return err
	}
	l.mem.Write32(addr, v)
	return nil
}

// HeapNext returns the next free heap address (after Init it marks the
// end of initialized application state).
func (l *Loader) HeapNext() uint32 { return l.next }

// Result is the outcome of processing one packet.
type Result struct {
	// Verdict is the application's a0 at return (port number, 0 = drop,
	// application defined). Zero for quarantined packets.
	Verdict uint32
	// Record is the packet's workload profile. For quarantined packets
	// it is a fault-tagged marker (Record.Faulted()) holding no counts.
	Record stats.PacketRecord
	// Fault is the fault that quarantined the packet under the skip
	// policy; nil for measured packets.
	Fault *vm.Fault
	// Shed marks a packet dropped unprocessed by the overload shed
	// policy: Record carries only the Index and Fault is nil. onResult
	// still observes the packet in trace order, preserving the
	// exactly-once index contract.
	Shed bool
}

// Faulted reports whether the packet was quarantined instead of measured.
func (r *Result) Faulted() bool { return r.Fault != nil }

// Bench is a loaded PacketBench instance: one application on one
// simulated core.
type Bench struct {
	app    *App
	prog   *asm.Program
	mem    *vm.Memory
	cpu    *vm.CPU
	col    *stats.Collector
	blocks *analysis.BlockMap
	loader *Loader

	engine EngineKind
	// tprog is the block-threaded translation of the program, nil when
	// the bench runs on the reference interpreter.
	tprog *vm.Program

	entry        uint32
	stepLimit    uint64
	processed    int
	tracing      bool // attach the collector's account and a tracer (see observe)
	extraTracers []vm.Tracer
	tracers      [2]vm.Tracer // the extra tracers without and with the collector
	policy       ErrorPolicy
	budget       *errorBudget // for bare ProcessPacket calls; runs use their own
	reg          *telemetry.Registry
	metrics      *runMetrics  // nil when telemetry is disabled
	lane         *ptrace.Lane // nil when journey tracing is disabled
	laneBlocks   []int        // the lane's scratch copy of a packet's executed blocks

	// inj, when non-nil, arms execution-surface faults per packet (see
	// SetInjector). runCtx is the run's context, which injected delays
	// and stalls sleep on.
	inj    *faultinject.Injector
	runCtx context.Context

	// dirtyLen is the number of bytes at PacketBase that may hold
	// non-zero data from the previous packet: the previous placement
	// extent, widened by any store the application issued beyond it
	// (tracked by the CPU's packet-write watermark). Zeroing only this
	// window instead of the full 64 KiB buffer is what keeps the
	// per-packet hot path proportional to the traffic, not the buffer.
	dirtyLen int
}

// New assembles the application, loads its segments, runs Init, and
// returns a ready Bench.
func New(app *App, opts Options) (*Bench, error) {
	if app.Entry == "" {
		return nil, fmt.Errorf("core: application %q has no entry symbol", app.Name)
	}
	prog, err := asm.Assemble(app.Source, asm.Options{})
	if err != nil {
		return nil, fmt.Errorf("core: assembling %s: %w", app.Name, err)
	}
	entry, ok := prog.Symbol(app.Entry)
	if !ok {
		return nil, fmt.Errorf("core: application %q: entry symbol %q not defined", app.Name, app.Entry)
	}

	heap := opts.HeapSize
	if heap == 0 {
		heap = DefaultHeapSize
	}
	stepLimit := opts.StepLimit
	if stepLimit == 0 {
		stepLimit = DefaultStepLimit
	}

	if uint64(len(prog.Data)) > uint64(heap) {
		return nil, fmt.Errorf("core: application %q: its %d-byte data segment does not fit the %d-byte heap", app.Name, len(prog.Data), heap)
	}
	layout := LayoutFor(prog, heap)
	if err := layout.Check(); err != nil {
		return nil, fmt.Errorf("core: application %q: %w", app.Name, err)
	}
	if !opts.NoVerify {
		if ds := verifyProg(prog, app, opts); ds.HasErrors() {
			return nil, &VerifyError{App: app.Name, Diags: ds}
		}
	}

	mem := vm.NewMemory(layout)
	mem.WriteBytes(prog.DataBase, prog.Data)

	loader := &Loader{
		mem:     mem,
		next:    (prog.DataEnd() + 7) &^ 7,
		limit:   layout.DataEnd,
		symbols: prog.Symbols,
	}
	if app.Init != nil {
		if err := app.Init(loader); err != nil {
			return nil, fmt.Errorf("core: init of %s: %w", app.Name, err)
		}
	}

	cpu := vm.New(prog.Text, prog.TextBase, mem)

	blocks := analysis.NewBlockMap(prog.Text, prog.TextBase)
	col := stats.NewCollector(prog.Text, prog.TextBase, blocks, layout)
	col.Detail = opts.Detail
	col.Coverage = opts.Coverage

	var tprog *vm.Program
	switch opts.Engine {
	case EngineThreaded:
		tprog = vm.Translate(prog.Text, prog.TextBase, blocks)
	case EngineInterpreter:
	default:
		return nil, fmt.Errorf("core: unknown engine %d", opts.Engine)
	}

	b := &Bench{
		app: app, prog: prog, mem: mem, cpu: cpu,
		col: col, blocks: blocks, loader: loader,
		engine: opts.Engine, tprog: tprog,
		entry: entry, stepLimit: stepLimit,
		policy: opts.Errors, budget: newErrorBudget(opts.Errors.ErrorBudget),
		reg: opts.Metrics, metrics: newRunMetrics(opts.Metrics),
		lane: opts.Trace.Lane(0), runCtx: context.Background(),
		tracing: true, tracers: [2]vm.Tracer{nil, col},
	}
	return b, nil
}

// Metrics returns the telemetry registry the bench reports into (nil
// when telemetry is disabled).
func (b *Bench) Metrics() *telemetry.Registry { return b.reg }

// Engine returns the execution engine the bench was built with.
func (b *Bench) Engine() EngineKind { return b.engine }

// Program returns the assembled application image.
func (b *Bench) Program() *asm.Program { return b.prog }

// Collector exposes the statistics collector.
func (b *Bench) Collector() *stats.Collector { return b.col }

// BlockMap exposes the application's basic-block decomposition.
func (b *Bench) BlockMap() *analysis.BlockMap { return b.blocks }

// Memory exposes simulated memory for host-side inspection (differential
// tests walk application tables through this).
func (b *Bench) Memory() *vm.Memory { return b.mem }

// Loader returns the loader, whose HeapNext reports the extent of
// initialized application state.
func (b *Bench) Loader() *Loader { return b.loader }

// Processed returns the number of packets this bench has successfully
// processed (pool cancellation tests and schedulers use it to observe
// how much work a core performed).
func (b *Bench) Processed() int { return b.processed }

// ProcessPacket runs the application on one packet under the configured
// error policy and returns its verdict and workload record. Under the
// skip policy a faulted packet yields a quarantine Result (Faulted())
// and a nil error; FailFast — the default — returns the fault as an
// error, as it always has.
func (b *Bench) ProcessPacket(p *trace.Packet) (Result, error) {
	return b.processUnderPolicy(b.col.Packets(), p, b.budget)
}

// ProcessPacketAt is ProcessPacket for a packet at a known trace
// position: idx labels errors and keys the injector's plan, so an
// injection plan keyed on trace indexes fires on the right packets no
// matter which core the packet was scheduled on.
func (b *Bench) ProcessPacketAt(idx int, p *trace.Packet) (Result, error) {
	return b.processUnderPolicy(idx, p, b.budget)
}

// processUnderPolicy runs the packet once under the bench's error
// policy: FailFast returns any error, SkipAndRecord quarantines a
// faulted packet, drawing its slot from bud.
func (b *Bench) processUnderPolicy(idx int, p *trace.Packet, bud *errorBudget) (Result, error) {
	res, fault, err := b.processOnce(idx, p)
	if err == nil {
		if b.lane != nil {
			// The journey keeps the blocks the packet ran whether or not
			// its record gathers them.
			b.laneBlocks = b.col.Account().AppendBlocks(b.laneBlocks[:0])
			b.lane.EndPacket(int64(idx), res.Verdict, 0, b.laneBlocks)
		}
		return res, nil
	}
	if fault == nil || b.policy.Policy == FailFast {
		// FailFast runs and non-fault errors abort immediately. The
		// open journey stays in the flight recorder, where the
		// post-mortem dump picks it up.
		return Result{}, err
	}
	if !bud.take() {
		return Result{}, fmt.Errorf("core: error budget of %d exhausted: %w", b.policy.ErrorBudget, err)
	}
	b.metrics.fault(fault.Kind)
	b.lane.Quarantine(int64(idx), uint8(fault.Kind)+1)
	b.lane.EndPacket(int64(idx), 0, uint8(fault.Kind)+1, nil)
	return Result{Record: b.col.AbortPacket(fault.Kind), Fault: fault}, nil
}

// processOnce places, dispatches and executes one packet under the
// panic barrier. On failure the *vm.Fault behind the error is returned
// alongside it (nil for errors no policy may absorb).
func (b *Bench) processOnce(idx int, p *trace.Packet) (Result, *vm.Fault, error) {
	var start time.Time
	if b.metrics != nil {
		start = time.Now()
	}
	n := len(p.Data)
	if n > MaxPacketLen {
		f := &vm.Fault{Kind: vm.FaultOversizePacket}
		return Result{}, f, fmt.Errorf("core: %s: packet %d: packet of %d bytes exceeds buffer: %w",
			b.app.Name, idx, n, f)
	}
	t0 := b.lane.ExecBegin(int64(idx))
	// Place the packet. WriteBytes overwrites [0, n), so only the tail
	// [n, dirtyLen) can still hold stale bytes from a longer previous
	// packet (or from stores the previous run issued past its own
	// length); zero exactly that window rather than the whole 64 KiB
	// buffer.
	if b.dirtyLen > n {
		b.mem.Zero(PacketBase+uint32(n), b.dirtyLen-n)
	}
	b.mem.WriteBytes(PacketBase, p.Data)
	b.dirtyLen = n
	b.cpu.ResetPacketWriteHigh()

	for r := range b.cpu.Regs {
		b.cpu.Regs[r] = 0
	}
	b.cpu.SetReg(isa.A0, PacketBase)
	b.cpu.SetReg(isa.A1, uint32(n))
	b.cpu.SetReg(isa.SP, StackTop)
	b.cpu.SetReg(isa.RA, vm.ReturnAddress)
	b.cpu.PC = b.entry

	b.col.BeginPacket()
	b.observe()
	err := b.runGuarded(idx)
	// Even a faulting run may have dirtied the buffer past the packet's
	// length; widen the dirty window before reporting the error so a
	// subsequent packet still gets a clean buffer.
	if high := b.cpu.PacketWriteHigh(); high > PacketBase && int(high-PacketBase) > b.dirtyLen {
		b.dirtyLen = int(high - PacketBase)
	}
	if err != nil {
		if b.metrics != nil {
			b.metrics.latency.Observe(uint64(time.Since(start)))
		}
		var f *vm.Fault
		errors.As(err, &f)
		var fk uint8
		if f != nil {
			fk = uint8(f.Kind) + 1
		}
		b.lane.ExecEnd(t0, int64(idx), uint8(b.engine), 0, 0, fk)
		return Result{}, f, fmt.Errorf("core: %s: packet %d: %w", b.app.Name, idx, err)
	}
	rec := b.col.EndPacket()
	b.processed++
	verdict := b.cpu.Reg(isa.A0)
	b.lane.ExecEnd(t0, int64(idx), uint8(b.engine), rec.Instructions, verdict, 0)
	if b.metrics != nil {
		d := uint64(time.Since(start))
		if b.lane != nil {
			// A journey tracer links the latency histogram's buckets to
			// span ids (the packet index) for exemplar chasing.
			b.metrics.latency.ObserveEx(d, uint64(idx))
		} else {
			b.metrics.latency.Observe(d)
		}
		b.metrics.measured(&rec)
	}
	return Result{Verdict: verdict, Record: rec}, nil, nil
}

// runGuarded executes the simulator with a panic barrier: a panic (an
// injected one on purpose, an instrumentation bug by accident) becomes a
// per-packet FaultHostPanic the policy layer can absorb, instead of
// killing the whole process.
//
// With an injector attached, the packet runs in step-budget segments,
// one per injection armed for trace index idx. Each injection fires at
// cpu.PC once exactly its instruction count has executed, and the
// packet resumes from there; a packet that ends first never fires it.
func (b *Bench) runGuarded(idx int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("recovered panic %q: %w", fmt.Sprint(r),
				&vm.Fault{Kind: vm.FaultHostPanic, PC: b.cpu.PC})
		}
	}()
	var done uint64
	if b.inj != nil {
		for _, e := range b.inj.Execs(idx) {
			if e.After >= b.stepLimit {
				break
			}
			n, err := b.run(e.After - done)
			done += n
			if !errors.Is(err, vm.FaultStepLimit) {
				return err // the packet ended before the injection's count
			}
			if err := e.Fire(b.runCtx, b.cpu.PC); err != nil {
				return err
			}
		}
	}
	_, err = b.run(b.stepLimit - done)
	return err
}

// run executes the packet from cpu.PC for at most budget instructions
// on the bench's engine.
func (b *Bench) run(budget uint64) (uint64, error) {
	if b.tprog != nil {
		n, _, err := b.cpu.RunProgram(b.tprog, budget)
		return n, err
	}
	n, _, err := b.cpu.Run(budget)
	return n, err
}

// SetTracing attaches or detaches the statistics collector's account
// and every tracer (the collector's and any extra ones) from the
// simulated core, from the next packet on. Detached runs execute at full
// simulator speed but produce empty packet records; the tracer-overhead
// ablation uses this.
func (b *Bench) SetTracing(enabled bool) { b.tracing = enabled }

// observe wires the core for the next packet. With tracing on, the core
// keeps the collector's account inline, and its tracer carries the
// collector only while Detail or CountPCs needs the events, plus any
// extra tracers: the default collector path runs with no tracer.
func (b *Bench) observe() {
	b.cpu.Account, b.cpu.Tracer = nil, nil
	if b.tracing {
		b.cpu.Account = b.col.Account()
		b.cpu.Tracer = b.tracers[0]
		if b.col.Detail || b.col.CountPCs {
			b.cpu.Tracer = b.tracers[1]
		}
	}
}

// programBoundTracer is implemented by extra tracers that precompute
// per-instruction tables from the program text (the microarch
// profiler); the bench binds them to its program when they are attached.
type programBoundTracer interface {
	BindProgram(text []isa.Instruction, textBase uint32)
}

// AddTracer attaches an additional tracer (for example a
// microarch.Profiler) alongside the workload collector, binding it to
// the program first when it precomputes per-instruction tables.
func (b *Bench) AddTracer(t vm.Tracer) {
	if pt, ok := t.(programBoundTracer); ok {
		pt.BindProgram(b.prog.Text, b.prog.TextBase)
	}
	b.extraTracers = append(b.extraTracers, t)
	b.tracers = [2]vm.Tracer{t, vm.MultiTracer(append([]vm.Tracer{b.col}, b.extraTracers...))}
	if len(b.extraTracers) > 1 {
		b.tracers[0] = vm.MultiTracer(b.extraTracers)
	}
	b.SetTracing(true)
}

// SetInjector attaches a fault injector's execution-surface plan: each
// packet then runs in step-budget segments, and every injection planned
// for its trace index fires after exactly its instruction count (see
// faultinject.Exec). Packet-surface injections belong to the trace
// reader (Injector.Reader). A nil inj detaches the injector.
func (b *Bench) SetInjector(inj *faultinject.Injector) { b.inj = inj }

// PacketBytes reads back n bytes of the packet buffer (after processing,
// to observe in-place modifications).
func (b *Bench) PacketBytes(n int) []byte {
	return b.mem.ReadBytes(PacketBase, n)
}

// RunPackets processes a pre-loaded packet slice and returns the records.
func (b *Bench) RunPackets(pkts []*trace.Packet, onResult func(int, Result)) ([]stats.PacketRecord, error) {
	bud := newErrorBudget(b.policy.ErrorBudget)
	records := make([]stats.PacketRecord, 0, len(pkts))
	for i, p := range pkts {
		res, err := b.processUnderPolicy(i, p, bud)
		if err != nil {
			return records, err
		}
		records = append(records, res.Record)
		if onResult != nil {
			onResult(i, res)
		}
	}
	return records, nil
}
