// Package faultinject deterministically corrupts a packet stream, the
// simulated execution of chosen packets, and the host-side machinery
// around them, so the run engine's error policies and crash-only paths
// can be exercised without hand-crafting broken capture files or racy
// test doubles.
//
// An Injector is built from a seed and a plan of Injections, each pinned
// to a packet index in the trace (or, for CkptTear, a checkpoint write
// ordinal). Three attachment points cover the three fault surfaces:
//
//   - Injector.Reader wraps a trace.Reader and mutates packets as they
//     are read: flipping header bytes, truncating the captured data or
//     clamping the capture length.
//   - Injector.Execs lists a packet's execution-surface injections, each
//     at an exact instruction count. The run engine
//     (core.Bench.SetInjector) runs the packet in step-budget segments
//     and fires each one between two instructions: a *vm.Fault, a plain
//     host panic (simulating a worker bug), or an injected latency spike
//     or full stall that exercises the pool's progress watchdog.
//   - Injector.CheckpointTearFunc plugs into core.Checkpointer.TearWrite
//     and simulates a crash mid-checkpoint at planned write ordinals.
//
// All randomness (unspecified offsets, masks, step counts) is resolved
// from the seed when the Injector is built, so a plan replays identically
// regardless of how packets are scheduled across cores.
package faultinject

import (
	"cmp"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/trace"
	"repro/internal/vm"
)

// Kind enumerates the supported corruption kinds.
type Kind int

// The injection kinds.
const (
	// FlipByte XORs a mask into one byte of the packet data.
	FlipByte Kind = iota
	// Truncate cuts the captured data to a shorter length, leaving the
	// wire length untouched (a header-only capture of a longer packet).
	Truncate
	// ClampLen clamps both the captured data and the wire length, as an
	// aggressive snap length would.
	ClampLen
	// VMFault forces a *vm.Fault partway through the packet's simulated
	// execution.
	VMFault
	// WorkerPanic panics with a plain (non-fault) value partway through
	// the packet's execution, simulating a host-side worker bug; the run
	// engine's panic barrier must attribute it to exactly this packet.
	WorkerPanic
	// Delay sleeps inside the packet's execution for Arg milliseconds
	// (seed-chosen, 1-25ms, when Arg is negative) — a latency spike that
	// is slow but makes progress, so the watchdog must NOT fire.
	Delay
	// Stall blocks inside the packet's execution for Arg milliseconds
	// (effectively forever when Arg is negative) or until the run is
	// cancelled — the wedged worker the progress watchdog exists for.
	Stall
	// CkptTear makes checkpoint write ordinal Index crash mid-write,
	// leaving a torn temp file and the previous checkpoint intact. It
	// attaches via CheckpointTearFunc, not the reader or Execs.
	CkptTear
)

// String returns the spec-syntax name of the kind.
func (k Kind) String() string {
	switch k {
	case FlipByte:
		return "flip"
	case Truncate:
		return "trunc"
	case ClampLen:
		return "clamp"
	case VMFault:
		return "vmfault"
	case WorkerPanic:
		return "panic"
	case Delay:
		return "delay"
	case Stall:
		return "stall"
	case CkptTear:
		return "tearckpt"
	}
	return fmt.Sprintf("kind?%d", int(k))
}

// Injection is one planned corruption.
type Injection struct {
	// Index is the 0-based packet index in the trace the injection
	// applies to — except for CkptTear, where it is the checkpoint
	// write ordinal.
	Index int
	// Kind selects the corruption.
	Kind Kind
	// Arg refines it: the byte offset for FlipByte, the new length for
	// Truncate/ClampLen, the instruction count before the fault for
	// VMFault/WorkerPanic, or the sleep in milliseconds for Delay/Stall.
	// Negative means "choose from the seed" (for Stall: block until
	// cancelled).
	Arg int
}

// resolved is an Injection with its seeded randomness drawn.
type resolved struct {
	Injection
	salt uint64 // drives any length-dependent choices at apply time
	mask byte   // FlipByte XOR mask
}

// Injector applies a plan. It is safe for concurrent use: the packet
// mutations run inside the (sequential) trace reader, and Execs only
// reads the plan.
type Injector struct {
	seed    int64
	byIndex map[int][]*resolved
	plan    []Injection
}

// New draws all randomness for the plan from seed and returns the
// injector.
func New(seed int64, plan []Injection) *Injector {
	rng := rand.New(rand.NewSource(seed))
	inj := &Injector{
		seed:    seed,
		byIndex: make(map[int][]*resolved, len(plan)),
		plan:    append([]Injection(nil), plan...),
	}
	for _, in := range plan {
		r := &resolved{Injection: in, salt: rng.Uint64()}
		r.mask = byte(r.salt >> 8)
		if r.mask == 0 {
			r.mask = 0xFF
		}
		inj.byIndex[in.Index] = append(inj.byIndex[in.Index], r)
	}
	return inj
}

// Plan returns a copy of the injections, sorted by packet index, for
// reporting.
func (inj *Injector) Plan() []Injection {
	out := append([]Injection(nil), inj.plan...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	return out
}

// Reader wraps r so that planned packet-surface injections (FlipByte,
// Truncate, ClampLen) are applied as packets are read. Packet
// data is copied before mutation; the underlying reader's packets are
// never modified.
func (inj *Injector) Reader(r trace.Reader) trace.Reader {
	return inj.ReaderFrom(r, 0)
}

// ReaderFrom is Reader for an underlying reader already positioned at
// trace index start — a resumed run wraps its seeked reader with the
// restored start index so plan entries keep their absolute positions.
func (inj *Injector) ReaderFrom(r trace.Reader, start int) trace.Reader {
	return &injectReader{inj: inj, r: r, next: start}
}

type injectReader struct {
	inj  *Injector
	r    trace.Reader
	next int
}

// Next implements trace.Reader.
func (ir *injectReader) Next() (*trace.Packet, error) {
	idx := ir.next
	p, err := ir.r.Next()
	if err != nil {
		return p, err
	}
	ir.next++
	for _, res := range ir.inj.byIndex[idx] {
		p = res.applyPacket(p)
	}
	return p, nil
}

// Progress implements trace.Progresser by delegating to the underlying
// reader.
func (ir *injectReader) Progress() (float64, bool) { return trace.Progress(ir.r) }

// PosState implements trace.Seeker by delegating to the underlying
// reader, so a checkpointed run can stream through an injector.
func (ir *injectReader) PosState() []int64 {
	if sk, ok := ir.r.(trace.Seeker); ok {
		return sk.PosState()
	}
	return nil
}

// SeekTo is not supported on the wrapper: the injector cannot recover
// the packet index from reader state. Seek the underlying reader, then
// re-wrap it with ReaderFrom and the restored start index.
func (ir *injectReader) SeekTo(state []int64) error {
	return fmt.Errorf("faultinject: seek the underlying reader and re-wrap it with ReaderFrom")
}

// applyPacket applies a packet-surface injection, returning the (possibly
// replaced) packet.
func (r *resolved) applyPacket(p *trace.Packet) *trace.Packet {
	n := len(p.Data)
	if n == 0 {
		return p
	}
	switch r.Kind {
	case FlipByte:
		off := r.Arg
		if off < 0 || off >= n {
			off = int(r.salt % uint64(n))
		}
		q := *p
		q.Data = append([]byte(nil), p.Data...)
		q.Data[off] ^= r.mask
		return &q
	case Truncate, ClampLen:
		cut := r.Arg
		if cut < 1 || cut >= n {
			cut = 1 + int(r.salt%uint64(n))
			if cut >= n {
				cut = n - 1
			}
		}
		if cut < 1 {
			return p
		}
		q := *p
		q.Data = p.Data[:cut] // reslice only; no byte is modified
		if r.Kind == ClampLen {
			q.WireLen = cut
		}
		return &q
	}
	return p
}

// executes reports whether k fires inside a packet's execution.
func (k Kind) executes() bool {
	switch k {
	case VMFault, WorkerPanic, Delay, Stall:
		return true
	}
	return false
}

// Exec is an execution-surface injection armed for one packet. It fires
// after exactly After of the packet's instructions have executed, at
// the pc of the next instruction, which has not executed yet.
type Exec struct {
	After uint64
	res   *resolved
}

// Execs returns the execution-surface injections planned for the packet
// at trace index index, in firing order: by After, then in plan order.
func (inj *Injector) Execs(index int) []Exec {
	var armed []Exec
	for _, res := range inj.byIndex[index] {
		if !res.Kind.executes() {
			continue
		}
		after := res.Arg
		if res.Kind == Delay || res.Kind == Stall || after < 0 {
			// A small seeded count keeps the fault inside even short
			// applications' instruction budgets. For Delay/Stall the Arg
			// is the sleep, never the count.
			after = int(res.salt % 16)
		}
		armed = append(armed, Exec{After: uint64(after), res: res})
	}
	slices.SortStableFunc(armed, func(a, b Exec) int { return cmp.Compare(a.After, b.After) })
	return armed
}

// Fire executes the injection with the packet stopped at pc. VMFault
// returns a *vm.Fault at pc and WorkerPanic panics with a plain string.
// Delay and Stall sleep until their time is up or ctx is done, and
// return nil: the packet resumes.
func (e Exec) Fire(ctx context.Context, pc uint32) error {
	res := e.res
	switch res.Kind {
	case VMFault:
		return &vm.Fault{Kind: vm.FaultBadInstr, PC: pc}
	case WorkerPanic:
		panic(fmt.Sprintf("faultinject: injected worker panic at pc %#x", pc))
	}
	d := time.Duration(res.Arg) * time.Millisecond
	if res.Arg < 0 {
		if res.Kind == Delay {
			d = time.Duration(1+res.salt%25) * time.Millisecond
		} else {
			// An unbounded stall: in practice "until the watchdog
			// cancels the run", far past any sane stall timeout.
			d = time.Hour
		}
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-ctx.Done():
	}
	return nil
}

// CheckpointTearFunc returns a core.Checkpointer.TearWrite hook firing
// the plan's CkptTear entries, or nil when the plan holds none. The
// ordinal handed in is matched against the entries' Index.
func (inj *Injector) CheckpointTearFunc() func(ordinal int) bool {
	has := false
	for _, in := range inj.plan {
		if in.Kind == CkptTear {
			has = true
			break
		}
	}
	if !has {
		return nil
	}
	return func(ordinal int) bool {
		for _, res := range inj.byIndex[ordinal] {
			if res.Kind == CkptTear {
				return true
			}
		}
		return false
	}
}

// ParsePlan parses the CLI injection spec: a comma-separated list of
// kind@index entries with optional arguments, e.g.
//
//	flip@3,trunc@7:20,vmfault@11,panic@19,delay@23:5,stall@31,tearckpt@1
//
// Packet-surface kinds are flip, trunc and clamp; the argument after ':'
// is the byte offset or new length (omit it to let the seed choose).
// Execution-surface kinds are vmfault and panic (argument: instruction
// count before firing) and delay and stall (argument: milliseconds to
// sleep). tearckpt@n tears checkpoint write ordinal n.
func ParsePlan(spec string) ([]Injection, error) {
	var plan []Injection
	for _, ent := range strings.Split(spec, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(ent, "@")
		if !ok {
			return nil, fmt.Errorf("faultinject: entry %q: want kind@index", ent)
		}
		var kind Kind
		switch kindStr {
		case "flip":
			kind = FlipByte
		case "trunc":
			kind = Truncate
		case "clamp":
			kind = ClampLen
		case "vmfault":
			kind = VMFault
		case "panic":
			kind = WorkerPanic
		case "delay":
			kind = Delay
		case "stall":
			kind = Stall
		case "tearckpt":
			kind = CkptTear
		default:
			return nil, fmt.Errorf("faultinject: entry %q: unknown kind %q (want flip, trunc, clamp, vmfault, panic, delay, stall or tearckpt)", ent, kindStr)
		}
		maxParts := 2
		if kind == CkptTear {
			maxParts = 1
		}
		parts := strings.Split(rest, ":")
		if len(parts) > maxParts {
			return nil, fmt.Errorf("faultinject: entry %q: too many arguments", ent)
		}
		idx, err := strconv.Atoi(parts[0])
		if err != nil || idx < 0 {
			return nil, fmt.Errorf("faultinject: entry %q: bad packet index %q", ent, parts[0])
		}
		in := Injection{Index: idx, Kind: kind, Arg: -1}
		if len(parts) > 1 && parts[1] != "" {
			if in.Arg, err = strconv.Atoi(parts[1]); err != nil || in.Arg < 0 {
				return nil, fmt.Errorf("faultinject: entry %q: bad argument %q", ent, parts[1])
			}
		}
		plan = append(plan, in)
	}
	if len(plan) == 0 {
		return nil, fmt.Errorf("faultinject: empty injection spec")
	}
	return plan, nil
}
