package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ptrace"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Pool runs one application on several independent simulated cores,
// exploiting "the inherent packet-level parallelism in the networking
// domain" the paper identifies as the basis of NP architectures. Each
// core is a full Bench with its own simulated memory and its own copy of
// the application's tables — the replicated-state regime of real
// network-processor microengines.
//
// Scheduling is a shared work queue, not a fixed round-robin: one
// engine feeds batches of SetBatchSize packets from a trace reader into
// a bounded channel that every core pulls from, so skewed per-packet
// costs never idle a core. RunTrace streams any reader through it;
// RunPackets runs it over an in-memory slice. The first core fault
// cancels the run: the other workers observe a shared stop flag and exit
// at the next packet boundary instead of burning CPU to completion, and
// external cancellation is available through the Context variants.
//
// For per-packet-stateless applications (forwarding, anonymization,
// payload scanning) the records are identical to a single-core run;
// stateful applications (flow classification) accumulate per-core state,
// exactly as they would on hardware without shared memory.
type Pool struct {
	benches []*Bench
	// batchSize is how many packets ride in one streaming job; see
	// SetBatchSize.
	batchSize int
	// busy gauges how many cores are simulating a packet right now;
	// nil (no-op) when telemetry is disabled.
	busy *telemetry.Gauge

	// Crash-only run options (Options.RunDeadline / StallTimeout / Shed).
	deadline     time.Duration
	stallTimeout time.Duration
	shed         ShedPolicy

	// Journey tracing (Options.Trace / FlightPath). trace is nil when
	// disabled; dumped makes the post-mortem dump once-only when a run
	// fails on several paths at once.
	trace      *ptrace.Tracer
	flightPath string
	dumped     atomic.Bool

	// Telemetry handles for the crash-only paths; nil-safe no-ops when
	// telemetry is disabled.
	shedPkts *telemetry.Counter
	stalls   *telemetry.Counter
	ckpts    *telemetry.Counter
}

// poolBatchSize is the default packets-per-job for the streaming
// scheduler: large enough to amortize channel synchronization to noise,
// small enough that the re-sequencing window and a fault's wasted work
// stay bounded.
const poolBatchSize = 64

// NewPool builds a pool of n cores running app. Each core runs the
// application's Init independently. All cores share opts.Metrics, so
// the run counters aggregate across the pool.
func NewPool(app *App, n int, opts Options) (*Pool, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: pool needs at least one core")
	}
	p := &Pool{
		batchSize:    poolBatchSize,
		deadline:     opts.RunDeadline,
		stallTimeout: opts.StallTimeout,
		shed:         opts.Shed,
		trace:        opts.Trace,
		flightPath:   opts.FlightPath,
	}
	for i := 0; i < n; i++ {
		b, err := New(app, opts)
		if err != nil {
			return nil, fmt.Errorf("core: pool core %d: %w", i, err)
		}
		// Each core records into its own tracer lane (New gave every
		// bench lane 0; a tracer built with fewer lanes than cores
		// leaves the extra cores untraced).
		b.lane = opts.Trace.Lane(i)
		p.benches = append(p.benches, b)
	}
	p.busy = opts.Metrics.Gauge(telemetry.MetricPoolWorkersBusy, "Pool cores currently simulating a packet.")
	opts.Metrics.Gauge(telemetry.MetricPoolCores, "Simulated cores in the pool.").Set(int64(n))
	if opts.Shed != ShedBlock {
		p.shedPkts = opts.Metrics.Counter(telemetry.MetricPacketsShed,
			"Packets dropped unprocessed by the overload shed policy.",
			telemetry.L("policy", opts.Shed.String()))
	}
	p.stalls = opts.Metrics.Counter(telemetry.MetricWatchdogStalls,
		"Pool runs cancelled by the progress watchdog.")
	p.ckpts = opts.Metrics.Counter(telemetry.MetricCheckpointsWritten,
		"Run checkpoints committed to disk.")
	return p, nil
}

// Cores returns the number of simulated cores.
func (p *Pool) Cores() int { return len(p.benches) }

// Bench returns core i's bench (for table walks or coverage queries
// after a run).
func (p *Pool) Bench(i int) *Bench { return p.benches[i] }

// SetBatchSize overrides how many packets the streaming scheduler hands
// to a core per job (default 64). Values below 1 are clamped to 1, which
// restores packet-granular scheduling.
func (p *Pool) SetBatchSize(n int) {
	if n < 1 {
		n = 1
	}
	p.batchSize = n
}

// firstFailure retains the worker error with the lowest packet index, so
// concurrent runs report the same failure a sequential run would have hit
// first.
type firstFailure struct {
	mu  sync.Mutex
	idx int
	err error
}

func (f *firstFailure) report(idx int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil || idx < f.idx {
		f.idx, f.err = idx, err
	}
}

func (f *firstFailure) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// flightDump writes the post-mortem flight-recorder dump for a failed
// run: the last ring of stage events per lane plus the failure cause
// (and, for a StallError, the wedged worker and packet). Best-effort
// and once-only — a dump failure never masks runErr.
func (p *Pool) flightDump(runErr error) {
	if p.trace == nil || p.flightPath == "" || runErr == nil || !p.dumped.CompareAndSwap(false, true) {
		return
	}
	info := ptrace.FlightInfo{Cause: runErr.Error(), Worker: -1, Index: -1}
	var se *StallError
	if errors.As(runErr, &se) {
		info.Worker, info.Index = se.Worker, int64(se.Index)
	}
	f, err := os.Create(p.flightPath)
	if err != nil {
		return
	}
	_ = p.trace.WriteFlight(f, info)
	_ = f.Close()
}

// RunPackets processes the packets across the pool's cores concurrently
// and returns one record per packet, in packet order, with Index
// rewritten to the packet's position in pkts. onResult, when non-nil, is
// invoked once per packet in packet order after the run completes. The
// first core error cancels the remaining workers and aborts the run.
func (p *Pool) RunPackets(pkts []*trace.Packet, onResult func(int, Result)) ([]stats.PacketRecord, error) {
	return p.RunPacketsContext(context.Background(), pkts, onResult)
}

// RunPacketsContext is RunPackets under an external context: cancelling
// ctx stops every worker at its next packet boundary and the run returns
// ctx's error. It runs the streaming engine over the slice, so the
// watchdog, run deadline and run-bound tracers apply exactly as they do
// to RunTrace — except shedding: the source is memory, which can always
// wait, so the run never sheds.
func (p *Pool) RunPacketsContext(ctx context.Context, pkts []*trace.Packet, onResult func(int, Result)) ([]stats.PacketRecord, error) {
	records := make([]stats.PacketRecord, len(pkts))
	var results []Result
	if onResult != nil {
		results = make([]Result, len(pkts))
	}
	collect := func(i int, r Result) {
		records[i] = r.Record
		if results != nil {
			results[i] = r
		}
	}
	if _, err := p.runTrace(ctx, trace.NewSliceReader(pkts), 0, collect, nil, ShedBlock); err != nil {
		return nil, err
	}
	for i, r := range results {
		onResult(i, r)
	}
	return records, nil
}

// poolJob is one contiguous run of trace packets handed to a worker by
// the streaming scheduler: packet i of the trace is pkts[i-base].
type poolJob struct {
	base int
	pkts []*trace.Packet
	// at is the resume point of a checkpoint committing at
	// base+len(pkts), captured right after this batch was read. Its pos
	// is nil when the run is not checkpointing.
	at resumePoint
	// readNS and enq carry the batch's journey-tracing context when a
	// tracer is armed: how long the producer's read took and when the
	// batch entered the job queue (tracer-epoch ns). Zero when tracing
	// is off.
	readNS int64
	enq    int64
}

// poolResult carries a job's outcomes to the aggregator: res[k] is the
// result for trace index base+k. On a core fault res holds the batch's
// successful prefix (the fault itself goes to firstFailure directly).
// shed > 0 marks a dropped batch: indexes [base, base+shed) were never
// processed.
type poolResult struct {
	base int
	n    int // intended batch size (len of the job's pkts)
	res  []Result
	shed int
	at   resumePoint
}

// resumePoint is the reader's state right after a batch was read: its
// Seeker position and how many malformed records it had skipped by
// then. The producer reads ahead of the commit, so both are captured
// with the batch rather than read from the reader at commit time.
type resumePoint struct {
	pos     []int64
	skipped int
}

// RunTrace streams packets from the reader through the pool (up to limit
// packets; limit <= 0 means all) without ever materializing the trace in
// memory: a producer feeds a bounded channel of packet batches (read via
// trace.ReadBatch, so batch-native readers fill them in one call),
// workers pull whole batches, and results are re-sequenced so onResult
// observes packets in trace order with Record.Index set to the trace
// position, as Bench.RunPackets reports a slice. Batching
// amortizes channel synchronization over SetBatchSize packets, which is
// what lets ingestion keep 8+ cores fed at line rate. It returns the
// number of packets processed. The first core error cancels the producer
// and the remaining workers.
func (p *Pool) RunTrace(r trace.Reader, limit int, onResult func(int, Result)) (int, error) {
	return p.RunTraceContext(context.Background(), r, limit, onResult)
}

// RunTraceContext is RunTrace under an external context: cancelling ctx
// stops the producer and every worker, and the run returns ctx's error.
func (p *Pool) RunTraceContext(ctx context.Context, r trace.Reader, limit int, onResult func(int, Result)) (int, error) {
	return p.runTrace(ctx, r, limit, onResult, nil, p.shed)
}

// RunTraceCheckpointed is RunTraceContext with crash-safe periodic
// checkpoints: ck captures committed progress (reader position, next
// in-order index, aggregate statistics) at batch boundaries, and a ck
// primed with Checkpointer.Restore makes this run resume where a
// previous one stopped — the caller must already have seeked the reader
// to the checkpoint's position (cmd/packetbench wires both ends).
// onResult and the returned count cover only this process's packets; the
// restored aggregate carries the earlier ones, which is what makes the
// final Summary identical to an uninterrupted run.
func (p *Pool) RunTraceCheckpointed(ctx context.Context, r trace.Reader, limit int, onResult func(int, Result), ck *Checkpointer) (int, error) {
	return p.runTrace(ctx, r, limit, onResult, ck, p.shed)
}

// runTrace is the pool's one run engine, behind RunPacketsContext,
// RunTraceContext and RunTraceCheckpointed. shed is the overload policy
// applied when the job queue is full.
func (p *Pool) runTrace(ctx context.Context, r trace.Reader, limit int, onResult func(int, Result), ck *Checkpointer, shed ShedPolicy) (int, error) {
	deadline := p.deadline
	if deadline > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeout(ctx, deadline)
		defer cancelT()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	start := 0
	var seek trace.Seeker
	if ck != nil {
		start = ck.StartIndex()
		sk, ok := r.(trace.Seeker)
		if !ok || sk.PosState() == nil {
			return 0, fmt.Errorf("core: checkpointing needs a resumable reader, and %T is not one", r)
		}
		seek = sk
	}

	// Hand every core the run context before any packet executes, so
	// an injected stall sleeps on it and cancellation (watchdog,
	// deadline, external) unwedges the worker immediately.
	for _, b := range p.benches {
		b.runCtx = ctx
	}

	var stop atomic.Bool
	// The bounded job queue is what caps memory: a multi-gigabyte trace
	// only ever has backlog batches (plus the in-flight ones) resident
	// at once. It is also the overload signal: a full queue on a
	// streaming source is what triggers the shed policy.
	backlog := 4 * len(p.benches)
	jobs := make(chan poolJob, backlog)
	results := make(chan poolResult, len(p.benches))
	bud := newErrorBudget(p.benches[0].policy.ErrorBudget)
	if ck != nil {
		// The budget spans the whole logical run: quarantines and sheds
		// committed before the crash still count against it.
		bud.preload(int64(ck.agg.Faulted() + ck.agg.Shed()))
	}
	var fail firstFailure

	// Producer state. readErr is published before jobs is closed and
	// read after the results channel drains, so it needs no lock; all
	// the closures below run on the producer goroutine only.
	var readErr error
	abortRun := func(err error) {
		readErr = err
		stop.Store(true)
		cancel()
	}

	// shedBatch drops a whole batch under the shed policy: the drop is
	// charged to the shared error budget (shedding is a degradation,
	// like quarantine, and must be bounded by the same knob) and the
	// aggregator is notified so the dropped indexes still commit in
	// order. Returns false when the run must abort. Sending on results
	// here is safe: results closes only after the workers exit, which
	// requires jobs to close, which requires this producer to return.
	shedBatch := func(j poolJob) bool {
		if !bud.takeN(len(j.pkts)) {
			abortRun(fmt.Errorf("core: error budget of %d exhausted: shedding %d packets at index %d",
				p.benches[0].policy.ErrorBudget, len(j.pkts), j.base))
			return false
		}
		p.shedPkts.Add(uint64(len(j.pkts)))
		p.trace.Producer().Shed(int64(j.base), len(j.pkts))
		select {
		case results <- poolResult{base: j.base, n: len(j.pkts), shed: len(j.pkts), at: j.at}:
			return true
		case <-ctx.Done():
			return false
		}
	}

	// offerJob enqueues a batch, applying the shed policy when the
	// backlog is full. Returns false when the run is over.
	offerJob := func(j poolJob) bool {
		if shed == ShedBlock {
			select {
			case jobs <- j:
				return true
			case <-ctx.Done():
				return false
			}
		}
		for {
			select {
			case jobs <- j:
				return true
			case <-ctx.Done():
				return false
			default:
			}
			if shed == ShedDropNewest {
				// The arriving batch is the victim; shedding counts as
				// handling it, so the producer advances past it.
				return shedBatch(j)
			}
			// DropOldest: evict a queued batch to make room. A worker can
			// win the race and empty the queue first; then the send above
			// is retried.
			select {
			case old := <-jobs:
				if !shedBatch(old) {
					return false
				}
			default:
			}
		}
	}

	// Producer: read the trace in batches until EOF, the limit, an
	// error, or cancellation. A fresh slice is allocated per job — the
	// batch is owned by the worker from the moment it is sent.
	go func() {
		defer close(jobs)
		// With a tracer armed the producer reads through a timing
		// wrapper: every batch read lands in the producer lane's ring,
		// and its duration rides on the job so workers can prepend the
		// read span to each packet journey of the batch.
		rd := r
		var lastReadNS, curBase int64
		if t := p.trace; t != nil {
			prod := t.Producer()
			rd = trace.NewTimedReader(r, t.Now, func(n int, startNS, durNS int64) {
				lastReadNS = durNS
				prod.Read(curBase, n, startNS, durNS)
			})
		}
		for base := start; limit <= 0 || base < limit; {
			if stop.Load() {
				return
			}
			size := p.batchSize
			if limit > 0 && limit-base < size {
				size = limit - base
			}
			dst := make([]*trace.Packet, size)
			curBase = int64(base)
			n, err := trace.ReadBatch(rd, dst)
			if n > 0 {
				j := poolJob{base: base, pkts: dst[:n]}
				if p.trace != nil {
					j.readNS, j.enq = lastReadNS, p.trace.Now()
				}
				if seek != nil {
					j.at.pos = seek.PosState()
					if ck.skipped != nil {
						j.at.skipped = ck.skipped()
					}
				}
				if !offerJob(j) {
					return
				}
				base += n
			}
			if err == io.EOF {
				return
			}
			if err != nil {
				// Any read error ends the run, as trace.ReadAll does on
				// one core: a reader told to skip malformed records
				// (SetSkipMalformed) has already skipped what its
				// budget allows.
				readErr = err
				return
			}
		}
	}()

	// Watchdog: fires once when a worker stays inside one packet past
	// the stall timeout, then cancels the run with a typed StallError.
	// dead is the abandon signal: the wedged worker may never return, so
	// everything that could otherwise wait on it forever — result sends,
	// the aggregator — escapes on dead instead, and the run returns the
	// StallError rather than hanging. (Cooperative stalls — the injected
	// kind listening on the run context — unwedge on the cancel and shut
	// down cleanly; dead is the guarantee for the non-cooperative ones
	// Go cannot interrupt.)
	var wd *watchdog
	watchDone := make(chan struct{})
	dead := make(chan struct{})
	if p.stallTimeout > 0 {
		wd = newWatchdog(len(p.benches), p.stallTimeout)
		go wd.run(watchDone, func(worker, idx int, stalled time.Duration) {
			p.stalls.Inc()
			fail.report(idx, &StallError{Worker: worker, Index: idx, Stalled: stalled})
			stop.Store(true)
			cancel()
			close(dead)
		})
	}

	// Workers: pull batches until the queue closes. After a fault (or
	// external cancellation) they keep draining the queue without
	// simulating, so the producer can never deadlock on a full channel;
	// a stop observed mid-batch abandons the batch's remainder the same
	// way.
	var wg sync.WaitGroup
	for c, b := range p.benches {
		wg.Add(1)
		go func(c int, b *Bench) {
			defer wg.Done()
			for j := range jobs {
				if stop.Load() {
					continue
				}
				if b.lane != nil && j.enq != 0 {
					b.lane.BatchStart(int64(j.base), len(j.pkts), j.readNS, p.trace.Now()-j.enq)
				}
				out := poolResult{base: j.base, n: len(j.pkts), at: j.at, res: make([]Result, 0, len(j.pkts))}
				for k, pkt := range j.pkts {
					if stop.Load() {
						break
					}
					if wd != nil {
						wd.begin(c, j.base+k)
					}
					p.busy.Inc()
					res, err := b.processUnderPolicy(j.base+k, pkt, bud)
					p.busy.Dec()
					if wd != nil {
						wd.end(c)
					}
					if err != nil {
						fail.report(j.base+k, fmt.Errorf("core %d: %w", c, err))
						stop.Store(true)
						cancel()
						break
					}
					res.Record.Index = j.base + k
					out.res = append(out.res, res)
				}
				if len(out.res) > 0 {
					select {
					case results <- out:
					case <-dead:
					}
				}
			}
		}(c, b)
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Propagate external cancellation to the stop flag the workers and
	// producer poll.
	cancelDone := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			stop.Store(true)
		case <-cancelDone:
		}
	}()

	// Aggregator (caller's goroutine): re-sequence out-of-order batches
	// so onResult fires in strict trace order. The pending map is bounded
	// by the job backlog plus in-flight batches. A faulted batch still
	// contributes its successful prefix; a shed batch commits as a run of
	// Shed-marked results, keeping the exactly-once index contract.
	// Checkpoints are taken only when the in-order cursor reaches the end
	// of a fully-committed batch, because that is the only point where
	// "every packet below next is committed" and "the reader state
	// resumes at next" are simultaneously true.
	processed := 0
	next := start
	track := onResult != nil || ck != nil
	pending := make(map[int]Result)
	var shedAt map[int]int
	var posAt map[int]resumePoint
	if ck != nil {
		posAt = make(map[int]resumePoint)
	}
	var ckErr error
aggregate:
	for {
		var pr poolResult
		var ok bool
		select {
		case pr, ok = <-results:
			if !ok {
				break aggregate
			}
		case <-dead:
			// A wedged worker will never finish its batch; abandon
			// re-sequencing and let the run return the StallError.
			break aggregate
		}
		processed += len(pr.res)
		if posAt != nil && pr.at.pos != nil && (pr.shed > 0 || len(pr.res) == pr.n) {
			// Only a complete batch's end is a valid resume point; a
			// partial batch (fault, stop) never registers one.
			posAt[pr.base+pr.n] = pr.at
		}
		if !track {
			continue
		}
		if pr.shed > 0 {
			if shedAt == nil {
				shedAt = make(map[int]int)
			}
			shedAt[pr.base] = pr.shed
		}
		for k, res := range pr.res {
			pending[pr.base+k] = res
		}
		for {
			if n, ok := shedAt[next]; ok {
				delete(shedAt, next)
				for end := next + n; next < end; next++ {
					if onResult != nil {
						onResult(next, Result{Shed: true, Record: stats.PacketRecord{Index: next}})
					}
				}
			} else if res, ok := pending[next]; ok {
				delete(pending, next)
				if onResult != nil {
					onResult(next, res)
				}
				next++
			} else {
				break
			}
			if posAt != nil && ckErr == nil {
				if at, ok := posAt[next]; ok {
					delete(posAt, next)
					ckStart := p.trace.Now()
					wrote, err := ck.maybeWrite(next, at)
					if err != nil {
						ckErr = err
						fail.report(next, err)
						stop.Store(true)
						cancel()
					} else if wrote {
						p.ckpts.Inc()
						p.trace.Committer().Checkpoint(int64(next), ckStart, p.trace.Now()-ckStart)
					}
				}
			}
		}
	}
	close(cancelDone)
	close(watchDone)

	if err := fail.get(); err != nil {
		p.flightDump(err)
		return processed, err
	}
	if readErr != nil {
		p.flightDump(readErr)
		return processed, readErr
	}
	if err := ctx.Err(); err != nil {
		if deadline > 0 && errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("core: run deadline %v exceeded: %w", deadline, err)
		}
		p.flightDump(err)
		return processed, err
	}
	return processed, nil
}
