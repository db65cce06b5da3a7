package report

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/microarch"
	"repro/internal/stats"
)

// runKey names one shared simulation: an application over a trace under
// default core.Options, with a microarch.Profiler over its first profile
// packets (0: none), which is part of the run's output.
type runKey struct {
	app, trace string
	profile    int
}

// packetScalars is what the run cache keeps of one packet record. The
// default step limit (10M instructions per packet) bounds every count,
// so 32 bits hold each.
type packetScalars struct {
	instructions, unique, packetAcc, nonPacketAcc uint32
}

// record rebuilds the parts of the packet record that Summarize reads.
func (s packetScalars) record() stats.PacketRecord {
	return stats.PacketRecord{
		Instructions:   uint64(s.instructions),
		Unique:         int(s.unique),
		PacketReads:    uint64(s.packetAcc),
		NonPacketReads: uint64(s.nonPacketAcc),
	}
}

// sharedRun is what the run cache keeps of one simulation: scalars for
// every completed packet, and full records (block sets included) for the
// first FigurePackets of them. The cached run only ever grows at its
// end, and views of it are fixed-length prefixes, so a view's packets
// never change and may be read while the run is extended.
type sharedRun struct {
	scalars   []packetScalars
	head      []stats.PacketRecord
	numBlocks int
	// err is why the run stopped after len(scalars) packets, if it did.
	err error
}

// prefix is the view of the first n packets of r. Its slices are
// capped, so nothing appended to the run can reach them.
func (r *sharedRun) prefix(n int) *sharedRun {
	h := min(n, len(r.head))
	return &sharedRun{
		scalars:   r.scalars[:n:n],
		head:      r.head[:h:h],
		numBlocks: r.numBlocks,
	}
}

// summary is stats.Summarize over the run's records.
func (r *sharedRun) summary() stats.Summary {
	var a stats.Running
	for _, s := range r.scalars {
		rec := s.record()
		a.Add(&rec)
	}
	return a.Summary()
}

// runCache holds the longest run so far per key. Each entry has its own
// lock, held while it simulates, so concurrent requests for one key
// simulate once and requests for different keys run in parallel.
type runCache struct {
	mu      sync.Mutex
	entries map[runKey]*cacheEntry
}

type cacheEntry struct {
	mu  sync.Mutex
	run *sharedRun
	// bench is the live bench of the run, past its last packet, or nil
	// before the first request, after a failure and once the run covers
	// its whole trace.
	bench *core.Bench
	// prof profiles the run; row is its profile once the run is long
	// enough, and prof observes the rest of the run unread.
	prof *microarch.Profiler
	row  MicroarchRow
}

// shared returns the first n packets of appName over traceName. MRA runs
// carry the profiler over TablePackets, so Microarch reads them too.
func (e *Env) shared(appName, traceName string, n int) (*sharedRun, error) {
	k := runKey{appName, traceName, 0}
	if traceName == "MRA" {
		k.profile = e.cfg.TablePackets
	}
	r, _, err := e.cached(k, n)
	return r, err
}

// cached returns the first n packets of k's run, and its profile once
// it has one. A request no longer than the cached run reads its prefix;
// a longer one continues the cached run's bench from its next packet.
// Runs are deterministic, so a prefix, and an extension, equals a fresh
// run of that length, even for the stateful Flow Classification. A run
// that failed at packet k serves the k packets before it and answers
// longer requests with its error.
func (e *Env) cached(k runKey, n int) (*sharedRun, MicroarchRow, error) {
	n = min(n, len(e.traces[k.trace]))
	e.runs.mu.Lock()
	ent := e.runs.entries[k]
	if ent == nil {
		ent = &cacheEntry{run: &sharedRun{}}
		e.runs.entries[k] = ent
	}
	e.runs.mu.Unlock()

	ent.mu.Lock()
	defer ent.mu.Unlock()
	r := ent.run
	if len(r.scalars) < n && r.err == nil {
		e.extend(ent, k, n)
	}
	if len(r.scalars) < n {
		return nil, MicroarchRow{}, r.err
	}
	return r.prefix(n), ent.row, nil
}

// extend simulates packets len(scalars)..n-1 of the entry's run packet
// by packet on its bench, loading the bench on the first request, so a
// long run holds one packet's record at a time rather than the whole
// slice. Packet indexes are the trace's, as in a RunPackets call over
// the same prefix. A profiled run keeps its row the moment it is
// min(profile, len(trace)) packets long. The caller holds ent.mu.
func (e *Env) extend(ent *cacheEntry, k runKey, n int) {
	r := ent.run
	if ent.bench == nil {
		b, err := core.New(e.app(k.app), core.Options{})
		if err != nil {
			r.err = err
			return
		}
		if k.profile > 0 {
			ic, _ := microarch.NewCache(4096, 16, 2) // valid geometries
			dc, _ := microarch.NewCache(8192, 16, 2)
			ent.prof = microarch.NewProfiler(ic, dc)
			b.AddTracer(ent.prof)
		}
		ent.bench = b
		r.numBlocks = b.BlockMap().NumBlocks()
	}
	profiled := min(k.profile, len(e.traces[k.trace]))
	r.scalars = slices.Grow(r.scalars, n-len(r.scalars))
	pkts := e.Trace(k.trace, n)
	for i := len(r.scalars); i < n; i++ {
		// Only the head's records are kept whole, so only they gather
		// their block sets.
		ent.bench.Collector().BlockSets = len(r.head) < e.cfg.FigurePackets
		res, err := ent.bench.ProcessPacketAt(i, pkts[i])
		if err != nil {
			r.err = err
			ent.bench = nil
			return
		}
		rec := &res.Record
		r.scalars = append(r.scalars, packetScalars{
			instructions: uint32(rec.Instructions),
			unique:       uint32(rec.Unique),
			packetAcc:    uint32(rec.PacketAccesses()),
			nonPacketAcc: uint32(rec.NonPacketAccesses()),
		})
		if len(r.head) < e.cfg.FigurePackets {
			r.head = append(r.head, *rec)
		}
		if len(r.scalars) == profiled {
			ent.prof.Flush()
			ent.row = microarchRow(k.app, ent.prof)
		}
	}
	if n == len(e.traces[k.trace]) {
		ent.bench = nil // nothing is left to extend it with
	}
}

// forCells runs cell(0..n-1) across GOMAXPROCS goroutines. Each cell
// writes only its own result slot, so results do not depend on the
// schedule; nor does the error, which is the lowest-numbered cell's.
func forCells(n int, cell func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(n, runtime.GOMAXPROCS(0)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = cell(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
