package report

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/stats"
)

// runKey names one shared simulation: an application over a trace under
// default core.Options.
type runKey struct{ app, trace string }

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
// first FigurePackets of them. A run is never mutated once cached, so
// views of it may be read concurrently.
type sharedRun struct {
	scalars   []packetScalars
	head      []stats.PacketRecord
	numBlocks int
	// err is why the run stopped after len(scalars) packets, if it did.
	err error
}

// prefix is the view of the first n packets of r.
func (r *sharedRun) prefix(n int) *sharedRun {
	return &sharedRun{
		scalars:   r.scalars[:n],
		head:      r.head[:min(n, len(r.head))],
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
}

// shared returns the first n packets of appName over traceName under
// default options. A request no longer than the cached run reads its
// prefix; a longer one simulates afresh and replaces it. Runs are
// deterministic, so a prefix equals a fresh run of that length, even for
// the stateful Flow Classification. A run that failed at packet k serves
// the k packets before it and answers longer requests with its error.
func (e *Env) shared(appName, traceName string, n int) (*sharedRun, error) {
	n = min(n, len(e.traces[traceName]))
	k := runKey{appName, traceName}
	e.runs.mu.Lock()
	ent := e.runs.entries[k]
	if ent == nil {
		ent = &cacheEntry{}
		e.runs.entries[k] = ent
	}
	e.runs.mu.Unlock()

	ent.mu.Lock()
	defer ent.mu.Unlock()
	if r := ent.run; r == nil || (len(r.scalars) < n && r.err == nil) {
		ent.run = e.simulate(k, n)
	}
	r := ent.run
	if len(r.scalars) < n {
		return nil, r.err
	}
	return r.prefix(n), nil
}

// simulate runs one cell packet by packet on a single bench, so a long
// run holds one packet's record at a time rather than the whole slice.
// Packet indexes are the trace's, as in a RunPackets call over the same
// prefix.
func (e *Env) simulate(k runKey, n int) *sharedRun {
	b, err := core.New(e.app(k.app), core.Options{})
	if err != nil {
		return &sharedRun{err: err}
	}
	r := &sharedRun{
		scalars:   make([]packetScalars, 0, n),
		head:      make([]stats.PacketRecord, 0, min(n, e.cfg.FigurePackets)),
		numBlocks: b.BlockMap().NumBlocks(),
	}
	for i, p := range e.Trace(k.trace, n) {
		res, err := b.ProcessPacketAt(i, p)
		if err != nil {
			r.err = err
			break
		}
		rec := &res.Record
		r.scalars = append(r.scalars, packetScalars{
			instructions: uint32(rec.Instructions),
			unique:       uint32(rec.Unique),
			packetAcc:    uint32(rec.PacketAccesses()),
			nonPacketAcc: uint32(rec.NonPacketAccesses()),
		})
		if len(r.head) < cap(r.head) {
			r.head = append(r.head, *rec)
		}
	}
	return r
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
