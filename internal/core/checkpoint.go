package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/stats"
)

// checkpointVersion is bumped whenever the Checkpoint schema changes
// incompatibly; LoadCheckpoint refuses other versions.
const checkpointVersion = 2

// fingerprintRegion is how much of the head of each trace input the
// identity fingerprint hashes. Hashing only the head keeps
// fingerprinting O(1) in trace size; combined with the exact byte size
// it distinguishes any two captures that could plausibly be confused.
const fingerprintRegion = 64 << 10

// TraceID fingerprints one trace input so a checkpoint can refuse to
// resume against the wrong — or a rewritten — capture, where a byte
// offset would silently point into the middle of unrelated records.
type TraceID struct {
	// Size is the exact input size in bytes.
	Size int64 `json:"size"`
	// SHA256 is the hex digest of the first min(Size, 64 KiB) bytes.
	SHA256 string `json:"sha256"`
}

// FingerprintBytes fingerprints an in-memory capture.
func FingerprintBytes(b []byte) TraceID {
	head := b
	if len(head) > fingerprintRegion {
		head = head[:fingerprintRegion]
	}
	sum := sha256.Sum256(head)
	return TraceID{Size: int64(len(b)), SHA256: hex.EncodeToString(sum[:])}
}

// FingerprintFile fingerprints a trace file on disk.
func FingerprintFile(path string) (TraceID, error) {
	f, err := os.Open(path)
	if err != nil {
		return TraceID{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return TraceID{}, err
	}
	h := sha256.New()
	if _, err := io.Copy(h, io.LimitReader(f, fingerprintRegion)); err != nil {
		return TraceID{}, fmt.Errorf("core: fingerprinting %s: %w", path, err)
	}
	return TraceID{Size: st.Size(), SHA256: hex.EncodeToString(h.Sum(nil))}, nil
}

// Checkpoint is the on-disk resume state of a streaming pool run. It is
// written only at committed batch boundaries: every packet below
// NextIndex has been delivered to the caller in trace order, and
// ReaderPos is the reader state from which packet NextIndex is the next
// read — so a resumed run re-reads nothing it committed and loses only
// the work after the last checkpoint, exactly like a crashed database
// replaying from its last durable LSN.
type Checkpoint struct {
	Version int `json:"version"`
	// Trace identifies the input files, one entry per shard in shard
	// order.
	Trace []TraceID `json:"trace,omitempty"`
	// ReaderPos is the trace.Seeker state that resumes the reader at
	// packet NextIndex.
	ReaderPos []int64 `json:"reader_pos"`
	// NextIndex is the first trace index not yet committed.
	NextIndex int `json:"next_index"`
	// Stats is the aggregate over all committed packets.
	Stats stats.RunningState `json:"stats"`
	// ReaderSkipped is how many malformed records the readers had
	// skipped before ReaderPos: a resumed run counts them against its
	// skip budget, and reports and checkpoints them plus its own
	// reader's count.
	ReaderSkipped int `json:"reader_skipped,omitempty"`
}

// LoadCheckpoint reads and validates a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(b, &cp); err != nil {
		return nil, fmt.Errorf("core: checkpoint %s: %w", path, err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("core: checkpoint %s: version %d, want %d", path, cp.Version, checkpointVersion)
	}
	if cp.NextIndex < 0 || len(cp.ReaderPos) == 0 {
		return nil, fmt.Errorf("core: checkpoint %s: malformed resume state", path)
	}
	return &cp, nil
}

// ValidateTrace refuses resume against inputs that do not match the
// fingerprints the checkpoint was written over.
func (c *Checkpoint) ValidateTrace(ids []TraceID) error {
	if len(ids) != len(c.Trace) {
		return fmt.Errorf("core: checkpoint covers %d trace shard(s), run has %d", len(c.Trace), len(ids))
	}
	for i, id := range ids {
		if id != c.Trace[i] {
			return fmt.Errorf("core: trace shard %d does not match the checkpoint (size %d sha256 %.12s…, checkpoint has size %d sha256 %.12s…)",
				i, id.Size, id.SHA256, c.Trace[i].Size, c.Trace[i].SHA256)
		}
	}
	return nil
}

// Checkpointer periodically persists a streaming run's committed state.
// The run's aggregator drives it at batch boundaries; writes are atomic
// (temp file + fsync + rename), so a crash at any instant leaves either
// the previous or the new checkpoint on disk, never a torn one.
type Checkpointer struct {
	path  string
	every int
	agg   *stats.Running

	ids     []TraceID
	skipped func() int

	start     int // resume start index; 0 for a fresh run
	lastIndex int // committed index of the last write attempt
	ordinal   int // 0-based count of write attempts, drives TearWrite
	written   int

	// TearWrite, when non-nil, is consulted with the write ordinal
	// before each commit; returning true makes the checkpointer write a
	// deliberately torn temp file and skip the rename — the chaos
	// harness's simulated crash mid-checkpoint. The previously committed
	// checkpoint must survive it, which is what the atomicity tests
	// assert.
	TearWrite func(ordinal int) bool
}

// NewCheckpointer writes checkpoints to path at most every `every`
// committed packets (minimum 1), snapshotting agg — the same Running the
// run's onResult feeds, so the serialized statistics always describe
// exactly the committed prefix.
func NewCheckpointer(path string, every int, agg *stats.Running) *Checkpointer {
	if every < 1 {
		every = 1
	}
	return &Checkpointer{path: path, every: every, agg: agg}
}

// SetTraceID records the input fingerprints stamped into every
// checkpoint (one per shard, in shard order).
func (c *Checkpointer) SetTraceID(ids []TraceID) { c.ids = ids }

// SetSkippedFunc wires the reader's malformed-record skip counter into
// checkpoints; f must count the skips behind the reader's PosState. The
// pool's producer calls it right after each batch read, on the reader's
// goroutine.
func (c *Checkpointer) SetSkippedFunc(f func() int) { c.skipped = f }

// Restore primes the checkpointer and its aggregate from a loaded
// checkpoint: the next run starts at cp.NextIndex with the committed
// statistics already folded in. The caller must separately seek the
// trace reader to cp.ReaderPos.
func (c *Checkpointer) Restore(cp *Checkpoint) {
	c.agg.SetState(cp.Stats)
	c.start = cp.NextIndex
	c.lastIndex = cp.NextIndex
}

// StartIndex returns the trace index the run starts at (0 for a fresh
// run, the restored NextIndex after Restore).
func (c *Checkpointer) StartIndex() int { return c.start }

// Written returns how many checkpoints were committed by this process.
func (c *Checkpointer) Written() int { return c.written }

// maybeWrite commits a checkpoint if at least `every` packets were
// committed since the last write. next is the first uncommitted index
// and at the reader state that resumes exactly there; the aggregator
// calls it only at batch boundaries where the two agree. wrote reports
// whether a checkpoint was durably committed (false for skipped cadence
// and for injected torn writes).
func (c *Checkpointer) maybeWrite(next int, at resumePoint) (wrote bool, err error) {
	if next-c.lastIndex < c.every {
		return false, nil
	}
	cp := Checkpoint{
		Version:       checkpointVersion,
		Trace:         c.ids,
		ReaderPos:     at.pos,
		NextIndex:     next,
		Stats:         c.agg.State(),
		ReaderSkipped: at.skipped,
	}
	b, err := json.Marshal(&cp)
	if err != nil {
		return false, fmt.Errorf("core: encoding checkpoint: %w", err)
	}
	ord := c.ordinal
	c.ordinal++
	c.lastIndex = next
	tmp := c.path + ".tmp"
	if c.TearWrite != nil && c.TearWrite(ord) {
		// Injected crash: half the bytes, no fsync, no rename. The
		// committed checkpoint at path is untouched.
		_ = os.WriteFile(tmp, b[:len(b)/2], 0o644)
		return false, nil
	}
	if err := writeFileAtomic(c.path, tmp, b); err != nil {
		return false, fmt.Errorf("core: writing checkpoint: %w", err)
	}
	c.written++
	return true, nil
}

// writeFileAtomic writes data to tmp, fsyncs, and renames it over path.
func writeFileAtomic(path, tmp string, data []byte) error {
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
