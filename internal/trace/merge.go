package trace

import (
	"fmt"
	"io"
)

// MergeReader merges several trace readers into one stream ordered by
// capture timestamp, so a trace sharded across files (tracegen -shards,
// or per-interface captures) replays as a single time-ordered sequence.
//
// Ordering: the head packets of all shards are compared by (Sec, Usec);
// ties go to the lower shard index, which keeps merges deterministic.
// Shards are assumed internally time-ordered — the merge never reorders
// within a shard, it only interleaves across them (a k-way merge, not a
// sort).
//
// Errors are fail-fast in shard-arrival order: a shard's error surfaces
// on the Next call after its preceding packets have been yielded, and the
// failing shard is then dropped so a subsequent Next continues with the
// remaining shards. To tolerate malformed records, enable skip-and-resync
// on the underlying readers before merging.
type MergeReader struct {
	shards []Reader
	heads  []*Packet // nil = needs refill or drained
	errs   []error   // pending error per shard, surfaced once
	done   []bool
	primed bool

	// posBefore[i] is shard i's Seeker state captured just before its
	// buffered head was read. A merge sits one packet ahead of the caller
	// on every shard, so the resumable position of a shard with a pending
	// head is the offset that re-reads that head — not the shard's
	// current position. skipBefore[i] is shard i's Skipped count at the
	// same moment, so Skipped can report the skips behind PosState.
	posBefore  []int64
	skipBefore []int
}

// NewMergeReader merges the given readers. With a single reader the
// merge is a transparent pass-through (plus Positioned aggregation).
func NewMergeReader(shards ...Reader) *MergeReader {
	return &MergeReader{
		shards:     shards,
		heads:      make([]*Packet, len(shards)),
		errs:       make([]error, len(shards)),
		done:       make([]bool, len(shards)),
		posBefore:  make([]int64, len(shards)),
		skipBefore: make([]int, len(shards)),
	}
}

// refill pulls the next packet from shard i into heads, recording EOF or
// a pending error.
func (m *MergeReader) refill(i int) {
	if pos, ok := position(m.shards[i]); ok {
		m.posBefore[i] = pos
	}
	m.skipBefore[i] = Skipped(m.shards[i])
	p, err := m.shards[i].Next()
	switch {
	case err == io.EOF:
		m.done[i] = true
	case err != nil:
		m.done[i] = true
		m.errs[i] = err
	default:
		m.heads[i] = p
	}
}

// Next implements Reader: the earliest-timestamped head across all
// shards, io.EOF once every shard is drained.
func (m *MergeReader) Next() (*Packet, error) {
	if !m.primed {
		m.primed = true
		for i := range m.shards {
			m.refill(i)
		}
	}
	for i, err := range m.errs {
		if err != nil {
			m.errs[i] = nil
			return nil, err
		}
	}
	best := -1
	for i, p := range m.heads {
		if p == nil {
			continue
		}
		if best < 0 || earlier(p, m.heads[best]) {
			best = i
		}
	}
	if best < 0 {
		return nil, io.EOF
	}
	p := m.heads[best]
	m.heads[best] = nil
	if !m.done[best] {
		m.refill(best)
	}
	return p, nil
}

// earlier reports whether a's timestamp strictly precedes b's. Ties are
// not "earlier", so the linear scan keeps the lowest shard index on equal
// timestamps.
func earlier(a, b *Packet) bool {
	if a.Sec != b.Sec {
		return a.Sec < b.Sec
	}
	return a.Usec < b.Usec
}

// Pos implements Positioned: the sum of all shard positions. Shards that
// do not report positions contribute zero.
func (m *MergeReader) Pos() int64 {
	var sum int64
	for _, s := range m.shards {
		if p, ok := s.(Positioned); ok {
			sum += p.Pos()
		}
	}
	return sum
}

// Total implements Positioned: the sum of shard totals, or 0 (unknown)
// unless every shard knows its total.
func (m *MergeReader) Total() int64 {
	var sum int64
	for _, s := range m.shards {
		p, ok := s.(Positioned)
		if !ok {
			return 0
		}
		t := p.Total()
		if t <= 0 {
			return 0
		}
		sum += t
	}
	return sum
}

// Progress implements Progresser: the completed fraction over the
// shards that know their size. Unlike Total (which reports unknown
// unless every shard knows its size), a partial fraction is still a
// useful progress signal for sharded replay, so shards with unknown
// totals are simply left out of the ratio.
func (m *MergeReader) Progress() (float64, bool) {
	var pos, total int64
	for _, s := range m.shards {
		p, ok := s.(Positioned)
		if !ok {
			continue
		}
		t := p.Total()
		if t <= 0 {
			continue
		}
		total += t
		pp := p.Pos()
		if pp > t {
			pp = t
		}
		pos += pp
	}
	if total == 0 {
		return 0, false
	}
	return float64(pos) / float64(total), true
}

// PosState implements Seeker: one element per shard, in shard order. It
// returns nil unless every shard is itself single-stream seekable
// (nested merges are not resumable).
func (m *MergeReader) PosState() []int64 {
	out := make([]int64, len(m.shards))
	for i, s := range m.shards {
		pos, ok := position(s)
		if !ok {
			return nil
		}
		if m.heads[i] != nil {
			pos = m.posBefore[i]
		}
		out[i] = pos
	}
	return out
}

// SeekTo implements Seeker: every shard is repositioned and the merge's
// head buffers discarded, so the next Next re-primes from the
// checkpointed per-shard offsets.
func (m *MergeReader) SeekTo(state []int64) error {
	if len(state) != len(m.shards) {
		return fmt.Errorf("trace: merge seek state has %d positions for %d shards", len(state), len(m.shards))
	}
	for i, s := range m.shards {
		sk, ok := s.(Seeker)
		if !ok {
			return fmt.Errorf("trace: merge shard %d (%T) is not seekable", i, s)
		}
		if err := sk.SeekTo(state[i : i+1]); err != nil {
			return fmt.Errorf("trace: merge shard %d: %w", i, err)
		}
		m.heads[i] = nil
		m.errs[i] = nil
		m.done[i] = false
		m.posBefore[i] = state[i]
	}
	m.primed = false
	return nil
}

// Skipped sums the skip counts of shards that track them, taken at the
// positions PosState reports: a shard with a buffered head counts only
// the records skipped before that head was read. A run resumed from
// PosState re-reads, and skips again, exactly the records left out.
func (m *MergeReader) Skipped() int {
	n := 0
	for i, s := range m.shards {
		if m.heads[i] != nil {
			n += m.skipBefore[i]
		} else {
			n += Skipped(s)
		}
	}
	return n
}

// Close closes every shard that is an io.Closer, returning the first
// error. Useful when merging FileReaders from OpenPcap.
func (m *MergeReader) Close() error {
	var first error
	for _, s := range m.shards {
		if c, ok := s.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
