package trace

import "fmt"

// Seeker is implemented by readers whose position can be captured and
// later restored — the substrate of run checkpointing. PosState returns
// the reader's resumable position: single-stream readers return one
// element (a byte offset for the file formats, a packet index for
// SliceReader — the same unit as Positioned.Pos), and MergeReader
// returns one element per shard. A nil PosState means the reader cannot
// be resumed (an unseekable source); callers must check it before
// promising resumability.
//
// SeekTo repositions the reader to a state previously returned by
// PosState on an equivalent reader over the same input, after which the
// reader yields exactly the packets it would have yielded from that
// point. States are only meaningful against the same input bytes —
// checkpoints pair them with a content fingerprint for that reason.
type Seeker interface {
	PosState() []int64
	SeekTo(state []int64) error
}

// positioner is a single-stream Seeker whose position reads without
// allocating: pos returns PosState's one element, or false where
// PosState is nil.
type positioner interface {
	pos() (int64, bool)
}

// position returns r's single-stream resumable position, through pos
// where r has it.
func position(r Reader) (int64, bool) {
	switch s := r.(type) {
	case positioner:
		return s.pos()
	case Seeker:
		if st := s.PosState(); len(st) == 1 {
			return st[0], true
		}
	}
	return 0, false
}

// posState is PosState for a positioner.
func posState(p positioner) []int64 {
	if v, ok := p.pos(); ok {
		return []int64{v}
	}
	return nil
}

// Progresser is implemented by readers that can report their completed
// fraction directly. Progress prefers it over the Positioned-derived
// ratio; MergeReader uses it to report progress even when only some
// shards know their size.
type Progresser interface {
	// Progress returns the completed fraction in [0, 1] and whether it
	// is known.
	Progress() (float64, bool)
}

// PosState implements Seeker; the unit is packets.
func (s *SliceReader) PosState() []int64 { return posState(s) }

func (s *SliceReader) pos() (int64, bool) { return int64(s.next), true }

// SeekTo implements Seeker.
func (s *SliceReader) SeekTo(state []int64) error {
	if len(state) != 1 || state[0] < 0 || state[0] > int64(len(s.pkts)) {
		return fmt.Errorf("trace: bad slice seek state %v for %d packets", state, len(s.pkts))
	}
	s.next = int(state[0])
	return nil
}
