package trace

import (
	"fmt"
	"io"
)

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

// PosState implements Seeker: one element, the byte offset of the next
// unread record. An in-memory capture is always resumable; a stream is
// only when its source is an io.Seeker (a file), and PosState returns nil
// for an unseekable one (a network stream), marking the reader
// non-resumable.
func (p *PcapReader) PosState() []int64 { return posState(p) }

func (p *PcapReader) pos() (int64, bool) {
	if p.r != nil {
		if _, ok := p.src.(io.Seeker); !ok {
			return 0, false
		}
	}
	return p.off, true
}

// SeekTo implements Seeker: a stream's source is repositioned and its
// read buffer discarded, so the next record read starts exactly at the
// checkpointed boundary.
func (p *PcapReader) SeekTo(state []int64) error {
	if len(state) != 1 || state[0] < pcapHeaderLen || (p.r == nil && state[0] > int64(len(p.mem))) {
		return fmt.Errorf("trace: bad pcap seek state %v", state)
	}
	if p.r != nil {
		sk, ok := p.src.(io.Seeker)
		if !ok {
			return fmt.Errorf("trace: pcap source %T is not seekable", p.src)
		}
		if _, err := sk.Seek(state[0], io.SeekStart); err != nil {
			return fmt.Errorf("trace: seeking pcap source: %w", err)
		}
		p.r.Reset(p.src)
	}
	p.off = state[0]
	return nil
}

// PosState implements Seeker when the underlying source is seekable.
func (t *TSHReader) PosState() []int64 { return posState(t) }

func (t *TSHReader) pos() (int64, bool) {
	_, ok := t.r.(io.Seeker)
	return t.off, ok
}

// SeekTo implements Seeker.
func (t *TSHReader) SeekTo(state []int64) error {
	sk, ok := t.r.(io.Seeker)
	if !ok {
		return fmt.Errorf("trace: TSH source %T is not seekable", t.r)
	}
	if len(state) != 1 || state[0] < 0 {
		return fmt.Errorf("trace: bad TSH seek state %v", state)
	}
	if _, err := sk.Seek(state[0], io.SeekStart); err != nil {
		return fmt.Errorf("trace: seeking TSH source: %w", err)
	}
	t.off = state[0]
	return nil
}
