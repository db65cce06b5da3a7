package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// source is the one byte source both file formats decode from: a
// pcapBufSize buffer over the input, the unbuffered input kept so SeekTo
// can reposition it, the bytes consumed so far and the input size.
// PcapReader and TSHReader embed it, so position, progress and seek
// state are defined once for both.
type source struct {
	r     *bufio.Reader
	src   io.Reader
	name  string // format name in seek errors
	start int64  // offset of the first record: the file header's length
	off   int64  // bytes consumed so far
	total int64  // input size in bytes; 0 when unknown
}

// newSource returns a source over r, which is positioned at the first
// record, start bytes into the input.
func newSource(r io.Reader, name string, start int64) source {
	return source{r: bufio.NewReaderSize(r, pcapBufSize), src: r, name: name, start: start, off: start}
}

// Pos implements Positioned: the number of input bytes consumed,
// including the file header, skipped bytes, and the partial bytes of a
// truncated trailing record.
func (s *source) Pos() int64 { return s.off }

// SetTotal records the input size in bytes (for example from the file's
// stat), enabling progress reporting through Total.
func (s *source) SetTotal(n int64) { s.total = n }

// Total implements Positioned; 0 means unknown.
func (s *source) Total() int64 { return s.total }

// peek returns the next n <= pcapBufSize bytes without consuming them. A
// shorter result means the input ended (io.EOF) or the stream failed.
// The bytes stay valid until the next read: advance only moves past
// them.
func (s *source) peek(n int) ([]byte, error) { return s.r.Peek(n) }

// advance consumes n bytes that peek returned.
func (s *source) advance(n int) {
	s.r.Discard(n) // cannot fail: peek already buffered the n bytes
	s.off += int64(n)
}

// PosState implements Seeker: one element, the byte offset of the next
// unread record. It is nil when the input is not an io.Seeker (a network
// stream), marking the reader non-resumable.
func (s *source) PosState() []int64 { return posState(s) }

func (s *source) pos() (int64, bool) {
	_, ok := s.src.(io.Seeker)
	return s.off, ok
}

// SeekTo implements Seeker: the input is repositioned and the read
// buffer discarded, so the next record read starts exactly at the
// checkpointed boundary.
func (s *source) SeekTo(state []int64) error {
	if len(state) != 1 || state[0] < s.start {
		return fmt.Errorf("trace: bad %s seek state %v", s.name, state)
	}
	sk, ok := s.src.(io.Seeker)
	if !ok {
		return fmt.Errorf("trace: %s source %T is not seekable", s.name, s.src)
	}
	if _, err := sk.Seek(state[0], io.SeekStart); err != nil {
		return fmt.Errorf("trace: seeking %s source: %w", s.name, err)
	}
	s.r.Reset(s.src)
	s.off = state[0]
	return nil
}

// FileReader is the interface OpenPcap returns: a position-reporting
// pcap reader over a file, with the skip-and-resync controls. Close
// releases the file; packets read before it stay valid.
type FileReader interface {
	Reader
	Positioned
	io.Closer
	// SetSkipMalformed switches from fail-fast to skip-and-resync.
	SetSkipMalformed(b *SkipBudget)
	// Skipped returns how many malformed records were skipped so far.
	Skipped() int
	// LinkType returns the capture's link type.
	LinkType() uint32
}

// filePcapReader is a PcapReader that owns its file.
type filePcapReader struct {
	*PcapReader
	io.Closer
}

// OpenPcap opens a pcap trace file for reading through the buffered
// source, with Total set to the file's size. Its packets and their
// bodies are cut from chunks the reader allocates and never reuses, so
// they stay valid after Close, and a preload allocates per chunk, not
// per packet.
func OpenPcap(path string) (FileReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	r, err := NewPcapReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.SetTotal(st.Size())
	return filePcapReader{r, f}, nil
}

// Deprecated: OpenPcapBuffered is OpenPcap.
func OpenPcapBuffered(path string) (FileReader, error) { return OpenPcap(path) }
