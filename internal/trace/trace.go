// Package trace reads and writes the packet trace formats PacketBench
// supports: the tcpdump/libpcap capture format and the NLANR PMA "Time
// Sequenced Headers" (TSH) format, the same two formats the paper's tool
// consumes.
//
// Packets are exposed to the rest of the system from the layer-3 (IPv4)
// header onward, which is the view the PacketBench application API
// provides. Link-layer framing in pcap files (Ethernet) is stripped by the
// reader; TSH records are header-only by construction.
package trace

import (
	"errors"
	"fmt"
	"io"
)

// Packet is one captured packet as handed to applications: layer-3 bytes
// plus capture metadata.
type Packet struct {
	// Sec and Usec are the capture timestamp.
	Sec  uint32
	Usec uint32
	// Data holds the packet from the first byte of the IPv4 header. It may
	// be shorter than the original packet for header-only captures.
	Data []byte
	// WireLen is the length of the packet on the wire (>= len(Data)).
	WireLen int
}

// Chunk sizes for Carve: packet bodies and Packet structs are cut from
// chunks of these sizes, so a reader allocates once per chunk, not once
// per packet.
const (
	bodyChunk   = 256 << 10 // bytes
	packetChunk = 1024      // Packets
)

// Carve cuts n elements from the front of *slab, first replacing *slab
// with a fresh chunk of max(n, chunk) elements when it holds fewer than
// n. The result's capacity is its length, so an append to it copies
// rather than overwriting the next cut, and a chunk is never reused: a
// cut stays valid, and keeps its chunk alive, for as long as it is
// referenced.
func Carve[T any](slab *[]T, n, chunk int) []T {
	if n > len(*slab) {
		*slab = make([]T, max(n, chunk))
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// slabs is a reader's carving state: the unused tails of the chunks its
// packet bodies and Packet structs are cut from.
type slabs struct {
	bodies []byte
	pkts   []Packet
}

// packet returns a copy of p cut from the Packet chunk.
func (s *slabs) packet(p Packet) *Packet {
	q := &Carve(&s.pkts, 1, packetChunk)[0]
	*q = p
	return q
}

// Reader yields packets from a trace. Next returns io.EOF after the final
// packet.
type Reader interface {
	Next() (*Packet, error)
}

// Positioned is implemented by readers that can report how far through
// their input they are, for progress display. Pos and Total are in the
// reader's natural unit — bytes for the file formats, packets for
// SliceReader — so the fraction Pos/Total is meaningful even though the
// unit varies. Total returns 0 when the input size is unknown (an
// unseekable stream, or no SetTotal call).
type Positioned interface {
	// Pos returns the amount of input consumed so far, including any
	// skipped or partially-read trailing record.
	Pos() int64
	// Total returns the input size, or 0 if unknown.
	Total() int64
}

// Progress returns the completed fraction of r's input in [0, 1] and
// whether it is known. Readers implementing Progresser report it
// directly (MergeReader computes a fraction even when only some shards
// know their size); otherwise the reader must implement Positioned and
// know its total size.
func Progress(r Reader) (float64, bool) {
	if pr, ok := r.(Progresser); ok {
		return pr.Progress()
	}
	p, ok := r.(Positioned)
	if !ok {
		return 0, false
	}
	total := p.Total()
	if total <= 0 {
		return 0, false
	}
	frac := float64(p.Pos()) / float64(total)
	if frac > 1 {
		frac = 1
	}
	return frac, true
}

// BatchReader is implemented by readers that can yield many packets per
// call, letting streaming consumers amortize per-packet overhead (channel
// synchronization in the pool, interface dispatch) over a batch.
//
// NextBatch fills dst from the front and returns how many entries were
// written. Like io.Reader, it may return n > 0 alongside an error — the
// packets are valid and the error applies after them. io.EOF signals the
// end of the trace; n == 0 with a nil error only occurs for len(dst) == 0.
type BatchReader interface {
	Reader
	NextBatch(dst []*Packet) (int, error)
}

// ReadBatch fills dst from r, using the reader's native NextBatch when it
// has one and falling back to repeated Next calls otherwise. Semantics
// match BatchReader.NextBatch.
func ReadBatch(r Reader, dst []*Packet) (int, error) {
	if br, ok := r.(BatchReader); ok {
		return br.NextBatch(dst)
	}
	n := 0
	for n < len(dst) {
		p, err := r.Next()
		if err != nil {
			return n, err
		}
		dst[n] = p
		n++
	}
	return n, nil
}

// Writer appends packets to a trace.
type Writer interface {
	WritePacket(*Packet) error
}

// Format identifies a trace file format.
type Format int

// The supported trace formats.
const (
	FormatPcap Format = iota // tcpdump/libpcap
	FormatTSH                // NLANR Time Sequenced Headers
)

// String returns the conventional name of the format.
func (f Format) String() string {
	switch f {
	case FormatPcap:
		return "pcap"
	case FormatTSH:
		return "tsh"
	}
	return fmt.Sprintf("format?%d", int(f))
}

// ErrNotPcap is returned when a pcap global header's magic is unknown.
var ErrNotPcap = errors.New("trace: not a pcap file (bad magic)")

// ErrMalformedRecord is the sentinel wrapped by every record-corruption
// error, so callers can distinguish a corrupt record (skippable under a
// resync policy) from an I/O failure:
//
//	if errors.Is(err, trace.ErrMalformedRecord) { ... }
var ErrMalformedRecord = errors.New("trace: malformed record")

// MalformedRecordError describes one corrupt trace record: where in the
// input stream it started and why it was rejected. It unwraps to
// ErrMalformedRecord (and to the underlying cause when there is one).
type MalformedRecordError struct {
	// Format is the trace format being read.
	Format Format
	// Offset is the byte offset of the record in the input stream.
	Offset int64
	// Reason says what was wrong with the record.
	Reason string
	// Err is the underlying error, when the corruption surfaced as one
	// (for example io.ErrUnexpectedEOF on a truncated final record).
	Err error
}

func (e *MalformedRecordError) Error() string {
	return fmt.Sprintf("trace: malformed %s record at offset %d: %s", e.Format, e.Offset, e.Reason)
}

// Unwrap exposes ErrMalformedRecord and the underlying cause to
// errors.Is/errors.As.
func (e *MalformedRecordError) Unwrap() []error {
	if e.Err != nil {
		return []error{ErrMalformedRecord, e.Err}
	}
	return []error{ErrMalformedRecord}
}

// NewReader constructs a reader for the given format.
func NewReader(r io.Reader, f Format) (Reader, error) {
	switch f {
	case FormatPcap:
		return NewPcapReader(r)
	case FormatTSH:
		return NewTSHReader(r), nil
	}
	return nil, fmt.Errorf("trace: unknown format %v", f)
}

// NewWriter constructs a writer for the given format.
func NewWriter(w io.Writer, f Format) (Writer, error) {
	switch f {
	case FormatPcap:
		return NewPcapWriter(w)
	case FormatTSH:
		return NewTSHWriter(w), nil
	}
	return nil, fmt.Errorf("trace: unknown format %v", f)
}

// ReadAll drains a reader, returning at most limit packets (limit <= 0
// means no limit).
func ReadAll(r Reader, limit int) ([]*Packet, error) {
	var pkts []*Packet
	for limit <= 0 || len(pkts) < limit {
		p, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return pkts, err
		}
		pkts = append(pkts, p)
	}
	return pkts, nil
}

// SliceReader adapts an in-memory packet slice to the Reader interface,
// so already-loaded traces can feed streaming consumers (Pool.RunTrace).
type SliceReader struct {
	pkts []*Packet
	next int
}

// NewSliceReader returns a Reader yielding the packets in order.
func NewSliceReader(pkts []*Packet) *SliceReader {
	return &SliceReader{pkts: pkts}
}

// Next implements Reader.
func (s *SliceReader) Next() (*Packet, error) {
	if s.next >= len(s.pkts) {
		return nil, io.EOF
	}
	p := s.pkts[s.next]
	s.next++
	return p, nil
}

// NextBatch implements BatchReader with a single copy from the backing
// slice.
func (s *SliceReader) NextBatch(dst []*Packet) (int, error) {
	if s.next >= len(s.pkts) {
		return 0, io.EOF
	}
	n := copy(dst, s.pkts[s.next:])
	s.next += n
	return n, nil
}

// Pos implements Positioned; the unit is packets.
func (s *SliceReader) Pos() int64 { return int64(s.next) }

// Total implements Positioned; the unit is packets.
func (s *SliceReader) Total() int64 { return int64(len(s.pkts)) }
