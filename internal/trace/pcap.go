package trace

import (
	"encoding/binary"
	"fmt"
	"io"
)

// pcap file-format constants.
const (
	pcapMagic        = 0xA1B2C3D4 // microsecond timestamps, writer-native order
	pcapMagicSwapped = 0xD4C3B2A1
	pcapVersionMajor = 2
	pcapVersionMinor = 4
	pcapHeaderLen    = 24
	pcapRecordLen    = 16

	// pcapMaxRecordLen is the largest record body the pcap reader
	// accepts, and the snap length the writer declares; keeping the two
	// equal is what guarantees every written record reads back.
	pcapMaxRecordLen = 1 << 24

	// LinkTypeRaw means packets begin directly with the IP header
	// (DLT_RAW). This is what the writer emits.
	LinkTypeRaw = 101
	// LinkTypeEthernet packets carry a 14-byte Ethernet header that the
	// reader strips (DLT_EN10MB).
	LinkTypeEthernet = 1

	ethernetHeaderLen = 14
	etherTypeIPv4     = 0x0800
)

// pcapResyncWindow bounds how far past a corrupt record the reader will
// scan for the next plausible record header before giving up.
const pcapResyncWindow = 1 << 20

// pcapResyncMaxGap bounds, in seconds, how far ahead of the record
// before it a resync candidate's timestamp may lie.
const pcapResyncMaxGap = 24 * 60 * 60

// pcapBufSize is the source's buffer size and the pcap decoder's
// lookahead rule: resync confirms a candidate record by peeking at its
// body and the header after it, and a candidate whose body plus that
// header exceeds pcapBufSize bytes is unconfirmable.
const pcapBufSize = 128 << 10

// pcapMeta is the parsed global header; record-header validation lives
// here beside it.
type pcapMeta struct {
	order    binary.ByteOrder
	linkType uint32
	snapLen  uint32
}

// parsePcapMeta validates a 24-byte global header.
func parsePcapMeta(hdr []byte) (pcapMeta, error) {
	var m pcapMeta
	switch binary.LittleEndian.Uint32(hdr[:4]) {
	case pcapMagic:
		m.order = binary.LittleEndian
	case pcapMagicSwapped:
		m.order = binary.BigEndian
	default:
		return m, ErrNotPcap
	}
	m.snapLen = m.order.Uint32(hdr[16:])
	m.linkType = m.order.Uint32(hdr[20:])
	switch m.linkType {
	case LinkTypeRaw, LinkTypeEthernet:
	default:
		return m, fmt.Errorf("trace: unsupported pcap link type %d", m.linkType)
	}
	return m, nil
}

// recHeaderProblem validates a record header's lengths, returning a
// non-empty reason when the record cannot be read.
func (m *pcapMeta) recHeaderProblem(rec []byte) string {
	inclLen := m.order.Uint32(rec[8:])
	if inclLen > pcapMaxRecordLen {
		return fmt.Sprintf("pcap record length %d exceeds the maximum supported length %d", inclLen, pcapMaxRecordLen)
	}
	if m.snapLen > 0 && inclLen > m.snapLen {
		return fmt.Sprintf("pcap record length %d exceeds snap length %d", inclLen, m.snapLen)
	}
	if origLen := m.order.Uint32(rec[12:]); origLen < inclLen {
		return fmt.Sprintf("pcap record original length %d below captured length %d", origLen, inclLen)
	}
	return ""
}

// plausibleHeader is the resync heuristic: a 16-byte window is accepted as
// a record header when its lengths are consistent and the microsecond
// field is in range. Stricter than recHeaderProblem on purpose — when
// scanning a desynchronized byte stream, false positives cost far more
// than skipping to the next real record.
func (m *pcapMeta) plausibleHeader(rec []byte) bool {
	usec := m.order.Uint32(rec[4:])
	incl := m.order.Uint32(rec[8:])
	orig := m.order.Uint32(rec[12:])
	limit := uint32(pcapMaxRecordLen)
	if m.snapLen > 0 && m.snapLen < limit {
		limit = m.snapLen
	}
	return usec < 1_000_000 && incl > 0 && incl <= limit && orig >= incl && orig <= pcapMaxRecordLen
}

// inOrder reports whether record header rec's timestamp can follow a
// record stamped sec seconds: not before it, and at most
// pcapResyncMaxGap seconds after it. A header aliased out of a record
// body rarely carries a timestamp in order; an earlier one wraps the
// unsigned difference past the bound.
func (m *pcapMeta) inOrder(rec []byte, sec uint32) bool {
	return m.order.Uint32(rec)-sec <= pcapResyncMaxGap
}

func pcapTruncatedHeaderErr(off int64) *MalformedRecordError {
	return &MalformedRecordError{Format: FormatPcap, Offset: off,
		Reason: "truncated record header", Err: io.ErrUnexpectedEOF}
}

func pcapTruncatedBodyErr(off int64, n, inclLen int) *MalformedRecordError {
	return &MalformedRecordError{Format: FormatPcap, Offset: off,
		Reason: fmt.Sprintf("record body truncated at %d of %d bytes", n, inclLen),
		Err:    io.ErrUnexpectedEOF}
}

func pcapResyncExhaustedErr(off int64) *MalformedRecordError {
	return &MalformedRecordError{Format: FormatPcap, Offset: off,
		Reason: fmt.Sprintf("no plausible record header within %d bytes of corrupt record", pcapResyncWindow)}
}

// PcapReader reads libpcap capture files. Both byte orders are accepted;
// Ethernet and raw-IP link types are supported, with non-IPv4 frames
// skipped silently (matching how header-processing tools consume mixed
// captures).
//
// The reader decodes from the buffered source it shares with TSHReader
// and copies each record body into a cut from a body chunk it owns. The
// returned Packet structs are cut from Packet chunks (see Carve) and
// every body is cap-clipped. No chunk is reused, so a retained packet
// stays valid, after Close too: its body pins the one chunk it was cut
// from, and its Packet pins its Packet chunk, with the bodies of the
// packets beside it.
//
// By default the reader fail-fasts on the first malformed record with a
// *MalformedRecordError. SetSkipMalformed switches it to skip-and-resync:
// corrupt records are skipped (scanning forward for the next plausible
// record header) until the skip budget is exhausted.
type PcapReader struct {
	pcapMeta
	skipState
	slabs
	source
	// lastSec is the timestamp of the last record header read intact,
	// once haveSec is set; resync accepts only candidates in order after
	// it.
	lastSec uint32
	haveSec bool
}

// NewPcapReader parses the global header and returns a reader positioned
// at the first record of the stream.
func NewPcapReader(r io.Reader) (*PcapReader, error) {
	var hdr [pcapHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading pcap header: %w", err)
	}
	meta, err := parsePcapMeta(hdr[:])
	if err != nil {
		return nil, err
	}
	return &PcapReader{pcapMeta: meta, source: newSource(r, "pcap", pcapHeaderLen)}, nil
}

// LinkType returns the capture's link type.
func (p *PcapReader) LinkType() uint32 { return p.linkType }

// body consumes a record body of n bytes, copied from the source into n
// bytes cut from the body chunk. When the input ends first it consumes
// and returns the partial bytes with io.ErrUnexpectedEOF; a stream
// failure consumes nothing.
func (p *PcapReader) body(n int) ([]byte, error) {
	data := Carve(&p.bodies, n, bodyChunk)
	k, err := io.ReadFull(p.r, data)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	} else if err != nil && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	p.off += int64(k)
	return data[:k], err
}

// confirmCandidate strengthens a plausible resync window by peeking at
// where the candidate's body would end: either the input ends exactly
// there (a valid final record) or another plausible header follows,
// with a timestamp in order after the candidate's. A shifted window over
// real traffic can alias into a plausible-looking header; requiring the
// following record to line up too rejects nearly all such aliases, and
// resync's timestamp check the rest: an alias whose body swallowed
// dozens of real records could line up with one of them. The cost of that strictness: a genuine record whose
// immediate successor is also corrupt fails confirmation and is
// sacrificed to the same resync scan, and so is a genuine record whose
// body plus the following header exceeds the pcapBufSize lookahead.
// Skip-and-resync is best-effort recovery, and losing a record
// adjacent to corruption is the cheaper failure mode than locking onto an
// alias mid-body and desynchronizing the rest of the stream.
func (p *PcapReader) confirmCandidate(w []byte) bool {
	incl := int(p.order.Uint32(w[8:]))
	if incl+pcapRecordLen > pcapBufSize {
		return false
	}
	// Only the length seen matters here: a stream failure surfaces on
	// the next read.
	peek, _ := p.peek(incl + pcapRecordLen)
	if len(peek) == incl+pcapRecordLen {
		return p.plausibleHeader(peek[incl:]) && p.inOrder(peek[incl:], p.order.Uint32(w))
	}
	// Input ends before incl+header bytes: valid only as the exact final
	// record.
	return len(peek) == incl
}

// resync slides a one-byte-at-a-time window over the input until it
// finds a confirmed plausible record header, in order after the last
// intact one, returning it. io.EOF means
// the input ended (trailing corruption). An exhausted scan window is a
// typed *MalformedRecordError carrying recOff, the offset of the corrupt
// record that triggered the scan, so callers matching with errors.As see
// the same Offset/Reason shape as every other malformed-record path.
func (p *PcapReader) resync(rec []byte, recOff int64) ([]byte, error) {
	w := make([]byte, pcapRecordLen)
	copy(w, rec)
	for scanned := 0; scanned < pcapResyncWindow; scanned++ {
		b, err := p.peek(1)
		if len(b) == 0 {
			if err == io.EOF {
				return w, io.EOF
			}
			return w, fmt.Errorf("trace: resyncing pcap stream: %w", err)
		}
		copy(w, w[1:])
		w[pcapRecordLen-1] = b[0]
		p.advance(1)
		if p.plausibleHeader(w) && (!p.haveSec || p.inOrder(w, p.lastSec)) && p.confirmCandidate(w) {
			return w, nil
		}
	}
	return w, pcapResyncExhaustedErr(recOff)
}

// Next returns the next IPv4 packet, skipping non-IP frames. It returns
// io.EOF at the end of the input.
func (p *PcapReader) Next() (*Packet, error) {
	for {
		recOff := p.off
		// rec stays valid until the next read (see peek).
		rec, err := p.peek(pcapRecordLen)
		if len(rec) < pcapRecordLen {
			if err != io.EOF {
				return nil, fmt.Errorf("trace: reading pcap record header: %w", err)
			}
			if len(rec) == 0 {
				return nil, io.EOF
			}
			// Truncated trailing record header: there is nothing left
			// to resync into, so skip mode ends the trace here. The
			// partial bytes are consumed, so Pos advances past them.
			p.advance(len(rec))
			if p.consumeSkip() {
				return nil, io.EOF
			}
			return nil, pcapTruncatedHeaderErr(recOff)
		}
		p.advance(pcapRecordLen)
		if reason := p.recHeaderProblem(rec); reason != "" {
			if !p.consumeSkip() {
				return nil, &MalformedRecordError{Format: FormatPcap, Offset: recOff, Reason: reason}
			}
			if rec, err = p.resync(rec, recOff); err != nil {
				return nil, err
			}
			// The resynced header replaced the corrupt one: recompute the
			// record start so a failure in the *resynced* record's body is
			// reported at its own offset, not the corrupt record's.
			recOff = p.off - pcapRecordLen
		}
		sec := p.order.Uint32(rec[0:])
		p.lastSec, p.haveSec = sec, true
		usec := p.order.Uint32(rec[4:])
		inclLen := p.order.Uint32(rec[8:])
		origLen := p.order.Uint32(rec[12:])
		data, err := p.body(int(inclLen))
		if err != nil {
			if err != io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("trace: reading pcap record body: %w", err)
			}
			// Truncated record body at the end of the input.
			if p.consumeSkip() {
				return nil, io.EOF
			}
			return nil, pcapTruncatedBodyErr(recOff, len(data), int(inclLen))
		}
		if pkt, ok := p.finishPacket(sec, usec, origLen, data); ok {
			return pkt, nil
		}
	}
}

// finishPacket applies link-layer stripping and the WireLen invariant to
// a decoded record. ok is false when the frame is not an IPv4 packet and
// must be skipped.
func (p *PcapReader) finishPacket(sec, usec, origLen uint32, data []byte) (*Packet, bool) {
	wire := int(origLen)
	if p.linkType == LinkTypeEthernet {
		if len(data) < ethernetHeaderLen {
			return nil, false // runt frame
		}
		etherType := binary.BigEndian.Uint16(data[12:])
		if etherType != etherTypeIPv4 {
			return nil, false // not IPv4; skip
		}
		data = data[ethernetHeaderLen:]
		wire -= ethernetHeaderLen
	}
	if len(data) == 0 {
		return nil, false
	}
	// A malformed capture can record an origLen shorter than the stripped
	// Ethernet header (which would go negative above); clamp so WireLen
	// keeps its >= len(Data) invariant.
	if wire < len(data) {
		wire = len(data)
	}
	return p.packet(Packet{Sec: sec, Usec: usec, Data: data, WireLen: wire}), true
}

// PcapWriter writes libpcap capture files with raw-IP framing, so records
// begin at the layer-3 header exactly as PacketBench applications see them.
type PcapWriter struct {
	w   io.Writer
	rec [pcapRecordLen]byte // the record header, kept here so it does not escape per packet
}

// NewPcapWriter writes the global header and returns the writer.
func NewPcapWriter(w io.Writer) (*PcapWriter, error) {
	var hdr [pcapHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], pcapMagic)
	binary.LittleEndian.PutUint16(hdr[4:], pcapVersionMajor)
	binary.LittleEndian.PutUint16(hdr[6:], pcapVersionMinor)
	// thiszone (8:12) and sigfigs (12:16) stay zero.
	// The declared snap length is the reader's maximum supported record
	// length: WritePacket accepts packets up to that size, so declaring
	// anything smaller would make our own reader reject our own records.
	binary.LittleEndian.PutUint32(hdr[16:], pcapMaxRecordLen)
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeRaw)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: writing pcap header: %w", err)
	}
	return &PcapWriter{w: w}, nil
}

// WritePacket appends one record. Packets longer than the declared snap
// length (the maximum record length the readers support) are rejected
// rather than silently writing a capture that cannot be read back.
func (p *PcapWriter) WritePacket(pkt *Packet) error {
	if len(pkt.Data) > pcapMaxRecordLen {
		return fmt.Errorf("trace: packet of %d bytes exceeds the pcap snap length %d", len(pkt.Data), pcapMaxRecordLen)
	}
	rec := &p.rec
	binary.LittleEndian.PutUint32(rec[0:], pkt.Sec)
	binary.LittleEndian.PutUint32(rec[4:], pkt.Usec)
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(pkt.Data)))
	wire := pkt.WireLen
	if wire < len(pkt.Data) {
		wire = len(pkt.Data)
	}
	binary.LittleEndian.PutUint32(rec[12:], uint32(wire))
	if _, err := p.w.Write(rec[:]); err != nil {
		return fmt.Errorf("trace: writing pcap record: %w", err)
	}
	if _, err := p.w.Write(pkt.Data); err != nil {
		return fmt.Errorf("trace: writing pcap record body: %w", err)
	}
	return nil
}
