package trace

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/packet"
)

// TSHRecordLen is the fixed size of one NLANR Time Sequenced Headers
// record: an 8-byte timestamp, the 20-byte IPv4 header, and the first 16
// bytes of the transport header.
const TSHRecordLen = 44

// tshHeaderBytes is the number of packet bytes carried per record.
const tshHeaderBytes = 36

// TSHReader reads the NLANR PMA Time Sequenced Headers format used by the
// MRA/COS/ODU traces in the paper. Each 44-byte record is:
//
//	bytes 0-3   timestamp, seconds (big endian)
//	byte  4     interface number
//	bytes 5-7   timestamp, microseconds (big endian, 24 bits)
//	bytes 8-27  IPv4 header (no options; TSH captures truncate them)
//	bytes 28-43 first 16 bytes of the transport header
//
// The reader decodes from the buffered source it shares with PcapReader.
// The packet handed to applications is the 36 captured header bytes,
// copied into a cut from a chunk as PcapReader copies its bodies, so
// packets outlive Close; the wire length comes from the IP header's
// total-length field.
//
// The reader accepts any 44-byte record by default (the format has no
// per-record magic to validate against). SetSkipMalformed turns on IPv4
// header sanity checks and skips records failing them — the fixed record
// size makes resync trivial: advance one record.
type TSHReader struct {
	skipState
	slabs
	source
}

// NewTSHReader returns a reader over r.
func NewTSHReader(r io.Reader) *TSHReader { return &TSHReader{source: newSource(r, "TSH", 0)} }

// recordProblem applies the skip-mode sanity checks to the captured IPv4
// header bytes, returning a non-empty reason for a malformed record.
func recordProblem(ip []byte) string {
	if v := ip[0] >> 4; v != 4 {
		return fmt.Sprintf("IP version %d, want 4", v)
	}
	if ihl := ip[0] & 0xF; ihl < 5 {
		return fmt.Sprintf("IP header length %d below minimum 5", ihl)
	}
	if tot := binary.BigEndian.Uint16(ip[2:]); tot < 20 {
		return fmt.Sprintf("IP total length %d below header size", tot)
	}
	return ""
}

// Next returns the next record, or io.EOF at the end. A trailing partial
// record is reported as a *MalformedRecordError wrapping
// io.ErrUnexpectedEOF.
func (t *TSHReader) Next() (*Packet, error) {
	for {
		recOff := t.off
		rec, err := t.peek(TSHRecordLen)
		if len(rec) < TSHRecordLen {
			if err != io.EOF {
				return nil, fmt.Errorf("trace: reading TSH record: %w", err)
			}
			if len(rec) == 0 {
				return nil, io.EOF
			}
			// The partial bytes are consumed, so Pos advances past them;
			// the error still reports the start of the truncated record.
			t.advance(len(rec))
			if t.consumeSkip() {
				return nil, io.EOF
			}
			return nil, &MalformedRecordError{Format: FormatTSH, Offset: recOff,
				Reason: "truncated record", Err: io.ErrUnexpectedEOF}
		}
		t.advance(TSHRecordLen)
		if t.budget != nil {
			if reason := recordProblem(rec[8:]); reason != "" {
				if t.consumeSkip() {
					continue // fixed-size records: resync is the next record
				}
				return nil, &MalformedRecordError{Format: FormatTSH, Offset: recOff, Reason: reason}
			}
		}
		sec := binary.BigEndian.Uint32(rec[0:])
		usec := binary.BigEndian.Uint32(rec[4:]) & 0x00FFFFFF
		data := Carve(&t.bodies, tshHeaderBytes, bodyChunk)
		copy(data, rec[8:])
		wire := int(binary.BigEndian.Uint16(data[2:])) // IP total length
		if wire < tshHeaderBytes {
			wire = tshHeaderBytes
		}
		return t.packet(Packet{Sec: sec, Usec: usec, Data: data, WireLen: wire}), nil
	}
}

// Interface extracts the capture interface number of the most recent
// record layout from raw record bytes; exposed for tooling that needs it.
func TSHInterface(rec []byte) uint8 {
	if len(rec) < 5 {
		return 0
	}
	return rec[4]
}

// TSHWriter writes the TSH format. Packets are truncated (or zero padded)
// to the 36 header bytes a record carries.
type TSHWriter struct {
	w io.Writer
	// Interface is stamped into byte 4 of each record.
	Interface uint8
}

// NewTSHWriter wraps w.
func NewTSHWriter(w io.Writer) *TSHWriter { return &TSHWriter{w: w} }

// WritePacket appends one record. Packets whose IPv4 header carries
// options cannot be represented (TSH fixes the IP header at 20 bytes) and
// are rejected.
func (t *TSHWriter) WritePacket(pkt *Packet) error {
	if len(pkt.Data) > 0 {
		ihl := pkt.Data[0] & 0xF
		if ihl > 5 {
			return fmt.Errorf("trace: TSH cannot represent IP options (IHL %d)", ihl)
		}
	}
	var rec [TSHRecordLen]byte
	binary.BigEndian.PutUint32(rec[0:], pkt.Sec)
	binary.BigEndian.PutUint32(rec[4:], pkt.Usec&0x00FFFFFF)
	rec[4] = t.Interface
	copy(rec[8:], pkt.Data) // truncates past 36 bytes
	if _, err := t.w.Write(rec[:]); err != nil {
		return fmt.Errorf("trace: writing TSH record: %w", err)
	}
	return nil
}

// ValidateIPv4 checks that a packet parses as IPv4, a convenience the
// generator and CLI use to sanity check traces.
func ValidateIPv4(p *Packet) error {
	_, err := packet.ParseIPv4(p.Data)
	return err
}
