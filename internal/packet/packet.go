// Package packet provides parsing, serialization and checksumming for the
// IPv4, TCP, UDP and ICMP headers that PacketBench applications process.
//
// PacketBench applications receive a pointer to the layer-3 header, exactly
// as the paper's API specifies ("the packet processing function has access
// to the contents of the packet from the layer 3 header onwards"). This
// package is the host-side view of those same bytes: the trace readers and
// generators use it to build and validate packets, and the differential
// tests use it to check that simulated applications transform headers the
// same way the native implementations do.
//
// All multi-byte header fields are big endian (network byte order), as on
// the wire.
package packet

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Protocol numbers from the IANA assigned-numbers registry, as found in
// the IPv4 Protocol field.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// IPv4HeaderLen is the length of an IPv4 header without options.
const IPv4HeaderLen = 20

// TCPHeaderLen is the length of a TCP header without options.
const TCPHeaderLen = 20

// UDPHeaderLen is the length of a UDP header.
const UDPHeaderLen = 8

// IPv4Header is a parsed IPv4 header. Only the fields relevant to header
// processing applications are modeled; options are preserved as raw bytes.
type IPv4Header struct {
	Version  uint8 // always 4 after a successful parse
	IHL      uint8 // header length in 32-bit words (5 when no options)
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8  // 3 bits
	FragOff  uint16 // 13 bits, in 8-byte units
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src      uint32 // host-order numeric value of the big-endian address
	Dst      uint32
	Options  []byte // raw option bytes, nil when IHL == 5
}

// V4Addr converts a host-order 32-bit address (as stored in IPv4Header) to
// a netip.Addr for display.
func V4Addr(a uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], a)
	return netip.AddrFrom4(b)
}

// AddrValue converts a netip IPv4 address to the host-order 32-bit value
// used throughout this module.
func AddrValue(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

// ParseIPv4 parses the IPv4 header at the front of b. It inlines, so a
// caller that only reads fields of the header keeps it on its stack.
func ParseIPv4(b []byte) (*IPv4Header, error) {
	h := new(IPv4Header)
	if err := h.parse(b); err != nil {
		return nil, err
	}
	return h, nil
}

// parse fills h from the IPv4 header at the front of b.
func (h *IPv4Header) parse(b []byte) error {
	if len(b) < IPv4HeaderLen {
		return fmt.Errorf("packet: IPv4 header truncated: %d bytes", len(b))
	}
	*h = IPv4Header{
		Version:  b[0] >> 4,
		IHL:      b[0] & 0xF,
		TOS:      b[1],
		TotalLen: binary.BigEndian.Uint16(b[2:]),
		ID:       binary.BigEndian.Uint16(b[4:]),
		Flags:    b[6] >> 5,
		FragOff:  binary.BigEndian.Uint16(b[6:]) & 0x1FFF,
		TTL:      b[8],
		Protocol: b[9],
		Checksum: binary.BigEndian.Uint16(b[10:]),
		Src:      binary.BigEndian.Uint32(b[12:]),
		Dst:      binary.BigEndian.Uint32(b[16:]),
	}
	if h.Version != 4 {
		return fmt.Errorf("packet: not IPv4: version %d", h.Version)
	}
	if h.IHL < 5 {
		return fmt.Errorf("packet: bad IHL %d", h.IHL)
	}
	hlen := int(h.IHL) * 4
	if len(b) < hlen {
		return fmt.Errorf("packet: header with options truncated: have %d, need %d", len(b), hlen)
	}
	if h.IHL > 5 {
		h.Options = append([]byte(nil), b[IPv4HeaderLen:hlen]...)
	}
	return nil
}

// HeaderLen returns the header length in bytes.
func (h *IPv4Header) HeaderLen() int { return int(h.IHL) * 4 }

// Marshal serializes the header (with a freshly computed checksum) into a
// new slice of HeaderLen bytes.
func (h *IPv4Header) Marshal() []byte {
	b := make([]byte, h.HeaderLen())
	h.MarshalInto(b)
	return b
}

// MarshalInto serializes the header into b, which must be at least
// HeaderLen bytes, and recomputes the checksum field.
func (h *IPv4Header) MarshalInto(b []byte) {
	b[0] = h.Version<<4 | h.IHL
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:], h.TotalLen)
	binary.BigEndian.PutUint16(b[4:], h.ID)
	binary.BigEndian.PutUint16(b[6:], uint16(h.Flags)<<13|h.FragOff)
	b[8] = h.TTL
	b[9] = h.Protocol
	b[10], b[11] = 0, 0
	binary.BigEndian.PutUint32(b[12:], h.Src)
	binary.BigEndian.PutUint32(b[16:], h.Dst)
	copy(b[IPv4HeaderLen:], h.Options)
	cs := Checksum(b[:h.HeaderLen()])
	binary.BigEndian.PutUint16(b[10:], cs)
	h.Checksum = cs
}

// Checksum computes the Internet checksum (RFC 1071) over b: the one's
// complement of the one's-complement sum of the 16-bit big-endian words,
// padding a trailing odd byte with zero.
func Checksum(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// VerifyChecksum reports whether the IPv4 header bytes carry a valid
// checksum (the folded sum over the header including the checksum field is
// 0xFFFF, i.e. Checksum over it is zero).
func VerifyChecksum(header []byte) bool {
	return Checksum(header) == 0
}

// UpdateChecksumTTLDecrement applies the RFC 1624 incremental checksum
// update for a TTL decrement by one, given the old checksum. This is the
// arithmetic forwarding applications perform instead of recomputing the
// full header sum.
//
// HC' = ~(~HC + ~m + m') where m is the old 16-bit word containing the TTL
// and m' the new one. Since TTL is the high byte of word 4, m - m' =
// 0x0100.
func UpdateChecksumTTLDecrement(old uint16, oldTTL uint8) uint16 {
	oldWord := uint16(oldTTL) << 8
	newWord := uint16(oldTTL-1) << 8
	sum := uint32(^old) + uint32(^oldWord&0xFFFF) + uint32(newWord)
	for sum>>16 != 0 {
		sum = sum&0xFFFF + sum>>16
	}
	return ^uint16(sum)
}

// FiveTuple is the flow key used by classification applications.
type FiveTuple struct {
	Src, Dst         uint32
	SrcPort, DstPort uint16
	Protocol         uint8
}

// String formats the tuple for diagnostics.
func (ft FiveTuple) String() string {
	return fmt.Sprintf("%s:%d -> %s:%d proto %d",
		V4Addr(ft.Src), ft.SrcPort, V4Addr(ft.Dst), ft.DstPort, ft.Protocol)
}

// ExtractFiveTuple pulls the 5-tuple from a packet starting at the IPv4
// header. For protocols without ports (e.g. ICMP) the ports are zero, as
// is conventional for flow classifiers.
func ExtractFiveTuple(b []byte) (FiveTuple, error) {
	h, err := ParseIPv4(b)
	if err != nil {
		return FiveTuple{}, err
	}
	ft := FiveTuple{Src: h.Src, Dst: h.Dst, Protocol: h.Protocol}
	if h.Protocol == ProtoTCP || h.Protocol == ProtoUDP {
		l4 := b[h.HeaderLen():]
		if len(l4) >= 4 {
			ft.SrcPort = binary.BigEndian.Uint16(l4)
			ft.DstPort = binary.BigEndian.Uint16(l4[2:])
		}
	}
	return ft, nil
}

// TCPHeader is the subset of TCP fields used by header-processing
// applications.
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOff          uint8 // header length in 32-bit words
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16
}

// ParseTCP parses a TCP header.
func ParseTCP(b []byte) (*TCPHeader, error) {
	if len(b) < TCPHeaderLen {
		return nil, fmt.Errorf("packet: TCP header truncated: %d bytes", len(b))
	}
	return &TCPHeader{
		SrcPort:  binary.BigEndian.Uint16(b),
		DstPort:  binary.BigEndian.Uint16(b[2:]),
		Seq:      binary.BigEndian.Uint32(b[4:]),
		Ack:      binary.BigEndian.Uint32(b[8:]),
		DataOff:  b[12] >> 4,
		Flags:    b[13],
		Window:   binary.BigEndian.Uint16(b[14:]),
		Checksum: binary.BigEndian.Uint16(b[16:]),
		Urgent:   binary.BigEndian.Uint16(b[18:]),
	}, nil
}

// MarshalInto serializes the TCP header into b (at least TCPHeaderLen
// bytes). The checksum field is written as stored; TCP checksums require a
// pseudo-header and are not recomputed here.
func (h *TCPHeader) MarshalInto(b []byte) {
	binary.BigEndian.PutUint16(b, h.SrcPort)
	binary.BigEndian.PutUint16(b[2:], h.DstPort)
	binary.BigEndian.PutUint32(b[4:], h.Seq)
	binary.BigEndian.PutUint32(b[8:], h.Ack)
	b[12] = h.DataOff << 4
	b[13] = h.Flags
	binary.BigEndian.PutUint16(b[14:], h.Window)
	binary.BigEndian.PutUint16(b[16:], h.Checksum)
	binary.BigEndian.PutUint16(b[18:], h.Urgent)
}

// UDPHeader is a parsed UDP header.
type UDPHeader struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// ParseUDP parses a UDP header.
func ParseUDP(b []byte) (*UDPHeader, error) {
	if len(b) < UDPHeaderLen {
		return nil, fmt.Errorf("packet: UDP header truncated: %d bytes", len(b))
	}
	return &UDPHeader{
		SrcPort:  binary.BigEndian.Uint16(b),
		DstPort:  binary.BigEndian.Uint16(b[2:]),
		Length:   binary.BigEndian.Uint16(b[4:]),
		Checksum: binary.BigEndian.Uint16(b[6:]),
	}, nil
}

// MarshalInto serializes the UDP header into b (at least UDPHeaderLen
// bytes).
func (h *UDPHeader) MarshalInto(b []byte) {
	binary.BigEndian.PutUint16(b, h.SrcPort)
	binary.BigEndian.PutUint16(b[2:], h.DstPort)
	binary.BigEndian.PutUint16(b[4:], h.Length)
	binary.BigEndian.PutUint16(b[6:], h.Checksum)
}
