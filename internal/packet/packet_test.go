package packet

import (
	"encoding/binary"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

// buildRaw constructs a valid serialized IPv4+TCP packet for tests.
func buildRaw(src, dst uint32, srcPort, dstPort uint16, proto uint8, payload int) []byte {
	h := IPv4Header{
		Version: 4, IHL: 5, TTL: 64, Protocol: proto,
		Src: src, Dst: dst,
	}
	l4len := 0
	switch proto {
	case ProtoTCP:
		l4len = TCPHeaderLen
	case ProtoUDP:
		l4len = UDPHeaderLen
	}
	h.TotalLen = uint16(IPv4HeaderLen + l4len + payload)
	b := make([]byte, h.TotalLen)
	h.MarshalInto(b)
	switch proto {
	case ProtoTCP:
		t := TCPHeader{SrcPort: srcPort, DstPort: dstPort, DataOff: 5}
		t.MarshalInto(b[IPv4HeaderLen:])
	case ProtoUDP:
		u := UDPHeader{SrcPort: srcPort, DstPort: dstPort, Length: uint16(UDPHeaderLen + payload)}
		u.MarshalInto(b[IPv4HeaderLen:])
	}
	return b
}

func TestParseIPv4RoundTrip(t *testing.T) {
	h := IPv4Header{
		Version: 4, IHL: 5, TOS: 0x10, TotalLen: 84, ID: 0x1234,
		Flags: 2, FragOff: 0, TTL: 63, Protocol: ProtoTCP,
		Src: 0x0A000001, Dst: 0xC0A80101,
	}
	b := h.Marshal()
	got, err := ParseIPv4(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != h.Src || got.Dst != h.Dst || got.TTL != 63 ||
		got.Protocol != ProtoTCP || got.TotalLen != 84 || got.ID != 0x1234 ||
		got.TOS != 0x10 || got.Flags != 2 {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if !VerifyChecksum(b) {
		t.Error("marshaled header fails checksum verification")
	}
}

func TestParseIPv4RoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		h := IPv4Header{
			Version: 4, IHL: 5,
			TOS:      uint8(rng.Intn(256)),
			TotalLen: uint16(20 + rng.Intn(1480)),
			ID:       uint16(rng.Intn(65536)),
			Flags:    uint8(rng.Intn(8)),
			FragOff:  uint16(rng.Intn(1 << 13)),
			TTL:      uint8(rng.Intn(256)),
			Protocol: uint8(rng.Intn(256)),
			Src:      rng.Uint32(),
			Dst:      rng.Uint32(),
		}
		b := h.Marshal()
		got, err := ParseIPv4(b)
		if err != nil {
			t.Fatalf("parse of marshaled header: %v (%+v)", err, h)
		}
		h.Checksum = got.Checksum // Marshal computes it; compare the rest
		if got.Src != h.Src || got.Dst != h.Dst || got.TTL != h.TTL ||
			got.Protocol != h.Protocol || got.TotalLen != h.TotalLen ||
			got.ID != h.ID || got.TOS != h.TOS || got.Flags != h.Flags ||
			got.FragOff != h.FragOff || got.IHL != h.IHL {
			t.Fatalf("round trip: marshaled %+v, parsed %+v", h, *got)
		}
		if !VerifyChecksum(b) {
			t.Fatalf("checksum invalid after marshal: %+v", h)
		}
	}
}

func TestParseIPv4WithOptions(t *testing.T) {
	h := IPv4Header{
		Version: 4, IHL: 7, TTL: 4, Protocol: ProtoUDP,
		Src: 1, Dst: 2, TotalLen: 28 + 8,
		Options: []byte{1, 1, 1, 1, 1, 1, 1, 1}, // two words of NOP options
	}
	b := h.Marshal()
	if len(b) != 28 {
		t.Fatalf("header length = %d, want 28", len(b))
	}
	got, err := ParseIPv4(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.HeaderLen() != 28 || len(got.Options) != 8 {
		t.Errorf("options lost: %+v", got)
	}
	if b[20] = 0xEE; got.Options[0] != 1 {
		t.Error("Options aliases the parsed bytes instead of copying them")
	}
	b[20] = 1
	if !VerifyChecksum(b) {
		t.Error("checksum over options invalid")
	}
}

func TestParseIPv4Errors(t *testing.T) {
	cases := []struct {
		name string
		b    []byte
		want string
	}{
		{"short", make([]byte, 19), "packet: IPv4 header truncated: 19 bytes"},
		{"version", append([]byte{0x65}, make([]byte, 19)...), "packet: not IPv4: version 6"},
		{"bad ihl", append([]byte{0x44}, make([]byte, 19)...), "packet: bad IHL 4"},
		{"options truncated", append([]byte{0x46}, make([]byte, 19)...), "packet: header with options truncated: have 20, need 24"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h, err := ParseIPv4(c.b)
			if h != nil || err == nil || err.Error() != c.want {
				t.Errorf("ParseIPv4 = %v, %v; want nil, %q", h, err, c.want)
			}
		})
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// The classic example from RFC 1071 materials: a header whose checksum
	// computes to 0xB861.
	b := []byte{
		0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00,
		0x40, 0x11, 0x00, 0x00, 0xC0, 0xA8, 0x00, 0x01,
		0xC0, 0xA8, 0x00, 0xC7,
	}
	if got := Checksum(b); got != 0xB861 {
		t.Errorf("Checksum = %#04x, want 0xB861", got)
	}
	binary.BigEndian.PutUint16(b[10:], 0xB861)
	if !VerifyChecksum(b) {
		t.Error("known-good header fails verification")
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd-length buffers pad the final byte on the right (high bits).
	even := Checksum([]byte{0x12, 0x34, 0x56, 0x00})
	odd := Checksum([]byte{0x12, 0x34, 0x56})
	if even != odd {
		t.Errorf("odd-length padding wrong: %#x vs %#x", odd, even)
	}
}

func TestIncrementalTTLUpdateMatchesRecompute(t *testing.T) {
	// Property: decrementing TTL and applying RFC1624 yields the same
	// checksum as zeroing and recomputing.
	f := func(src, dst uint32, ttl uint8, id uint16) bool {
		if ttl == 0 {
			ttl = 1
		}
		h := IPv4Header{Version: 4, IHL: 5, TTL: ttl, ID: id,
			Protocol: ProtoTCP, Src: src, Dst: dst, TotalLen: 40}
		b := h.Marshal()
		old := binary.BigEndian.Uint16(b[10:])

		incr := UpdateChecksumTTLDecrement(old, ttl)

		h2 := h
		h2.TTL = ttl - 1
		want := binary.BigEndian.Uint16(h2.Marshal()[10:])
		return incr == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestExtractFiveTupleTCP(t *testing.T) {
	b := buildRaw(0x0A000001, 0x0A000002, 1234, 80, ProtoTCP, 10)
	ft, err := ExtractFiveTuple(b)
	if err != nil {
		t.Fatal(err)
	}
	want := FiveTuple{Src: 0x0A000001, Dst: 0x0A000002, SrcPort: 1234, DstPort: 80, Protocol: ProtoTCP}
	if ft != want {
		t.Errorf("five tuple = %+v, want %+v", ft, want)
	}
}

func TestExtractFiveTupleUDPAndICMP(t *testing.T) {
	b := buildRaw(1, 2, 53, 5353, ProtoUDP, 0)
	ft, err := ExtractFiveTuple(b)
	if err != nil {
		t.Fatal(err)
	}
	if ft.SrcPort != 53 || ft.DstPort != 5353 || ft.Protocol != ProtoUDP {
		t.Errorf("udp tuple = %+v", ft)
	}
	// ICMP has no ports.
	b = buildRaw(1, 2, 0, 0, ProtoICMP, 8)
	ft, err = ExtractFiveTuple(b)
	if err != nil {
		t.Fatal(err)
	}
	if ft.SrcPort != 0 || ft.DstPort != 0 {
		t.Errorf("icmp tuple has ports: %+v", ft)
	}
}

func TestFiveTupleString(t *testing.T) {
	ft := FiveTuple{Src: 0x0A000001, Dst: 0x0A000002, SrcPort: 1, DstPort: 2, Protocol: 6}
	s := ft.String()
	if !strings.Contains(s, "10.0.0.1") || !strings.Contains(s, "10.0.0.2") {
		t.Errorf("String() = %q", s)
	}
}

func TestTCPHeaderRoundTrip(t *testing.T) {
	h := TCPHeader{SrcPort: 443, DstPort: 51234, Seq: 0xDEADBEEF, Ack: 0x01020304,
		DataOff: 5, Flags: 0x18, Window: 65535, Checksum: 0xABCD, Urgent: 1}
	b := make([]byte, TCPHeaderLen)
	h.MarshalInto(b)
	got, err := ParseTCP(b)
	if err != nil {
		t.Fatal(err)
	}
	if *got != h {
		t.Errorf("round trip: %+v != %+v", *got, h)
	}
	if _, err := ParseTCP(b[:19]); err == nil {
		t.Error("short TCP parse succeeded")
	}
}

func TestUDPHeaderRoundTrip(t *testing.T) {
	h := UDPHeader{SrcPort: 53, DstPort: 1024, Length: 100, Checksum: 0xFFFF}
	b := make([]byte, UDPHeaderLen)
	h.MarshalInto(b)
	got, err := ParseUDP(b)
	if err != nil {
		t.Fatal(err)
	}
	if *got != h {
		t.Errorf("round trip: %+v != %+v", *got, h)
	}
	if _, err := ParseUDP(b[:7]); err == nil {
		t.Error("short UDP parse succeeded")
	}
}

func TestAddrConversions(t *testing.T) {
	a := netip.MustParseAddr("192.168.1.200")
	v := AddrValue(a)
	if v != 0xC0A801C8 {
		t.Errorf("AddrValue = %#x", v)
	}
	if got := V4Addr(v); got != a {
		t.Errorf("V4Addr(AddrValue(%v)) = %v", a, got)
	}
	// Property: round trip over arbitrary values.
	f := func(v uint32) bool { return AddrValue(V4Addr(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestParseIPv4DstOnlyAllocatesNothing: ParseIPv4 inlines, so the route
// derivation loop, which reads only Dst, keeps every header on its stack.
func TestParseIPv4DstOnlyAllocatesNothing(t *testing.T) {
	var pkts [][]byte
	for i := 0; i < 8; i++ {
		h := IPv4Header{Version: 4, IHL: 5, TotalLen: 40, Dst: uint32(i) << 24}
		pkts = append(pkts, h.Marshal())
	}
	dsts := make([]uint32, 0, len(pkts))
	allocs := testing.AllocsPerRun(100, func() {
		dsts = dsts[:0]
		for _, p := range pkts {
			if h, err := ParseIPv4(p); err == nil {
				dsts = append(dsts, h.Dst)
			}
		}
	})
	if allocs != 0 || len(dsts) != len(pkts) {
		t.Errorf("%v allocs per pass over %d headers (%d parsed), want 0", allocs, len(pkts), len(dsts))
	}
}
