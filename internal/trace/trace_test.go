package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/packet"
)

// ipv4Packet builds a valid serialized IPv4+UDP packet.
func ipv4Packet(src, dst uint32, payload int) []byte {
	h := packet.IPv4Header{
		Version: 4, IHL: 5, TTL: 64, Protocol: packet.ProtoUDP,
		Src: src, Dst: dst,
		TotalLen: uint16(packet.IPv4HeaderLen + packet.UDPHeaderLen + payload),
	}
	b := make([]byte, h.TotalLen)
	h.MarshalInto(b)
	u := packet.UDPHeader{SrcPort: 1000, DstPort: 2000, Length: uint16(packet.UDPHeaderLen + payload)}
	u.MarshalInto(b[packet.IPv4HeaderLen:])
	return b
}

func TestPcapRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewPcapWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []*Packet{
		{Sec: 100, Usec: 5, Data: ipv4Packet(1, 2, 10), WireLen: 38},
		{Sec: 101, Usec: 999999, Data: ipv4Packet(3, 4, 100), WireLen: 128},
		{Sec: 102, Usec: 0, Data: ipv4Packet(5, 6, 0), WireLen: 28},
	}
	for _, p := range want {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewPcapReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != LinkTypeRaw {
		t.Errorf("link type = %d, want raw", r.LinkType())
	}
	got, err := ReadAll(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d packets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Sec != want[i].Sec || got[i].Usec != want[i].Usec {
			t.Errorf("packet %d timestamp = %d.%06d, want %d.%06d",
				i, got[i].Sec, got[i].Usec, want[i].Sec, want[i].Usec)
		}
		if !bytes.Equal(got[i].Data, want[i].Data) {
			t.Errorf("packet %d data mismatch", i)
		}
		if got[i].WireLen != want[i].WireLen {
			t.Errorf("packet %d wire length = %d, want %d", i, got[i].WireLen, want[i].WireLen)
		}
	}
}

func TestPcapBigEndianRead(t *testing.T) {
	// Hand-build a big-endian pcap with one raw-IP packet.
	var buf bytes.Buffer
	data := ipv4Packet(7, 8, 4)
	hdr := make([]byte, pcapHeaderLen)
	binary.BigEndian.PutUint32(hdr[0:], pcapMagic)
	binary.BigEndian.PutUint16(hdr[4:], 2)
	binary.BigEndian.PutUint16(hdr[6:], 4)
	binary.BigEndian.PutUint32(hdr[16:], 65536)
	binary.BigEndian.PutUint32(hdr[20:], LinkTypeRaw)
	buf.Write(hdr)
	rec := make([]byte, pcapRecordLen)
	binary.BigEndian.PutUint32(rec[0:], 42)
	binary.BigEndian.PutUint32(rec[4:], 7)
	binary.BigEndian.PutUint32(rec[8:], uint32(len(data)))
	binary.BigEndian.PutUint32(rec[12:], uint32(len(data)))
	buf.Write(rec)
	buf.Write(data)

	r, err := NewPcapReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if p.Sec != 42 || p.Usec != 7 || !bytes.Equal(p.Data, data) {
		t.Errorf("big-endian read mismatch: %+v", p)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestPcapEthernetStripping(t *testing.T) {
	var buf bytes.Buffer
	hdr := make([]byte, pcapHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:], pcapMagic)
	binary.LittleEndian.PutUint32(hdr[16:], 65536)
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeEthernet)
	buf.Write(hdr)

	writeFrame := func(etherType uint16, ip []byte) {
		frame := make([]byte, ethernetHeaderLen+len(ip))
		binary.BigEndian.PutUint16(frame[12:], etherType)
		copy(frame[ethernetHeaderLen:], ip)
		rec := make([]byte, pcapRecordLen)
		binary.LittleEndian.PutUint32(rec[8:], uint32(len(frame)))
		binary.LittleEndian.PutUint32(rec[12:], uint32(len(frame)))
		buf.Write(rec)
		buf.Write(frame)
	}
	ip := ipv4Packet(9, 10, 0)
	writeFrame(0x0806, make([]byte, 28)) // ARP: must be skipped
	writeFrame(etherTypeIPv4, ip)

	r, err := NewPcapReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.Data, ip) {
		t.Error("Ethernet header not stripped or wrong frame returned")
	}
	if p.WireLen != len(ip) {
		t.Errorf("wire length = %d, want %d", p.WireLen, len(ip))
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestPcapBadMagic(t *testing.T) {
	_, err := NewPcapReader(bytes.NewReader(make([]byte, 24)))
	if err != ErrNotPcap {
		t.Errorf("err = %v, want ErrNotPcap", err)
	}
}

func TestPcapTruncatedFile(t *testing.T) {
	_, err := NewPcapReader(bytes.NewReader([]byte{1, 2, 3}))
	if err == nil {
		t.Error("truncated header accepted")
	}

	var buf bytes.Buffer
	w, _ := NewPcapWriter(&buf)
	_ = w.WritePacket(&Packet{Data: ipv4Packet(1, 2, 0)})
	full := buf.Bytes()
	// Chop mid-record.
	r, err := NewPcapReader(bytes.NewReader(full[:len(full)-5]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("truncated record read succeeded")
	}
}

func TestPcapUnsupportedLinkType(t *testing.T) {
	hdr := make([]byte, pcapHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:], pcapMagic)
	binary.LittleEndian.PutUint32(hdr[20:], 999)
	_, err := NewPcapReader(bytes.NewReader(hdr))
	if err == nil || !strings.Contains(err.Error(), "link type") {
		t.Errorf("err = %v, want unsupported link type", err)
	}
}

func TestTSHRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewTSHWriter(&buf)
	w.Interface = 3
	pkts := []*Packet{
		{Sec: 10, Usec: 100, Data: ipv4Packet(0x0A000001, 0x0A000002, 100)},
		{Sec: 11, Usec: 0xFFFFFF, Data: ipv4Packet(0x0A000003, 0x0A000004, 0)},
	}
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() != 2*TSHRecordLen {
		t.Fatalf("wrote %d bytes, want %d", buf.Len(), 2*TSHRecordLen)
	}
	raw := buf.Bytes()
	if TSHInterface(raw[:TSHRecordLen]) != 3 {
		t.Errorf("interface byte = %d, want 3", TSHInterface(raw[:TSHRecordLen]))
	}

	r := NewTSHReader(&buf)
	for i, want := range pkts {
		got, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got.Sec != want.Sec {
			t.Errorf("packet %d sec = %d, want %d", i, got.Sec, want.Sec)
		}
		if len(got.Data) != tshHeaderBytes {
			t.Errorf("packet %d data length = %d, want %d", i, len(got.Data), tshHeaderBytes)
		}
		// The 36 header bytes survive (packet 0 is longer, so truncated;
		// packet 1 is 28 bytes, so zero padded).
		n := len(want.Data)
		if n > tshHeaderBytes {
			n = tshHeaderBytes
		}
		if !bytes.Equal(got.Data[:n], want.Data[:n]) {
			t.Errorf("packet %d header bytes mismatch", i)
		}
		// Wire length recovered from the IP total-length field.
		wantWire := int(binary.BigEndian.Uint16(want.Data[2:]))
		if wantWire < tshHeaderBytes {
			wantWire = tshHeaderBytes
		}
		if got.WireLen != wantWire {
			t.Errorf("packet %d wire = %d, want %d", i, got.WireLen, wantWire)
		}
		if err := ValidateIPv4(got); err != nil {
			t.Errorf("packet %d does not parse as IPv4: %v", i, err)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
}

func TestTSHUsecMask(t *testing.T) {
	var buf bytes.Buffer
	w := NewTSHWriter(&buf)
	w.Interface = 9
	if err := w.WritePacket(&Packet{Sec: 1, Usec: 0x12345678, Data: ipv4Packet(1, 2, 0)}); err != nil {
		t.Fatal(err)
	}
	r := NewTSHReader(&buf)
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	// Only the low 24 bits of usec survive; the interface byte overlays
	// the top 8.
	if p.Usec != 0x345678 {
		t.Errorf("usec = %#x, want 0x345678", p.Usec)
	}
}

func TestTSHRejectsOptions(t *testing.T) {
	h := packet.IPv4Header{Version: 4, IHL: 6, TTL: 1, TotalLen: 24,
		Options: []byte{1, 1, 1, 1}}
	b := h.Marshal()
	w := NewTSHWriter(io.Discard)
	if err := w.WritePacket(&Packet{Data: b}); err == nil {
		t.Error("TSH writer accepted IP options")
	}
}

func TestTSHPartialRecord(t *testing.T) {
	r := NewTSHReader(bytes.NewReader(make([]byte, TSHRecordLen+10)))
	if _, err := r.Next(); err != nil {
		t.Fatalf("first record: %v", err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("partial record gave %v, want a non-EOF error", err)
	}
}

// countingSource is a seekable source that counts its Read calls.
type countingSource struct {
	*bytes.Reader
	reads int
}

func (c *countingSource) Read(p []byte) (int, error) {
	c.reads++
	return c.Reader.Read(p)
}

// TestTSHReaderBuffersReads: the TSH reader reads its source through the
// buffered source, not once per 44-byte record, and stays resumable over
// a seekable source.
func TestTSHReaderBuffersReads(t *testing.T) {
	const n = 10000
	var buf bytes.Buffer
	w := NewTSHWriter(&buf)
	for i := 0; i < n; i++ {
		if err := w.WritePacket(&Packet{Sec: uint32(i), Data: ipv4Packet(uint32(i), 2, 16)}); err != nil {
			t.Fatal(err)
		}
	}
	src := &countingSource{Reader: bytes.NewReader(buf.Bytes())}
	r := NewTSHReader(src)
	pkts, err := ReadAll(r, 0)
	if err != nil || len(pkts) != n {
		t.Fatalf("read %d records, %v; want %d", len(pkts), err, n)
	}
	if max := n/1000 + 4; src.reads > max {
		t.Errorf("%d records took %d Read calls on the source, want <= %d", n, src.reads, max)
	}
	if st := r.PosState(); len(st) != 1 || st[0] != int64(buf.Len()) {
		t.Errorf("PosState at EOF = %v, want [%d]", st, buf.Len())
	}
}

func TestFormatDispatch(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, FormatTSH)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(&Packet{Data: ipv4Packet(1, 2, 0)}); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf, FormatTSH)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}

	buf.Reset()
	if _, err := NewWriter(&buf, FormatPcap); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(&buf, FormatPcap); err != nil {
		t.Fatal(err)
	}

	if _, err := NewReader(&buf, Format(99)); err == nil {
		t.Error("unknown format accepted by NewReader")
	}
	if _, err := NewWriter(&buf, Format(99)); err == nil {
		t.Error("unknown format accepted by NewWriter")
	}
	if FormatPcap.String() != "pcap" || FormatTSH.String() != "tsh" {
		t.Error("format names wrong")
	}
}

func TestReadAllLimit(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewPcapWriter(&buf)
	for i := 0; i < 10; i++ {
		_ = w.WritePacket(&Packet{Data: ipv4Packet(uint32(i), 1, 0)})
	}
	r, _ := NewPcapReader(&buf)
	got, err := ReadAll(r, 4)
	if err != nil || len(got) != 4 {
		t.Errorf("ReadAll(4) = %d packets, %v", len(got), err)
	}
}

func TestPcapUndersizedOrigLenRejected(t *testing.T) {
	// A record claiming origLen < inclLen is self-contradictory (a capture
	// cannot hold more bytes than were on the wire). plausibleHeader has
	// always rejected such headers during resync; recHeaderProblem must
	// reject them on the normal path too, as a typed malformed-record
	// error carrying the record's offset.
	build := func() *bytes.Buffer {
		var buf bytes.Buffer
		hdr := make([]byte, pcapHeaderLen)
		binary.LittleEndian.PutUint32(hdr[0:], pcapMagic)
		binary.LittleEndian.PutUint32(hdr[16:], 65536)
		binary.LittleEndian.PutUint32(hdr[20:], LinkTypeEthernet)
		buf.Write(hdr)

		ip := ipv4Packet(3, 4, 0)
		frame := make([]byte, ethernetHeaderLen+len(ip))
		binary.BigEndian.PutUint16(frame[12:], etherTypeIPv4)
		copy(frame[ethernetHeaderLen:], ip)
		rec := make([]byte, pcapRecordLen)
		binary.LittleEndian.PutUint32(rec[8:], uint32(len(frame)))
		binary.LittleEndian.PutUint32(rec[12:], 10) // lying origLen < inclLen
		buf.Write(rec)
		buf.Write(frame)
		return &buf
	}

	r, err := NewPcapReader(build())
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Next()
	var mr *MalformedRecordError
	if !errors.As(err, &mr) {
		t.Fatalf("undersized origLen err = %v, want *MalformedRecordError", err)
	}
	if mr.Offset != pcapHeaderLen {
		t.Errorf("Offset = %d, want %d", mr.Offset, pcapHeaderLen)
	}
	if !strings.Contains(mr.Reason, "original length") {
		t.Errorf("Reason = %q, want mention of original length", mr.Reason)
	}

	// Under skip mode the record is skipped like any other malformed one.
	r, err = NewPcapReader(build())
	if err != nil {
		t.Fatal(err)
	}
	r.SetSkipMalformed(NewSkipBudget(-1))
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("skip-mode Next = %v, want EOF (sole record skipped)", err)
	}
	if r.Skipped() != 1 {
		t.Errorf("Skipped = %d, want 1", r.Skipped())
	}
}

func TestPcapOverlongRecordErrors(t *testing.T) {
	build := func(snapLen, inclLen uint32) *bytes.Buffer {
		var buf bytes.Buffer
		hdr := make([]byte, pcapHeaderLen)
		binary.LittleEndian.PutUint32(hdr[0:], pcapMagic)
		binary.LittleEndian.PutUint32(hdr[16:], snapLen)
		binary.LittleEndian.PutUint32(hdr[20:], LinkTypeRaw)
		buf.Write(hdr)
		rec := make([]byte, pcapRecordLen)
		binary.LittleEndian.PutUint32(rec[8:], inclLen)
		binary.LittleEndian.PutUint32(rec[12:], inclLen)
		buf.Write(rec)
		return &buf
	}

	// Over the snap length: the message names the snap length.
	r, err := NewPcapReader(build(128, 256))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || !strings.Contains(err.Error(), "snap length 128") {
		t.Errorf("err = %v, want snap-length complaint", err)
	}

	// Over the absolute bound with snapLen == 0: must NOT claim
	// "exceeds snap length 0".
	r, err = NewPcapReader(build(0, 1<<25))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Next()
	if err == nil {
		t.Fatal("oversized record accepted")
	}
	if strings.Contains(err.Error(), "snap length") {
		t.Errorf("err %q blames the snap length for the absolute bound", err)
	}
	if !strings.Contains(err.Error(), "maximum supported length") {
		t.Errorf("err = %v, want maximum-length complaint", err)
	}
}

func TestSliceReader(t *testing.T) {
	pkts := []*Packet{
		{Data: ipv4Packet(1, 2, 0)},
		{Data: ipv4Packet(3, 4, 8)},
	}
	r := NewSliceReader(pkts)
	for i := range pkts {
		p, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if p != pkts[i] {
			t.Errorf("packet %d: wrong pointer", i)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("want EOF, got %v", err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("EOF not sticky: %v", err)
	}
}

// buildPcap serializes packets into an in-memory little-endian raw-IP
// capture and returns the bytes, so corruption tests can splice in junk.
func buildPcap(t *testing.T, pkts []*Packet) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewPcapWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestMalformedRecordErrorShape(t *testing.T) {
	pkts := []*Packet{{Sec: 1, Data: ipv4Packet(1, 2, 4)}}
	raw := buildPcap(t, pkts)
	// Corrupt the record's inclLen to an over-snap value.
	binary.LittleEndian.PutUint32(raw[pcapHeaderLen+8:], 1<<20)
	r, err := NewPcapReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Next()
	if err == nil {
		t.Fatal("corrupt record accepted")
	}
	if !errors.Is(err, ErrMalformedRecord) {
		t.Errorf("errors.Is(%v, ErrMalformedRecord) = false", err)
	}
	var merr *MalformedRecordError
	if !errors.As(err, &merr) {
		t.Fatalf("error %T is not a *MalformedRecordError", err)
	}
	if merr.Format != FormatPcap {
		t.Errorf("Format = %v", merr.Format)
	}
	if merr.Offset != pcapHeaderLen {
		t.Errorf("Offset = %d, want %d (first record)", merr.Offset, pcapHeaderLen)
	}
	if merr.Reason == "" {
		t.Error("empty Reason")
	}
	// An honest I/O failure must NOT read as corruption.
	if errors.Is(io.ErrClosedPipe, ErrMalformedRecord) {
		t.Error("unrelated error matches ErrMalformedRecord")
	}
}

func TestPcapSkipMalformedResync(t *testing.T) {
	pkts := []*Packet{
		{Sec: 1, Usec: 100, Data: ipv4Packet(0x0A000001, 0x0A000002, 40)},
		{Sec: 2, Usec: 200, Data: ipv4Packet(0x0A000003, 0x0A000004, 24)},
		{Sec: 3, Usec: 300, Data: ipv4Packet(0x0A000005, 0x0A000006, 60)},
	}
	raw := buildPcap(t, pkts)
	// Corrupt the middle record's inclLen: the reader must resync by
	// scanning over its (now unreachable) body to record 3's header.
	rec2 := pcapHeaderLen + pcapRecordLen + len(pkts[0].Data)
	binary.LittleEndian.PutUint32(raw[rec2+8:], 0xFFFFFFFF)

	// Default policy: fail fast with a typed error.
	r, err := NewPcapReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatalf("record 1: %v", err)
	}
	if _, err := r.Next(); !errors.Is(err, ErrMalformedRecord) {
		t.Fatalf("record 2: err = %v, want malformed", err)
	}

	// Skip-and-resync: records 1 and 3 survive, one record is skipped.
	r, err = NewPcapReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	r.SetSkipMalformed(NewSkipBudget(10))
	var got []*Packet
	for {
		p, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p)
	}
	if len(got) != 2 {
		t.Fatalf("recovered %d packets, want 2", len(got))
	}
	if got[0].Sec != 1 || got[1].Sec != 3 {
		t.Errorf("recovered packets Sec = %d, %d; want 1, 3", got[0].Sec, got[1].Sec)
	}
	if !bytes.Equal(got[1].Data, pkts[2].Data) {
		t.Error("resynced packet data differs from the original")
	}
	if r.Skipped() != 1 {
		t.Errorf("Skipped = %d, want 1", r.Skipped())
	}
}

func TestPcapSkipBudgetExhausted(t *testing.T) {
	pkts := make([]*Packet, 6)
	for i := range pkts {
		pkts[i] = &Packet{Sec: uint32(i + 1), Data: ipv4Packet(1, 2, 16)}
	}
	raw := buildPcap(t, pkts)
	// Corrupt records 2 and 5, separated by two good records so they cost
	// two distinct skips. (Closer spacings blur together: consecutive
	// corrupt records are jumped by a single resync scan, and a good
	// record directly before a corrupt one fails resync's
	// next-header confirmation and is sacrificed with it.)
	recLen := pcapRecordLen + len(pkts[0].Data)
	for _, i := range []int{1, 4} {
		binary.LittleEndian.PutUint32(raw[pcapHeaderLen+i*recLen+8:], 0xFFFFFFFF)
	}
	r, err := NewPcapReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	r.SetSkipMalformed(NewSkipBudget(1))
	var secs []uint32
	var lastErr error
	for {
		p, err := r.Next()
		if err != nil {
			lastErr = err
			break
		}
		secs = append(secs, p.Sec)
	}
	if !errors.Is(lastErr, ErrMalformedRecord) {
		t.Errorf("after budget exhaustion err = %v, want malformed", lastErr)
	}
	if want := []uint32{1, 3, 4}; len(secs) != 3 || secs[0] != 1 || secs[1] != 3 || secs[2] != 4 {
		t.Errorf("recovered secs %v, want %v (budget 1 covers record 2 only)", secs, want)
	}
	if r.Skipped() != 1 {
		t.Errorf("Skipped = %d, want 1", r.Skipped())
	}
}

func TestPcapSkipTruncatedTail(t *testing.T) {
	pkts := []*Packet{
		{Sec: 1, Data: ipv4Packet(1, 2, 8)},
		{Sec: 2, Data: ipv4Packet(3, 4, 8)},
	}
	raw := buildPcap(t, pkts)
	truncated := raw[:len(raw)-5] // cut into record 2's body

	r, err := NewPcapReader(bytes.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	_, err = r.Next()
	if !errors.Is(err, ErrMalformedRecord) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated body err = %v, want malformed wrapping unexpected EOF", err)
	}

	r, err = NewPcapReader(bytes.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	r.SetSkipMalformed(NewSkipBudget(0)) // unlimited
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("skip mode on truncated tail: err = %v, want EOF", err)
	}
	if r.Skipped() != 1 {
		t.Errorf("Skipped = %d, want 1", r.Skipped())
	}
}

func TestTSHSkipMalformed(t *testing.T) {
	var buf bytes.Buffer
	w := NewTSHWriter(&buf)
	for i := 0; i < 4; i++ {
		if err := w.WritePacket(&Packet{Sec: uint32(i + 1), Data: ipv4Packet(1, 2, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	raw := buf.Bytes()
	// Wreck record 2's IP version nibble and record 3's total length.
	raw[TSHRecordLen+8] = 0x60 // version 6
	binary.BigEndian.PutUint16(raw[2*TSHRecordLen+8+2:], 7)

	// Default: no validation, all four records come back (TSH has no
	// per-record magic; historical behavior is preserved).
	r := NewTSHReader(bytes.NewReader(raw))
	n := 0
	for {
		if _, err := r.Next(); err != nil {
			break
		}
		n++
	}
	if n != 4 {
		t.Fatalf("default mode read %d records, want 4", n)
	}

	// Skip mode: the two wrecked records are dropped.
	r = NewTSHReader(bytes.NewReader(raw))
	r.SetSkipMalformed(NewSkipBudget(5))
	var secs []uint32
	for {
		p, err := r.Next()
		if err != nil {
			break
		}
		secs = append(secs, p.Sec)
	}
	if len(secs) != 2 || secs[0] != 1 || secs[1] != 4 {
		t.Errorf("skip mode secs = %v, want [1 4]", secs)
	}
	if r.Skipped() != 2 {
		t.Errorf("Skipped = %d, want 2", r.Skipped())
	}

	// Budget 1: second corruption surfaces as a typed error.
	r = NewTSHReader(bytes.NewReader(raw))
	r.SetSkipMalformed(NewSkipBudget(1))
	var lastErr error
	for {
		if _, err := r.Next(); err != nil {
			lastErr = err
			break
		}
	}
	if !errors.Is(lastErr, ErrMalformedRecord) {
		t.Errorf("budget-exhausted err = %v, want malformed", lastErr)
	}
}
