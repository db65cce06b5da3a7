package trace

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// seekTestPackets builds n packets with strictly increasing timestamps
// and distinguishable payloads, suitable for every file format.
func seekTestPackets(n, base int) []*Packet {
	pkts := make([]*Packet, n)
	for i := range pkts {
		pkts[i] = &Packet{
			Sec:  uint32(base + 2*i),
			Usec: uint32(i % 1000000),
			Data: ipv4Packet(uint32(base+i), uint32(i+1), i%40),
		}
		pkts[i].WireLen = len(pkts[i].Data)
	}
	return pkts
}

// drainReader reads r to EOF, failing the test on any other error.
func drainReader(t *testing.T, r Reader) []*Packet {
	t.Helper()
	var out []*Packet
	for {
		p, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, p)
	}
}

// readN reads exactly n packets.
func readN(t *testing.T, r Reader, n int) []*Packet {
	t.Helper()
	out := make([]*Packet, 0, n)
	for len(out) < n {
		p, err := r.Next()
		if err != nil {
			t.Fatalf("Next after %d packets: %v", len(out), err)
		}
		out = append(out, p)
	}
	return out
}

func comparePackets(t *testing.T, name string, got, want []*Packet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d packets, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].Sec != want[i].Sec || got[i].Usec != want[i].Usec ||
			got[i].WireLen != want[i].WireLen || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("%s: packet %d differs:\ngot  %d.%06d len %d\nwant %d.%06d len %d",
				name, i, got[i].Sec, got[i].Usec, len(got[i].Data),
				want[i].Sec, want[i].Usec, len(want[i].Data))
		}
	}
}

// testSeekRoundTrip reads k packets off a fresh reader, captures its
// PosState, drains the rest as the expected tail, then seeks a second
// fresh reader to the state and checks it yields exactly the tail.
func testSeekRoundTrip(t *testing.T, name string, k int, newReader func(t *testing.T) Reader) {
	t.Helper()
	first := newReader(t)
	sk, ok := first.(Seeker)
	if !ok {
		t.Fatalf("%s: reader %T is not a Seeker", name, first)
	}
	readN(t, first, k)
	state := sk.PosState()
	if state == nil {
		t.Fatalf("%s: PosState is nil after %d packets", name, k)
	}
	want := drainReader(t, first)

	second := newReader(t)
	if err := second.(Seeker).SeekTo(state); err != nil {
		t.Fatalf("%s: SeekTo(%v): %v", name, state, err)
	}
	comparePackets(t, name, drainReader(t, second), want)
}

func writePcapFile(t *testing.T, pkts []*Packet) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seek.pcap")
	if err := os.WriteFile(path, buildPcap(t, pkts), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSliceReaderSeekRoundTrip(t *testing.T) {
	pkts := seekTestPackets(17, 0)
	for _, k := range []int{0, 1, 8, 17} {
		testSeekRoundTrip(t, "slice", k, func(t *testing.T) Reader { return NewSliceReader(pkts) })
	}
	r := NewSliceReader(pkts)
	if err := r.SeekTo([]int64{int64(len(pkts)) + 1}); err == nil {
		t.Error("out-of-range slice seek accepted")
	}
	if err := r.SeekTo([]int64{1, 2}); err == nil {
		t.Error("multi-element slice seek state accepted")
	}
}

// TestBytesPcapReaderSeekRoundTrip: a PcapReader over a bytes.Reader.
func TestBytesPcapReaderSeekRoundTrip(t *testing.T) {
	raw := buildPcap(t, seekTestPackets(13, 5))
	mk := func(t *testing.T) Reader { return pcapOf(t, raw) }
	for _, k := range []int{0, 1, 6, 13} {
		testSeekRoundTrip(t, "bytespcap", k, mk)
	}
	r := pcapOf(t, raw)
	if err := r.SeekTo([]int64{3}); err == nil {
		t.Error("seek into the pcap header accepted")
	}
}

func TestPcapFileReaderSeekRoundTrip(t *testing.T) {
	path := writePcapFile(t, seekTestPackets(13, 9))
	mk := func(t *testing.T) Reader {
		fr, err := OpenPcap(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fr.Close() })
		return fr
	}
	for _, k := range []int{0, 1, 7, 13} {
		testSeekRoundTrip(t, "pcapfile", k, mk)
	}
}

func TestTSHReaderSeekRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewTSHWriter(&buf)
	for _, p := range seekTestPackets(11, 3) {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	raw := buf.Bytes()
	mk := func(t *testing.T) Reader { return NewTSHReader(bytes.NewReader(raw)) }
	for _, k := range []int{0, 1, 5, 11} {
		testSeekRoundTrip(t, "tsh", k, mk)
	}
}

// TestSeekAfterReadAhead seeks a reader back to a state it passed while
// its source holds buffered bytes past its position, for both formats:
// SeekTo must discard them, or the reader would go on from where its
// buffer stopped.
func TestSeekAfterReadAhead(t *testing.T) {
	pkts := seekTestPackets(3000, 7)
	var tsh bytes.Buffer
	w := NewTSHWriter(&tsh)
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	pcapRaw := buildPcap(t, pkts)
	for name, mk := range map[string]func() Reader{
		"pcap": func() Reader { return pcapOf(t, pcapRaw) },
		"tsh":  func() Reader { return NewTSHReader(bytes.NewReader(tsh.Bytes())) },
	} {
		for _, k := range []int{0, 5, 1500} {
			first := mk()
			readN(t, first, k)
			state := first.(Seeker).PosState()
			want := drainReader(t, first)
			r := mk()
			readN(t, r, k+7)
			if err := r.(Seeker).SeekTo(state); err != nil {
				t.Fatalf("%s/k=%d: SeekTo(%v): %v", name, k, state, err)
			}
			if got := r.(Positioned).Pos(); got != state[0] {
				t.Errorf("%s/k=%d: Pos after SeekTo = %d, want %d", name, k, got, state[0])
			}
			comparePackets(t, fmt.Sprintf("%s/k=%d", name, k), drainReader(t, r), want)
		}
	}
}

// TestUnseekableSourcesNotResumable pins the contract that readers over
// sources that cannot seek report a nil PosState instead of a state that
// could not be restored.
func TestUnseekableSourcesNotResumable(t *testing.T) {
	raw := buildPcap(t, seekTestPackets(3, 0))
	// bytes.Buffer is an io.Reader but not an io.Seeker: a stand-in for
	// a network stream.
	pr, err := NewPcapReader(bytes.NewBuffer(raw))
	if err != nil {
		t.Fatal(err)
	}
	if st := pr.PosState(); st != nil {
		t.Errorf("pcap over stream: PosState = %v, want nil", st)
	}
	if err := pr.SeekTo([]int64{int64(pcapHeaderLen)}); err == nil {
		t.Error("pcap over stream: SeekTo succeeded")
	}
	tr := NewTSHReader(&bytes.Buffer{})
	if st := tr.PosState(); st != nil {
		t.Errorf("TSH over stream: PosState = %v, want nil", st)
	}
}

func TestMergeReaderSeekRoundTrip(t *testing.T) {
	// Two shards with interleaving timestamps: shard 0 holds even
	// seconds, shard 1 odd, so the merge alternates between them and a
	// mid-stream state catches shards at different depths.
	a := seekTestPackets(9, 0) // Sec 0,2,4,...
	b := seekTestPackets(7, 1) // Sec 1,3,5,...
	pathA, pathB := writePcapFile(t, a), writePcapFile(t, b)
	mk := func(t *testing.T) Reader {
		ra, err := OpenPcap(pathA)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ra.Close() })
		rb, err := OpenPcap(pathB)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rb.Close() })
		return NewMergeReader(ra, rb)
	}
	for _, k := range []int{0, 1, 8, 16} {
		testSeekRoundTrip(t, "merge", k, mk)
	}

	// The state is per-shard: one element each, even mid-stream where a
	// buffered head makes the shard's own position one packet ahead.
	m := mk(t).(*MergeReader)
	readN(t, m, 5)
	if st := m.PosState(); len(st) != 2 {
		t.Fatalf("merge PosState = %v, want 2 elements", st)
	}
	if err := m.SeekTo([]int64{int64(pcapHeaderLen)}); err == nil {
		t.Error("merge seek with wrong shard count accepted")
	}
}

// TestMergeReaderPosStateNilShard: a merge over any unseekable shard is
// not resumable as a whole.
func TestMergeReaderPosStateNilShard(t *testing.T) {
	raw := buildPcap(t, seekTestPackets(3, 0))
	stream, err := NewPcapReader(bytes.NewBuffer(raw))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMergeReader(NewSliceReader(seekTestPackets(3, 1)), stream)
	if st := m.PosState(); st != nil {
		t.Errorf("merge over stream shard: PosState = %v, want nil", st)
	}
}

// TestMergeReaderProgressPartialTotals: the merge reports a fraction
// over the shards that know their size, and unknown only when none do.
func TestMergeReaderProgressPartialTotals(t *testing.T) {
	raw := buildPcap(t, seekTestPackets(8, 0))
	known := pcapOf(t, raw)
	unknown := NewTSHReader(&bytes.Buffer{}) // no SetTotal: size unknown
	m := NewMergeReader(known, unknown)
	if f, ok := m.Progress(); !ok || f < 0 || f > 1 {
		t.Errorf("partial-totals Progress = %v, %v; want known fraction", f, ok)
	}
	drainReader(t, m)
	if f, ok := m.Progress(); !ok || f != 1 {
		t.Errorf("drained Progress = %v, %v; want 1, true", f, ok)
	}
	none := NewMergeReader(NewTSHReader(&bytes.Buffer{}))
	if _, ok := none.Progress(); ok {
		t.Error("merge with no known totals reported progress")
	}
}
