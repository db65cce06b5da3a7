package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// --- reader bugfix regressions -----------------------------------------

// TestPcapResyncExhaustedTyped pins the resync-exhaustion error shape:
// it must be a *MalformedRecordError carrying the corrupt record's offset,
// like every other malformed-record path, not a bare wrapped sentinel.
func TestPcapResyncExhaustedTyped(t *testing.T) {
	pkts := []*Packet{{Sec: 1, Data: ipv4Packet(1, 2, 8)}}
	raw := buildPcap(t, pkts)
	corruptOff := int64(len(raw))
	// A corrupt record header followed by more than a full resync window
	// of bytes that never form a plausible header (usec field stays
	// 0xFFFFFFFF >= 1e6).
	rec := make([]byte, pcapRecordLen)
	binary.LittleEndian.PutUint32(rec[8:], 0xFFFFFFFF)
	raw = append(raw, rec...)
	raw = append(raw, bytes.Repeat([]byte{0xFF}, pcapResyncWindow+64)...)

	r, err := NewPcapReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	r.SetSkipMalformed(NewSkipBudget(-1))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	_, err = r.Next()
	var mr *MalformedRecordError
	if !errors.As(err, &mr) {
		t.Fatalf("resync exhaustion err = %v, want *MalformedRecordError", err)
	}
	if mr.Offset != corruptOff {
		t.Errorf("Offset = %d, want corrupt record start %d", mr.Offset, corruptOff)
	}
	if !strings.Contains(mr.Reason, "no plausible record header") {
		t.Errorf("Reason = %q, want resync exhaustion reason", mr.Reason)
	}
	if !errors.Is(err, ErrMalformedRecord) {
		t.Error("resync exhaustion does not unwrap to ErrMalformedRecord")
	}
}

// pcapOf opens raw as OpenPcap opens a file: a PcapReader over a
// seekable source, with Total set to the input's size.
func pcapOf(t *testing.T, raw []byte) *PcapReader {
	t.Helper()
	r, err := NewPcapReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	r.SetTotal(int64(len(raw)))
	return r
}

// resyncCandidatePcap builds a capture with no snap bound (so oversize
// candidates stay length-plausible and only confirmability decides): one
// good record, a corrupt record header, then a plausible candidate header
// claiming incl body bytes, followed by body bytes of filler.
func resyncCandidatePcap(incl uint32, body int, filler byte) []byte {
	var buf bytes.Buffer
	hdr := make([]byte, pcapHeaderLen)
	binary.LittleEndian.PutUint32(hdr[0:], pcapMagic)
	binary.LittleEndian.PutUint32(hdr[20:], LinkTypeRaw)
	buf.Write(hdr)
	good := ipv4Packet(1, 2, 8)
	rec := make([]byte, pcapRecordLen)
	binary.LittleEndian.PutUint32(rec[0:], 1)
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(good)))
	binary.LittleEndian.PutUint32(rec[12:], uint32(len(good)))
	buf.Write(rec)
	buf.Write(good)
	corrupt := make([]byte, pcapRecordLen)
	binary.LittleEndian.PutUint32(corrupt[8:], 0xFFFFFFFF)
	buf.Write(corrupt)
	cand := make([]byte, pcapRecordLen)
	binary.LittleEndian.PutUint32(cand[0:], 2) // sec
	binary.LittleEndian.PutUint32(cand[8:], incl)
	binary.LittleEndian.PutUint32(cand[12:], incl) // orig
	buf.Write(cand)
	buf.Write(bytes.Repeat([]byte{filler}, body))
	return buf.Bytes()
}

// TestPcapResyncRejectsUnconfirmableCandidate covers the stale-recOff /
// unconfirmed-candidate interaction: a resync scan that slides onto a
// header whose claimed body exceeds the lookahead must reject it (it
// cannot be confirmed) rather than lock on. On the
// pre-fix reader the candidate was accepted unconfirmed and its truncated
// body surfaced as a malformed-body error attributed to the original
// corrupt record's offset — both the acceptance and the offset were wrong.
func TestPcapResyncRejectsUnconfirmableCandidate(t *testing.T) {
	// Only part of the claimed body follows (enough to fill the lookahead
	// so the end is not visible) before EOF.
	raw := resyncCandidatePcap(pcapBufSize*2, pcapBufSize+1024, 0xFF)
	r := pcapOf(t, raw)
	r.SetSkipMalformed(NewSkipBudget(1))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	// The candidate is unconfirmable, the scan runs to EOF, and the
	// corrupt tail is absorbed by the skip that was already consumed.
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("Next = %v, want EOF (unconfirmable candidate rejected)", err)
	}
	if r.Skipped() != 1 {
		t.Errorf("Skipped = %d, want 1", r.Skipped())
	}
}

// TestPcapResyncLookaheadRule pins the lookahead rule at its boundary: a
// resync candidate that is exactly the final record is confirmed only
// while its body plus one record header fits in pcapBufSize bytes, so it
// is rejected from pcapBufSize-15 upward.
func TestPcapResyncLookaheadRule(t *testing.T) {
	const c = pcapBufSize
	for _, incl := range []int{c - 16, c - 15, c - 8, c - 1, c, c + 8} {
		raw := resyncCandidatePcap(uint32(incl), incl, 0)
		want := 1
		if incl+pcapRecordLen <= pcapBufSize {
			want = 2
		}
		r := pcapOf(t, raw)
		r.SetSkipMalformed(NewSkipBudget(1))
		got, err := ReadAll(r, 0)
		if err != nil {
			t.Fatalf("incl=%d: %v", incl, err)
		}
		if len(got) != want {
			t.Errorf("incl=%d: %d packets, want %d", incl, len(got), want)
		}
		if r.Pos() != int64(len(raw)) || r.Skipped() != 1 {
			t.Errorf("incl=%d: Pos %d Skipped %d, want %d and 1", incl, r.Pos(), r.Skipped(), len(raw))
		}
	}
}

// TestPcapWriterSnapLenMatchesReader pins bugfix c: the writer's declared
// snap length must equal the reader's maximum supported record length, so
// every record the writer accepts reads back instead of being rejected by
// recHeaderProblem as over-snap.
func TestPcapWriterSnapLenMatchesReader(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewPcapWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if snap := binary.LittleEndian.Uint32(buf.Bytes()[16:]); snap != pcapMaxRecordLen {
		t.Errorf("declared snaplen = %d, want %d", snap, pcapMaxRecordLen)
	}

	// A >64 KiB packet: rejected as over-snap on read-back pre-fix.
	big := ipv4Packet(9, 10, 70000)
	if err := w.WritePacket(&Packet{Sec: 7, Data: big}); err != nil {
		t.Fatal(err)
	}
	r, err := NewPcapReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Next()
	if err != nil {
		t.Fatalf("reading back 70000-byte record: %v", err)
	}
	if !bytes.Equal(p.Data, big) {
		t.Error("big record data corrupted in round trip")
	}

	// The writer still rejects what the reader could never accept.
	err = w.WritePacket(&Packet{Data: make([]byte, pcapMaxRecordLen+1)})
	if err == nil {
		t.Error("over-maximum packet accepted by writer")
	}
}

// TestSkipBudgetSemanticsShared pins the budget semantics both formats
// now share through skipState: <= 0 unlimited, > 0 an exact cap, with
// Skipped reporting the count.
func TestSkipBudgetSemanticsShared(t *testing.T) {
	var s skipState
	if s.consumeSkip() {
		t.Error("skip consumed while disabled")
	}
	s.SetSkipMalformed(NewSkipBudget(2))
	for i := 0; i < 2; i++ {
		if !s.consumeSkip() {
			t.Fatalf("skip %d rejected within budget", i+1)
		}
	}
	if s.consumeSkip() {
		t.Error("skip consumed beyond budget")
	}
	if s.Skipped() != 2 {
		t.Errorf("Skipped = %d, want 2", s.Skipped())
	}
	var unlimited skipState
	unlimited.SetSkipMalformed(NewSkipBudget(0))
	for i := 0; i < 100; i++ {
		if !unlimited.consumeSkip() {
			t.Fatalf("unlimited budget refused skip %d", i)
		}
	}

	// A shared budget caps the readers together, preloaded skips count
	// against it, and a budget preloaded to its limit refuses the next
	// skip instead of turning unlimited.
	shared := NewSkipBudget(4)
	shared.Preload(1)
	var a, b skipState
	a.SetSkipMalformed(shared)
	b.SetSkipMalformed(shared)
	if !a.consumeSkip() || !b.consumeSkip() || !a.consumeSkip() {
		t.Fatal("shared budget refused a skip within its limit")
	}
	if b.consumeSkip() || a.consumeSkip() {
		t.Error("shared budget allowed a skip beyond its limit")
	}
	if a.Skipped() != 2 || b.Skipped() != 1 || shared.Used() != 4 {
		t.Errorf("Skipped = %d, %d, Used = %d; want 2, 1, 4", a.Skipped(), b.Skipped(), shared.Used())
	}
	spent := NewSkipBudget(3)
	spent.Preload(3)
	var c skipState
	c.SetSkipMalformed(spent)
	if c.consumeSkip() {
		t.Error("a budget preloaded to its limit allowed a skip")
	}

	// Cross-format parity: budget 2 against 3 malformed records behaves
	// identically for pcap and TSH — two skips, then a typed error.
	// Corruptions at records 1, 4, 7 are spaced by two good records so
	// each costs exactly one pcap skip (resync confirmation needs the
	// record after the recovered one to be intact too).
	var pcapBuf bytes.Buffer
	w, _ := NewPcapWriter(&pcapBuf)
	good := ipv4Packet(1, 2, 4)
	for i := 0; i < 10; i++ {
		_ = w.WritePacket(&Packet{Sec: uint32(i), Data: good})
	}
	raw := pcapBuf.Bytes()
	recLen := pcapRecordLen + len(good)
	for _, i := range []int{1, 4, 7} {
		binary.LittleEndian.PutUint32(raw[pcapHeaderLen+i*recLen+8:], 0xFFFFFFFF)
	}
	pr, err := NewPcapReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	pr.SetSkipMalformed(NewSkipBudget(2))

	var tshBuf bytes.Buffer
	tw := NewTSHWriter(&tshBuf)
	for i := 0; i < 10; i++ {
		_ = tw.WritePacket(&Packet{Sec: uint32(i), Data: good})
	}
	traw := tshBuf.Bytes()
	for _, i := range []int{1, 4, 7} {
		traw[i*TSHRecordLen+8] = 0x60 // IP version 6
	}
	tr := NewTSHReader(bytes.NewReader(traw))
	tr.SetSkipMalformed(NewSkipBudget(2))

	for name, r := range map[string]interface {
		Reader
		Skipped() int
	}{"pcap": pr, "tsh": tr} {
		n := 0
		var last error
		for {
			_, err := r.Next()
			if err != nil {
				last = err
				break
			}
			n++
		}
		if !errors.Is(last, ErrMalformedRecord) {
			t.Errorf("%s: err after budget = %v, want malformed", name, last)
		}
		if r.Skipped() != 2 {
			t.Errorf("%s: Skipped = %d, want 2", name, r.Skipped())
		}
		// Records 0, 2, 3, 5, 6 are recovered; the third corruption at
		// record 7 exhausts the budget and errors.
		if n != 5 {
			t.Errorf("%s: recovered %d packets, want 5", name, n)
		}
	}
}

// --- batch / file reader equivalence ------------------------------------

// TestReadBatchEquivalence checks ReadBatch yields the same stream as
// Next on every reader, for batch sizes around the interesting
// boundaries.
func TestReadBatchEquivalence(t *testing.T) {
	var pkts []*Packet
	for i := 0; i < 37; i++ {
		pkts = append(pkts, &Packet{Sec: uint32(i), Data: ipv4Packet(uint32(i), 1, 8)})
	}
	raw := buildPcap(t, pkts)
	var tshBuf bytes.Buffer
	tw := NewTSHWriter(&tshBuf)
	for _, p := range pkts {
		if err := tw.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}

	readers := map[string]func() Reader{
		"pcap":  func() Reader { return pcapOf(t, raw) },
		"tsh":   func() Reader { return NewTSHReader(bytes.NewReader(tshBuf.Bytes())) },
		"slice": func() Reader { return NewSliceReader(pkts) },
		"merge": func() Reader { return NewMergeReader(pcapOf(t, raw)) },
	}
	for name, mk := range readers {
		want, err := ReadAll(mk(), 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, size := range []int{1, 3, 37, 64} {
			r := mk()
			var got []*Packet
			dst := make([]*Packet, size)
			for {
				n, err := ReadBatch(r, dst)
				got = append(got, dst[:n]...)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("%s/batch=%d: %v", name, size, err)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s/batch=%d: %d packets, want %d", name, size, len(got), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(want[i], got[i]) {
					t.Fatalf("%s/batch=%d: packet %d differs", name, size, i)
				}
			}
		}
	}
}

// TestOpenPcapEquivalence checks the file-level entry point agrees with
// reading the raw bytes.
func TestOpenPcapEquivalence(t *testing.T) {
	var pkts []*Packet
	for i := 0; i < 20; i++ {
		pkts = append(pkts, &Packet{Sec: uint32(i), Usec: 3, Data: ipv4Packet(uint32(i), 2, 16)})
	}
	raw := buildPcap(t, pkts)
	path := filepath.Join(t.TempDir(), "t.pcap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenPcap(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total() != int64(len(raw)) {
		t.Errorf("Total = %d, want %d", r.Total(), len(raw))
	}
	if lt := r.LinkType(); lt != LinkTypeRaw {
		t.Errorf("LinkType = %d, want %d", lt, LinkTypeRaw)
	}
	got, err := ReadAll(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pkts) {
		t.Fatalf("%d packets, want %d", len(got), len(pkts))
	}
	for i := range pkts {
		if !bytes.Equal(got[i].Data, pkts[i].Data) {
			t.Fatalf("packet %d data differs", i)
		}
	}
	if r.Pos() != int64(len(raw)) {
		t.Errorf("Pos at EOF = %d, want %d", r.Pos(), len(raw))
	}
	if err := r.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// --- merge reader ------------------------------------------------------

func slicesOf(secs ...uint32) []*Packet {
	out := make([]*Packet, len(secs))
	for i, s := range secs {
		out[i] = &Packet{Sec: s, Data: ipv4Packet(s, 1, 0), WireLen: 28}
	}
	return out
}

func TestMergeReaderOrdersByTimestamp(t *testing.T) {
	m := NewMergeReader(
		NewSliceReader(slicesOf(1, 4, 7)),
		NewSliceReader(slicesOf(2, 5, 8)),
		NewSliceReader(slicesOf(3, 6, 9)),
	)
	got, err := ReadAll(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range got {
		if p.Sec != uint32(i+1) {
			t.Fatalf("packet %d Sec = %d, want %d", i, p.Sec, i+1)
		}
	}
	if len(got) != 9 {
		t.Fatalf("merged %d packets, want 9", len(got))
	}
}

func TestMergeReaderUsecAndTieBreak(t *testing.T) {
	a := []*Packet{{Sec: 1, Usec: 500, Data: []byte{1}}, {Sec: 2, Usec: 0, Data: []byte{3}}}
	b := []*Packet{{Sec: 1, Usec: 200, Data: []byte{0}}, {Sec: 2, Usec: 0, Data: []byte{2}}}
	// Shard order (a, b): the Sec=2 tie must go to shard a (lower index).
	m := NewMergeReader(NewSliceReader(a), NewSliceReader(b))
	got, err := ReadAll(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ids []byte
	for _, p := range got {
		ids = append(ids, p.Data[0])
	}
	want := []byte{0, 1, 3, 2} // usec orders 0<1; tie at Sec=2 keeps shard a's packet first
	if !bytes.Equal(ids, want) {
		t.Errorf("merge order %v, want %v", ids, want)
	}
}

func TestMergeReaderSingleShardTransparent(t *testing.T) {
	pkts := slicesOf(5, 6, 7)
	m := NewMergeReader(NewSliceReader(pkts))
	got, err := ReadAll(m, 0)
	if err != nil || len(got) != 3 {
		t.Fatalf("ReadAll = %d pkts, %v", len(got), err)
	}
	for i := range pkts {
		if !reflect.DeepEqual(pkts[i], got[i]) {
			t.Fatalf("packet %d differs through single-shard merge", i)
		}
	}
	if m.Pos() != 3 || m.Total() != 3 {
		t.Errorf("Pos/Total = %d/%d, want 3/3", m.Pos(), m.Total())
	}
}

func TestMergeReaderErrorPropagation(t *testing.T) {
	raw := buildPcap(t, slicesOf(1, 2, 3))
	binary.LittleEndian.PutUint32(raw[pcapHeaderLen+8:], 0xFFFFFFFF) // corrupt shard B's first record
	m := NewMergeReader(NewSliceReader(slicesOf(10, 11)), pcapOf(t, raw))
	var mr *MalformedRecordError
	if _, err := m.Next(); !errors.As(err, &mr) {
		t.Fatalf("merge Next = %v, want shard's typed malformed error", err)
	}
	// The failing shard is dropped; the healthy shard still drains.
	rest, err := ReadAll(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 2 || rest[0].Sec != 10 || rest[1].Sec != 11 {
		t.Errorf("after shard error, drained %d packets (%v), want shard A's 2", len(rest), rest)
	}
}

func TestMergeReaderPositionedAndSkipped(t *testing.T) {
	rawA := buildPcap(t, slicesOf(1, 3))
	rawB := buildPcap(t, slicesOf(2, 4))
	a, b := pcapOf(t, rawA), pcapOf(t, rawB)
	a.SetSkipMalformed(NewSkipBudget(-1))
	m := NewMergeReader(a, b)
	if m.Total() != int64(len(rawA)+len(rawB)) {
		t.Errorf("Total = %d, want %d", m.Total(), len(rawA)+len(rawB))
	}
	if _, err := ReadAll(m, 0); err != nil {
		t.Fatal(err)
	}
	if m.Pos() != m.Total() {
		t.Errorf("Pos at EOF = %d, want Total %d", m.Pos(), m.Total())
	}
	if m.Skipped() != 0 {
		t.Errorf("Skipped = %d, want 0", m.Skipped())
	}
	// A shard without Positioned makes Total unknown but Pos still sums.
	m2 := NewMergeReader(NewSliceReader(slicesOf(1)), opaqueReader{NewSliceReader(slicesOf(2))})
	if m2.Total() != 0 {
		t.Errorf("Total with opaque shard = %d, want 0", m2.Total())
	}
}

// TestMergeReaderSkippedMatchesPosState: a shard whose buffered head lies
// past a skipped record reports that skip only once the head is handed
// out, so Skipped always counts the skips behind PosState.
func TestMergeReaderSkippedMatchesPosState(t *testing.T) {
	rawB := buildPcap(t, slicesOf(0, 50, 100, 101))
	const rec = 16 + 28
	binary.LittleEndian.PutUint32(rawB[pcapHeaderLen+rec+8:], 0xFFFFFFF0)
	a, b := pcapOf(t, buildPcap(t, slicesOf(1, 2, 3))), pcapOf(t, rawB)
	b.SetSkipMalformed(NewSkipBudget(0))
	m := NewMergeReader(a, b)
	if p, err := m.Next(); err != nil || p.Sec != 0 {
		t.Fatalf("first packet: %v, %v", p, err)
	}
	if b.Skipped() != 1 {
		t.Fatalf("shard skipped %d records refilling its head, want 1", b.Skipped())
	}
	if got, pos := m.Skipped(), m.PosState(); got != 0 || pos[1] != pcapHeaderLen+rec {
		t.Errorf("Skipped = %d at PosState %v, want 0 at shard 1 offset %d", got, pos, pcapHeaderLen+rec)
	}
	if _, err := ReadAll(m, 0); err != nil {
		t.Fatal(err)
	}
	if m.Skipped() != 1 {
		t.Errorf("Skipped at EOF = %d, want 1", m.Skipped())
	}
}

// opaqueReader hides everything but Next, to model shards without
// position reporting.
type opaqueReader struct{ r Reader }

func (r opaqueReader) Next() (*Packet, error) { return r.r.Next() }
