package trace

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// slabCorpus returns n raw-IP packets of 28 to 1,499 bytes, enough to
// span several body chunks and, past packetChunk, several Packet chunks.
func slabCorpus(n int) []*Packet {
	pkts := make([]*Packet, n)
	for i := range pkts {
		pkts[i] = &Packet{Sec: uint32(i), Usec: uint32(i % 1000), Data: ipv4Packet(uint32(i), 2, i*7%1472)}
	}
	return pkts
}

// TestCarvedPacketsDoNotAlias: on pcap and TSH, appending to one
// packet's Data never changes another packet.
func TestCarvedPacketsDoNotAlias(t *testing.T) {
	src := slabCorpus(packetChunk + 300)
	raw := buildPcap(t, src)
	var tsh bytes.Buffer
	w := NewTSHWriter(&tsh)
	for i := 0; i < bodyChunk/tshHeaderBytes+100; i++ {
		if err := w.WritePacket(&Packet{Sec: uint32(i), Data: ipv4Packet(uint32(i), 2, 16)}); err != nil {
			t.Fatal(err)
		}
	}
	readers := map[string]Reader{
		"tsh":  NewTSHReader(bytes.NewReader(tsh.Bytes())),
		"pcap": pcapOf(t, raw),
	}
	for name, r := range readers {
		got, err := ReadAll(r, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name != "tsh" {
			if len(got) != len(src) {
				t.Fatalf("%s: %d packets, want %d", name, len(got), len(src))
			}
			for i := range src {
				if !bytes.Equal(got[i].Data, src[i].Data) {
					t.Fatalf("%s: packet %d read back wrong", name, i)
				}
			}
		}
		var kept keptPackets
		for _, p := range got {
			kept.add(p)
		}
		kept.check(t)
	}
}

// TestBufferedPacketsOutliveClose: packets from a pcap file opened with
// OpenPcap and from a TSH file keep the bytes they were returned with
// through later reads, Close, a collection, and a rewrite of the file.
// Both files are larger than the source's buffer, so a packet that
// aliased the buffer would change when it refills.
func TestBufferedPacketsOutliveClose(t *testing.T) {
	src := slabCorpus(4000)
	var tsh bytes.Buffer
	w := NewTSHWriter(&tsh)
	for _, p := range src {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	pcapPath, tshPath := filepath.Join(dir, "t.pcap"), filepath.Join(dir, "t.tsh")
	if err := os.WriteFile(pcapPath, buildPcap(t, src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tshPath, tsh.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	openTSH := func(path string) (Reader, io.Closer, error) {
		f, err := os.Open(path)
		return NewTSHReader(f), f, err
	}
	openPcap := func(path string) (Reader, io.Closer, error) {
		r, err := OpenPcap(path)
		return r, r, err
	}
	for _, tc := range []struct {
		path string
		open func(string) (Reader, io.Closer, error)
	}{{pcapPath, openPcap}, {tshPath, openTSH}} {
		r, c, err := tc.open(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		var kept keptPackets
		for {
			p, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			kept.add(p)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tc.path, make([]byte, 1<<20), 0o644); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		if len(kept.pkts) != len(src) {
			t.Fatalf("%s: %d packets, want %d", tc.path, len(kept.pkts), len(src))
		}
		kept.check(t)
	}
}

// TestBufferedReadAllAllocatesPerChunk: a buffered preload allocates per
// chunk, not per packet: at most N/100 + c allocations for N packets.
func TestBufferedReadAllAllocatesPerChunk(t *testing.T) {
	const n = 10000
	raw := buildPcap(t, slabCorpus(n))
	allocs := testing.AllocsPerRun(2, func() {
		r, err := NewPcapReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if pkts, err := ReadAll(r, 0); err != nil || len(pkts) != n {
			t.Fatalf("read %d packets, %v", len(pkts), err)
		}
	})
	if allocs > n/100+16 {
		t.Errorf("ReadAll of %d buffered packets made %v allocations, want <= %d", n, allocs, n/100+16)
	}
}

// TestMergeNextAllocatesNothing: a merge reads each shard's position
// without allocating, so a 2-shard merge of in-memory pcaps makes no
// allocation per Next beyond its shards' chunks.
func TestMergeNextAllocatesNothing(t *testing.T) {
	var shards []Reader
	for s := 0; s < 2; s++ {
		shards = append(shards, pcapOf(t, buildPcap(t, seekTestPackets(4096, s))))
	}
	m := NewMergeReader(shards...)
	allocs := testing.AllocsPerRun(4000, func() {
		if _, err := m.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per merged Next, want 0", allocs)
	}
}

// TestPcapWriterAllocatesNothing: writing a record allocates nothing.
func TestPcapWriterAllocatesNothing(t *testing.T) {
	w, err := NewPcapWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	p := seekTestPackets(1, 0)[0]
	allocs := testing.AllocsPerRun(1000, func() {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per written packet, want 0", allocs)
	}
}
