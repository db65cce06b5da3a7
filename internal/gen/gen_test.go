package gen

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/packet"
	"repro/internal/trace"
)

func TestProfilesMatchTableI(t *testing.T) {
	ps := Profiles()
	if len(ps) != 4 {
		t.Fatalf("got %d profiles, want 4", len(ps))
	}
	want := []struct {
		name    string
		link    string
		packets int
	}{
		{"MRA", "OC-12c (PoS)", 4643333},
		{"COS", "OC-3c (ATM)", 2183310},
		{"ODU", "OC-3c (ATM)", 784278},
		{"LAN", "100Mbps (Ethernet)", 100000},
	}
	for i, w := range want {
		if ps[i].Name != w.name || ps[i].Link != w.link || ps[i].Packets != w.packets {
			t.Errorf("profile %d = %s/%s/%d, want %s/%s/%d",
				i, ps[i].Name, ps[i].Link, ps[i].Packets, w.name, w.link, w.packets)
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("MRA")
	if err != nil || p.Name != "MRA" {
		t.Errorf("ProfileByName(MRA) = %v, %v", p.Name, err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestGenerateValidPackets(t *testing.T) {
	for _, prof := range Profiles() {
		t.Run(prof.Name, func(t *testing.T) {
			pkts := Generate(prof, 500)
			if len(pkts) != 500 {
				t.Fatalf("generated %d packets", len(pkts))
			}
			for i, p := range pkts {
				h, err := packet.ParseIPv4(p.Data)
				if err != nil {
					t.Fatalf("packet %d invalid: %v", i, err)
				}
				if !packet.VerifyChecksum(p.Data[:h.HeaderLen()]) {
					t.Fatalf("packet %d has bad checksum", i)
				}
				if int(h.TotalLen) != len(p.Data) {
					t.Errorf("packet %d total length %d != data length %d", i, h.TotalLen, len(p.Data))
				}
				if p.WireLen != len(p.Data) {
					t.Errorf("packet %d wire %d != len %d", i, p.WireLen, len(p.Data))
				}
				switch h.Protocol {
				case packet.ProtoTCP, packet.ProtoUDP, packet.ProtoICMP:
				default:
					t.Errorf("packet %d has unexpected protocol %d", i, h.Protocol)
				}
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	prof, _ := ProfileByName("COS")
	a := Generate(prof, 200)
	b := Generate(prof, 200)
	for i := range a {
		if a[i].Sec != b[i].Sec || a[i].Usec != b[i].Usec {
			t.Fatalf("packet %d timestamps differ", i)
		}
		if string(a[i].Data) != string(b[i].Data) {
			t.Fatalf("packet %d bytes differ between runs", i)
		}
	}
}

func TestGenerateFlowMix(t *testing.T) {
	// The flow classifier's behaviour depends on seeing repeated flows:
	// with NewFlowProb ~0.1, far fewer distinct 5-tuples than packets.
	prof, _ := ProfileByName("MRA")
	pkts := Generate(prof, 2000)
	flows := make(map[packet.FiveTuple]int)
	for _, p := range pkts {
		ft, err := packet.ExtractFiveTuple(p.Data)
		if err != nil {
			t.Fatal(err)
		}
		flows[ft]++
	}
	if len(flows) >= len(pkts) {
		t.Errorf("every packet is its own flow (%d flows / %d packets)", len(flows), len(pkts))
	}
	if len(flows) < 50 {
		t.Errorf("too few distinct flows: %d", len(flows))
	}
	// Some flow must repeat (heavy hitters).
	max := 0
	for _, n := range flows {
		if n > max {
			max = n
		}
	}
	if max < 5 {
		t.Errorf("no flow repeated at least 5 times (max %d)", max)
	}
}

func TestGenerateProtocolMixRoughlyMatches(t *testing.T) {
	prof, _ := ProfileByName("MRA")
	pkts := Generate(prof, 5000)
	var tcp, udp, icmp int
	for _, p := range pkts {
		h, _ := packet.ParseIPv4(p.Data)
		switch h.Protocol {
		case packet.ProtoTCP:
			tcp++
		case packet.ProtoUDP:
			udp++
		case packet.ProtoICMP:
			icmp++
		}
	}
	if frac := float64(tcp) / 5000; frac < 0.75 || frac > 0.97 {
		t.Errorf("TCP fraction = %.2f, want ~0.88", frac)
	}
	if udp == 0 || icmp == 0 {
		t.Errorf("protocol mix degenerate: tcp=%d udp=%d icmp=%d", tcp, udp, icmp)
	}
}

func TestGenerateAddressDiversityByProfile(t *testing.T) {
	// Backbone traces must show much more address diversity than the LAN.
	count := func(name string) int {
		prof, _ := ProfileByName(name)
		pkts := Generate(prof, 3000)
		addrs := make(map[uint32]struct{})
		for _, p := range pkts {
			h, _ := packet.ParseIPv4(p.Data)
			addrs[h.Src] = struct{}{}
			addrs[h.Dst] = struct{}{}
		}
		return len(addrs)
	}
	mra, lan := count("MRA"), count("LAN")
	if mra <= lan {
		t.Errorf("MRA address diversity (%d) not above LAN (%d)", mra, lan)
	}
}

func TestRenumberNLANR(t *testing.T) {
	prof, _ := ProfileByName("ODU")
	pkts := Generate(prof, 300)
	RenumberNLANR(pkts)
	// First packet's src must be 10.0.0.1 (first address encountered).
	h, err := packet.ParseIPv4(pkts[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if h.Src != 0x0A000001 {
		t.Errorf("first renumbered address = %v, want 10.0.0.1", packet.V4Addr(h.Src))
	}
	// All addresses must fall in a dense low range and checksums must
	// still verify.
	maxAddr := uint32(0)
	for i, p := range pkts {
		h, err := packet.ParseIPv4(p.Data)
		if err != nil {
			t.Fatal(err)
		}
		if !packet.VerifyChecksum(p.Data[:h.HeaderLen()]) {
			t.Fatalf("packet %d checksum broken by renumbering", i)
		}
		for _, a := range []uint32{h.Src, h.Dst} {
			if a < 0x0A000001 {
				t.Fatalf("address %v below 10.0.0.1", packet.V4Addr(a))
			}
			if a > maxAddr {
				maxAddr = a
			}
		}
	}
	// 300 packets can introduce at most 600 distinct addresses.
	if maxAddr >= 0x0A000001+600 {
		t.Errorf("renumbered addresses not dense: max %v", packet.V4Addr(maxAddr))
	}
	// Renumbering must be consistent: same original address, same result.
	// Regenerate and renumber again; identical output expected.
	again := Generate(prof, 300)
	RenumberNLANR(again)
	for i := range pkts {
		if string(pkts[i].Data) != string(again[i].Data) {
			t.Fatalf("renumbering not deterministic at packet %d", i)
		}
	}
}

func TestScrambleAddrBijective(t *testing.T) {
	// On unicast inputs (the only ones the pipeline produces) distinct
	// inputs must map to distinct unicast outputs.
	seen := make(map[uint32]uint32, 1<<16)
	for i := uint32(0); i < 1<<16; i++ {
		in := 16<<24 | i // dense block inside the unicast range
		v := ScrambleAddr(in)
		if top := uint8(v >> 24); top < 16 || top >= 224 {
			t.Fatalf("ScrambleAddr(%#x) = %#x escapes the unicast range", in, v)
		}
		if prev, dup := seen[v]; dup {
			t.Fatalf("collision: ScrambleAddr(%#x) == ScrambleAddr(%#x) == %#x", in, prev, v)
		}
		seen[v] = in
	}
}

func TestScrambleAddrsSpreadsRenumberedAddresses(t *testing.T) {
	prof, _ := ProfileByName("COS")
	pkts := Generate(prof, 500)
	RenumberNLANR(pkts)
	ScrambleAddrs(pkts)
	// After scrambling, the top bytes of destinations must be diverse
	// (that is the point of the paper's preprocessing).
	tops := make(map[uint8]struct{})
	for _, p := range pkts {
		h, err := packet.ParseIPv4(p.Data)
		if err != nil {
			t.Fatal(err)
		}
		if !packet.VerifyChecksum(p.Data[:h.HeaderLen()]) {
			t.Fatal("checksum broken by scrambling")
		}
		tops[uint8(h.Dst>>24)] = struct{}{}
	}
	if len(tops) < 32 {
		t.Errorf("scrambled destinations cover only %d /8 prefixes", len(tops))
	}
}

func TestGeneratorTimestampsMonotonic(t *testing.T) {
	g := NewGenerator(profiles[0])
	var lastSec, lastUsec uint32
	for i := 0; i < 1000; i++ {
		p := g.Next()
		if p.Sec < lastSec || (p.Sec == lastSec && p.Usec < lastUsec) {
			t.Fatalf("timestamp went backwards at packet %d", i)
		}
		lastSec, lastUsec = p.Sec, p.Usec
	}
}

func TestGeneratedTraceSurvivesTraceFormats(t *testing.T) {
	// Round trip generated packets through both file formats.
	prof, _ := ProfileByName("LAN")
	pkts := Generate(prof, 50)
	for _, f := range []trace.Format{trace.FormatPcap, trace.FormatTSH} {
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf, f)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			if err := w.WritePacket(p); err != nil {
				t.Fatalf("%v write: %v", f, err)
			}
		}
		r, err := trace.NewReader(&buf, f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := trace.ReadAll(r, 0)
		if err != nil {
			t.Fatalf("%v read: %v", f, err)
		}
		if len(got) != len(pkts) {
			t.Errorf("%v: read %d packets, want %d", f, len(got), len(pkts))
		}
	}
}

// TestReaderMatchesGenerate pins that the streaming reader yields the
// packets of Generate plus the whole-slice rewrites, for each length and
// rewrite combination: renumbering in stream order assigns addresses as
// RenumberNLANR's pass over the slice does.
func TestReaderMatchesGenerate(t *testing.T) {
	for _, name := range []string{"MRA", "LAN"} {
		prof, _ := ProfileByName(name)
		for _, n := range []int{0, 1, 7, 1200} {
			for _, rw := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
				want := Generate(prof, n)
				if rw[0] {
					RenumberNLANR(want)
				}
				if rw[1] {
					ScrambleAddrs(want)
				}
				r := NewReader(prof, n, rw[0], rw[1])
				if r.Total() != int64(n) {
					t.Fatalf("%s n=%d: Total %d", name, n, r.Total())
				}
				for i := 0; ; i++ {
					p, err := r.Next()
					if err == io.EOF {
						if i != n {
							t.Fatalf("%s n=%d %v: EOF after %d packets", name, n, rw, i)
						}
						break
					}
					if err != nil || i >= n || !reflect.DeepEqual(*p, *want[i]) {
						t.Fatalf("%s n=%d %v: packet %d = %+v, %v; want %+v", name, n, rw, i, p, err, want[i])
					}
					if r.Pos() != int64(i+1) {
						t.Fatalf("%s n=%d: Pos %d after %d packets", name, n, r.Pos(), i+1)
					}
				}
				if _, err := r.Next(); err != io.EOF {
					t.Fatalf("%s n=%d: Next after EOF: %v", name, n, err)
				}
			}
		}
	}
}

// TestNextIntoMatchesNext pins that NextInto yields Next's packets, the
// bytes cut from the caller's buffer (or from the reader's chunks when
// the buffer is too short), and that the stream after any mix of the two
// calls is Next's.
func TestNextIntoMatchesNext(t *testing.T) {
	for _, name := range []string{"MRA", "LAN"} {
		prof, _ := ProfileByName(name)
		const n = 1200
		want := NewReader(prof, n, true, true)
		r := NewReader(prof, n, true, true)
		buf := make([]byte, 1<<16)
		short := make([]byte, 100)
		for i := 0; i < n; i++ {
			w, err := want.Next()
			if err != nil {
				t.Fatal(err)
			}
			// Packets 0-399 and 800-1199 go through NextInto, half of
			// them into a buffer too short for the large ones; the
			// middle third through Next.
			var p trace.Packet
			switch {
			case i >= 400 && i < 800:
				var q *trace.Packet
				q, err = r.Next()
				if q != nil {
					p = *q
				}
			case i%2 == 0:
				err = r.NextInto(&p, buf)
				if err == nil && &p.Data[0] != &buf[0] {
					t.Fatalf("%s packet %d: bytes not cut from the buffer", name, i)
				}
			default:
				err = r.NextInto(&p, short)
			}
			if err != nil || !reflect.DeepEqual(p, *w) {
				t.Fatalf("%s packet %d = %+v, %v; want %+v", name, i, p, err, *w)
			}
			if r.Pos() != int64(i+1) {
				t.Fatalf("%s: Pos %d after %d packets", name, r.Pos(), i+1)
			}
		}
		var p trace.Packet
		if err := r.NextInto(&p, buf); err != io.EOF {
			t.Fatalf("%s: NextInto after the last packet: %v", name, err)
		}
	}
}

// TestNextDstMatchesNext: NextDst, interleaved with Next and NextInto,
// returns the destination ParseIPv4 reads from the same packet of a
// stream of Next calls, and leaves the stream where Next would, for
// each paper trace under the rewrites report.NewEnv gives it.
func TestNextDstMatchesNext(t *testing.T) {
	for _, prof := range Profiles() {
		pre := prof.Name != "LAN"
		const n = 6000
		want := NewReader(prof, n, pre, pre)
		r := NewReader(prof, n, pre, pre)
		buf := make([]byte, 1<<16)
		pick := rand.New(rand.NewSource(prof.Seed))
		dsts := 0
		for i := 0; i < n; i++ {
			w, err := want.Next()
			if err != nil {
				t.Fatal(err)
			}
			// Half the packets, picked at random, go through NextDst,
			// so skips follow skips as well as written packets.
			switch c := pick.Intn(8); {
			case c < 4:
				dsts++
				dst, err := r.NextDst()
				h, perr := packet.ParseIPv4(w.Data)
				if perr != nil {
					t.Fatalf("%s packet %d: %v", prof.Name, i, perr)
				}
				if err != nil || dst != h.Dst {
					t.Fatalf("%s packet %d: NextDst = %#x, %v; want %#x", prof.Name, i, dst, err, h.Dst)
				}
			case c < 6:
				p, err := r.Next()
				if err != nil || !reflect.DeepEqual(p, w) {
					t.Fatalf("%s packet %d = %+v, %v; want %+v", prof.Name, i, p, err, w)
				}
			default:
				var p trace.Packet
				if err := r.NextInto(&p, buf); err != nil || !reflect.DeepEqual(p, *w) {
					t.Fatalf("%s packet %d = %+v, %v; want %+v", prof.Name, i, p, err, *w)
				}
			}
			if r.Pos() != int64(i+1) {
				t.Fatalf("%s: Pos %d after %d packets", prof.Name, r.Pos(), i+1)
			}
		}
		if dsts < n/3 {
			t.Fatalf("%s: only %d of %d packets went through NextDst", prof.Name, dsts, n)
		}
		if _, err := r.NextDst(); err != io.EOF {
			t.Fatalf("%s: NextDst after the last packet: %v", prof.Name, err)
		}
	}
}

// TestNextDstAllocatesNothing: stepping over a packet for its
// destination makes no allocation, renumbered and scrambled too.
func TestNextDstAllocatesNothing(t *testing.T) {
	prof, _ := ProfileByName("MRA")
	for _, rw := range [][2]bool{{false, false}, {false, true}, {true, true}} {
		r := NewReader(prof, 1<<30, rw[0], rw[1])
		if allocs := testing.AllocsPerRun(20_000, func() {
			if _, err := r.NextDst(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("renumber=%v scramble=%v: %v allocations per packet, want 0", rw[0], rw[1], allocs)
		}
	}
}

// TestNextIntoAllocatesNothing: a packet generated into the caller's
// Packet and buffer makes no allocation, renumbered and scrambled too.
func TestNextIntoAllocatesNothing(t *testing.T) {
	prof, _ := ProfileByName("MRA")
	for _, rw := range [][2]bool{{false, false}, {false, true}, {true, true}} {
		r := NewReader(prof, 1<<30, rw[0], rw[1])
		var p trace.Packet
		buf := make([]byte, 1<<16)
		if allocs := testing.AllocsPerRun(20_000, func() {
			if err := r.NextInto(&p, buf); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("renumber=%v scramble=%v: %v allocations per packet, want 0", rw[0], rw[1], allocs)
		}
	}
}
