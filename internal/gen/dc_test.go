package gen

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/packet"
	"repro/internal/trace"
)

// TestLegacyProfilesByteIdentical pins the exact output of the paper's
// four profiles. The data-centre extensions gate every one of their
// random draws behind a feature flag precisely so these streams cannot
// shift; if this test fails, reproducibility of every prior experiment
// is broken — fix the draw gating, do not re-pin the hashes.
func TestLegacyProfilesByteIdentical(t *testing.T) {
	want := map[string]string{
		"MRA": "7664320a6f8d271786a0e28d",
		"COS": "2a5bfb62d6f3d2a6d0f822c1",
		"ODU": "c19409a746ceb5d0bfe840b4",
		"LAN": "c3e30b12df57b73a66c9d77e",
	}
	for name, fp := range want {
		if got := fingerprint(t, name, 500)[:24]; got != fp {
			t.Errorf("%s fingerprint = %s, want %s (legacy stream changed!)", name, got, fp)
		}
	}
}

// TestDCProfilesByteIdentical pins the data-centre profiles the same way,
// over enough packets that generation crosses slab chunks and the random
// source's wrap points many times. DCWEB feeds the tsa-min-stream
// benchmark's inputs.
func TestDCProfilesByteIdentical(t *testing.T) {
	want := map[string]string{
		"DCWEB":  "2daecce0165b5392bc8eeb3a95f678f34c88ea3e98e4e6a3536adb5eeec0a4b8",
		"DCMINE": "a278cc4b28ed9841162b8b7d126395448f004ef5df3d5c9d5fcfe16bddb6af83",
	}
	for name, fp := range want {
		if got := fingerprint(t, name, 2000); got != fp {
			t.Errorf("%s fingerprint = %s, want %s (data-centre stream changed!)", name, got, fp)
		}
	}
}

// fingerprint is the hex sha256 of n packets of the named profile's
// timestamps, wire lengths and bytes.
func fingerprint(t *testing.T, name string, n int) string {
	t.Helper()
	p, err := ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, pkt := range Generate(p, n) {
		fmt.Fprintf(h, "%d.%06d %d ", pkt.Sec, pkt.Usec, pkt.WireLen)
		h.Write(pkt.Data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGenerateMatchesNext: Generate's batch-allocated packets are the
// ones a generator's Next calls return, and every packet's bytes have
// no spare capacity, so appending to one cannot overwrite its
// neighbour in the shared slab.
func TestGenerateMatchesNext(t *testing.T) {
	const n = 3000
	for _, p := range AllProfiles() {
		pkts := Generate(p, n)
		g := NewGenerator(p)
		for i, got := range pkts {
			want := g.Next()
			if got.Sec != want.Sec || got.Usec != want.Usec || got.WireLen != want.WireLen || !bytes.Equal(got.Data, want.Data) {
				t.Fatalf("%s packet %d: Generate gives %d.%06d/%d %x, Next gives %d.%06d/%d %x",
					p.Name, i, got.Sec, got.Usec, got.WireLen, got.Data, want.Sec, want.Usec, want.WireLen, want.Data)
			}
			if cap(got.Data) != len(got.Data) || cap(want.Data) != len(want.Data) {
				t.Fatalf("%s packet %d: cap %d/%d for len %d", p.Name, i, cap(got.Data), cap(want.Data), len(got.Data))
			}
		}
		second := bytes.Clone(pkts[1].Data)
		_ = append(pkts[0].Data, 0xAA, 0xBB, 0xCC, 0xDD)
		if !bytes.Equal(pkts[1].Data, second) {
			t.Fatalf("%s: appending to packet 0 changed packet 1", p.Name)
		}
	}
}

func TestDCProfilesRegistered(t *testing.T) {
	if n := len(Profiles()); n != 4 {
		t.Errorf("Profiles() = %d entries, want the paper's 4", n)
	}
	if n := len(DCProfiles()); n != 2 {
		t.Errorf("DCProfiles() = %d entries, want 2", n)
	}
	if n := len(AllProfiles()); n != 6 {
		t.Errorf("AllProfiles() = %d entries, want 6", n)
	}
	for _, name := range []string{"DCWEB", "DCMINE"} {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.FlowPackets <= 0 || p.IncastFanIn <= 1 || p.HotRacks <= 0 {
			t.Errorf("%s: data-centre fields not set: %+v", name, p)
		}
	}
}

func TestDCGenerationDeterministicAndValid(t *testing.T) {
	for _, prof := range DCProfiles() {
		a := Generate(prof, 300)
		b := Generate(prof, 300)
		for i := range a {
			if a[i].Sec != b[i].Sec || a[i].Usec != b[i].Usec || !bytes.Equal(a[i].Data, b[i].Data) {
				t.Fatalf("%s: packet %d differs between runs", prof.Name, i)
			}
			if err := trace.ValidateIPv4(a[i]); err != nil {
				t.Fatalf("%s: packet %d invalid: %v", prof.Name, i, err)
			}
		}
	}
}

// TestHeavyTailFlowSizes checks the bounded-Pareto lifetimes do what
// they exist for: a small fraction of flows carries a large fraction of
// packets, and the largest flow dwarfs the typical one.
func TestHeavyTailFlowSizes(t *testing.T) {
	prof, err := ProfileByName("DCMINE")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[packet.FiveTuple]int{}
	g := NewGenerator(prof)
	const n = 60000
	for i := 0; i < n; i++ {
		p := g.Next()
		h, err := packet.ParseIPv4(p.Data)
		if err != nil {
			t.Fatal(err)
		}
		ft := packet.FiveTuple{Src: h.Src, Dst: h.Dst, Protocol: h.Protocol}
		counts[ft]++
	}
	var sizes []int
	max := 0
	for _, c := range counts {
		sizes = append(sizes, c)
		if c > max {
			max = c
		}
	}
	mean := float64(n) / float64(len(sizes))
	if float64(max) < 10*mean {
		t.Errorf("largest flow %d packets vs mean %.1f: tail not heavy", max, mean)
	}
	// The tail (flows above 3x the mean size) should carry a fifth of all
	// packets — under the geometric lifetimes of random replacement that
	// share is negligible.
	top := 0
	threshold := int(3 * mean)
	for _, c := range sizes {
		if c > threshold {
			top += c
		}
	}
	if float64(top) < 0.2*float64(n) {
		t.Errorf("flows above 3x mean carry only %d/%d packets: tail not heavy", top, n)
	}
}

// TestIncastConvergence checks incast epochs produce destinations that
// many distinct flows converge on.
func TestIncastConvergence(t *testing.T) {
	prof, err := ProfileByName("DCWEB")
	if err != nil {
		t.Fatal(err)
	}
	prof.HotRackProb = 0 // isolate incast
	flowsPerDst := map[uint32]map[packet.FiveTuple]bool{}
	g := NewGenerator(prof)
	for i := 0; i < 40000; i++ {
		p := g.Next()
		h, err := packet.ParseIPv4(p.Data)
		if err != nil {
			t.Fatal(err)
		}
		ft := packet.FiveTuple{Src: h.Src, Dst: h.Dst, Protocol: h.Protocol}
		if flowsPerDst[h.Dst] == nil {
			flowsPerDst[h.Dst] = map[packet.FiveTuple]bool{}
		}
		flowsPerDst[h.Dst][ft] = true
	}
	max := 0
	for _, flows := range flowsPerDst {
		if len(flows) > max {
			max = len(flows)
		}
	}
	if max < prof.IncastFanIn/2 {
		t.Errorf("max flows converging on one dst = %d, want >= %d (fan-in %d)",
			max, prof.IncastFanIn/2, prof.IncastFanIn)
	}
}

// TestHotRackSkew forces every flow into hot racks and checks the
// destination /24 population collapses to the configured rack count.
func TestHotRackSkew(t *testing.T) {
	prof, err := ProfileByName("DCWEB")
	if err != nil {
		t.Fatal(err)
	}
	prof.HotRackProb = 1.0
	prof.HotRacks = 3
	prof.IncastProb = 0 // isolate rack skew
	racks := map[uint32]bool{}
	g := NewGenerator(prof)
	for i := 0; i < 5000; i++ {
		p := g.Next()
		h, err := packet.ParseIPv4(p.Data)
		if err != nil {
			t.Fatal(err)
		}
		racks[h.Dst>>8] = true
	}
	if len(racks) > prof.HotRacks {
		t.Errorf("destinations span %d /24s, want at most %d hot racks", len(racks), prof.HotRacks)
	}
	if len(racks) < 2 {
		t.Errorf("destinations span %d /24s, want the racks actually used", len(racks))
	}
}
