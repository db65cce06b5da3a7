package anon

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// commonPrefixLen returns the length of the longest common bit prefix.
func commonPrefixLen(a, b uint32) int {
	x := a ^ b
	for n := 0; n < 32; n++ {
		if x&(1<<(31-uint(n))) != 0 {
			return n
		}
	}
	return 32
}

// checkPrefixPreserving asserts the defining property over random pairs.
func checkPrefixPreserving(t *testing.T, name string, a Anonymizer) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		// Generate pairs with controlled shared-prefix lengths so every
		// depth is exercised, not just the short prefixes uniform pairs
		// produce.
		x := rng.Uint32()
		k := rng.Intn(33)
		var y uint32
		if k == 32 {
			y = x
		} else {
			// Share exactly k bits: copy the top k, force bit k to
			// differ, randomize the rest.
			mask := uint32(0)
			if k > 0 {
				mask = ^uint32(0) << (32 - uint(k))
			}
			y = x&mask | ^x&(1<<(31-uint(k))) | rng.Uint32()&(1<<(31-uint(k))-1)
		}
		want := commonPrefixLen(x, y)
		got := commonPrefixLen(a.Anonymize(x), a.Anonymize(y))
		if got != want {
			t.Fatalf("%s: common prefix of (%#08x, %#08x) = %d bits, anonymized = %d bits",
				name, x, y, want, got)
		}
	}
}

func TestFullPPPrefixPreserving(t *testing.T) {
	checkPrefixPreserving(t, "FullPP", NewFullPP(0xDEADBEEF))
}

func TestTSAPrefixPreserving(t *testing.T) {
	checkPrefixPreserving(t, "TSA", NewTSA(0xDEADBEEF))
}

func TestAnonymizersAreBijective(t *testing.T) {
	// Injectivity over a dense sample: distinct inputs yield distinct
	// outputs. (Prefix preservation implies it, but test it directly.)
	for _, tc := range []struct {
		name string
		a    Anonymizer
	}{
		{"FullPP", NewFullPP(42)},
		{"TSA", NewTSA(42)},
	} {
		seen := make(map[uint32]uint32, 1<<16)
		for i := uint32(0); i < 1<<16; i++ {
			in := i*65537 + 13 // spread over the space
			out := tc.a.Anonymize(in)
			if prev, dup := seen[out]; dup {
				t.Fatalf("%s: collision %#x: inputs %#x and %#x", tc.name, out, prev, in)
			}
			seen[out] = in
		}
	}
}

func TestAnonymizeDeterministic(t *testing.T) {
	a1, a2 := NewTSA(7), NewTSA(7)
	f1 := NewFullPP(7)
	for i := 0; i < 100; i++ {
		v := uint32(i) * 0x01010101
		if a1.Anonymize(v) != a2.Anonymize(v) {
			t.Fatal("TSA not deterministic across instances")
		}
		if f1.Anonymize(v) != f1.Anonymize(v) {
			t.Fatal("FullPP not deterministic")
		}
	}
}

func TestDifferentKeysDiffer(t *testing.T) {
	a, b := NewTSA(1), NewTSA(2)
	same := 0
	for i := 0; i < 256; i++ {
		v := uint32(i) << 20
		if a.Anonymize(v) == b.Anonymize(v) {
			same++
		}
	}
	if same > 200 {
		t.Errorf("different keys map %d/256 sample addresses identically", same)
	}
}

func TestAnonymizationActuallyChangesAddresses(t *testing.T) {
	a := NewTSA(0x1234)
	unchanged := 0
	for i := 0; i < 1000; i++ {
		v := uint32(i) * 0x00010001
		if a.Anonymize(v) == v {
			unchanged++
		}
	}
	if unchanged > 50 {
		t.Errorf("%d/1000 addresses unchanged; anonymization too weak", unchanged)
	}
}

func TestTSATopTablePrefixPreservingWithinDomain(t *testing.T) {
	// The top table alone must preserve prefixes on the TopBits domain.
	tsa := NewTSA(5)
	rng := rand.New(rand.NewSource(5))
	cpl12 := func(a, b uint16) int {
		x := (uint32(a) ^ uint32(b)) << (32 - TopBits)
		n := commonPrefixLen(x, 0)
		if n > TopBits {
			n = TopBits
		}
		return n
	}
	for i := 0; i < 2000; i++ {
		x := uint16(rng.Intn(TopTableSize))
		y := uint16(rng.Intn(TopTableSize))
		want := cpl12(x, y)
		got := cpl12(tsa.top[x], tsa.top[y])
		if got != want {
			t.Fatalf("top table: cpl(%#x, %#x) = %d, anonymized %d", x, y, want, got)
		}
	}
}

func TestSerializeTables(t *testing.T) {
	tsa := NewTSA(9)
	top, sub := tsa.SerializeTables()
	if len(top) != 2*TopTableSize {
		t.Fatalf("top image %d bytes, want %d", len(top), 2*TopTableSize)
	}
	if len(sub) != SubTableSize {
		t.Fatalf("sub image %d bytes, want %d", len(sub), SubTableSize)
	}
	// Re-derive an anonymization from the serialized images the way the
	// PB32 application does, and compare with the native result.
	fromImages := func(addr uint32) uint32 {
		topIdx := addr >> SubBits
		newTop := uint32(top[2*topIdx]) | uint32(top[2*topIdx+1])<<8
		suffix := addr & (1<<SubBits - 1)
		var newSuffix uint32
		for i := 0; i < SubBits; i++ {
			bit := suffix >> (SubBits - 1 - uint(i)) & 1
			prefix := uint32(0)
			if i > 0 {
				prefix = suffix >> (SubBits - uint(i))
			}
			flip := uint32(sub[i<<SubIndexBits|int(prefix&(1<<SubIndexBits-1))]) & 1
			newSuffix = newSuffix<<1 | (bit ^ flip)
		}
		return newTop<<SubBits | newSuffix
	}
	f := func(addr uint32) bool {
		return fromImages(addr) == tsa.Anonymize(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTSAMatchesFullPPOnTopBits(t *testing.T) {
	// TSA's top table is built from the same PRF as FullPP, so the top
	// TopBits of TSA output must equal FullPP output's top bits when both
	// use the same key.
	key := uint64(77)
	tsa, full := NewTSA(key), NewFullPP(key)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 1000; i++ {
		a := rng.Uint32()
		if tsa.Anonymize(a)>>SubBits != full.Anonymize(a)>>SubBits {
			t.Fatalf("top bits disagree for %#x", a)
		}
	}
}

// TestTSATablesPinned pins the serialized tables of three keys to the
// digests of the original construction, which hashed every (depth,
// prefix) pair once per top-table entry. The level-by-level build must
// reproduce them bit for bit.
func TestTSATablesPinned(t *testing.T) {
	for _, c := range []struct {
		key      uint64
		top, sub string
	}{
		{1, "97a77b9837fc6ffa50dbf8a87556ed4460c520b170ea2e98ef5709e246acfbc0", "19bee5b1eba2303caf56d703101e74a029e598934b5b3628fb75fa36d6acebe2"},
		{0x5453412D31363A31, "6f64d36e042a7420dc6628eacd395bacd85d99507757c7c9b263d2dfa9da26ca", "149214746b791edb9b1843143d823f61c76fdd771e89a296a0fc41cd09461044"},
		{0xDEADBEEFCAFEF00D, "51178e98d38f6fec4b1f08badf07945d84bf2a09d544c2ff7b41c954a633b018", "0aed48068493d7ac1eed4e25cfa61857a3badb9815a729f325b4bc476dc0f5af"},
	} {
		top, sub := NewTSA(c.key).SerializeTables()
		if got := fmt.Sprintf("%x", sha256.Sum256(top)); got != c.top {
			t.Errorf("key %#x: top table sha256 %s, want %s", c.key, got, c.top)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(sub)); got != c.sub {
			t.Errorf("key %#x: subtree table sha256 %s, want %s", c.key, got, c.sub)
		}
	}
}
