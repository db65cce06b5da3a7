package route

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func smallTable(t *testing.T) *Table {
	t.Helper()
	tbl := &Table{}
	add := func(a, b, c, d byte, l int, hop uint32) {
		t.Helper()
		p := uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
		if err := tbl.Add(p, l, hop); err != nil {
			t.Fatal(err)
		}
	}
	add(10, 0, 0, 0, 8, 1)
	add(10, 1, 0, 0, 16, 2)
	add(10, 1, 2, 0, 24, 3)
	add(192, 168, 0, 0, 16, 4)
	add(192, 168, 5, 0, 24, 5)
	add(172, 16, 0, 0, 12, 6)
	add(0, 0, 0, 0, 0, 7) // default route
	return tbl
}

func addr(a, b, c, d byte) uint32 {
	return uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d)
}

var lookupCases = []struct {
	addr uint32
	hop  uint32
}{
	{addr(10, 1, 2, 3), 3},    // longest match /24
	{addr(10, 1, 3, 3), 2},    // /16
	{addr(10, 2, 0, 1), 1},    // /8
	{addr(192, 168, 5, 9), 5}, // /24
	{addr(192, 168, 9, 9), 4}, // /16
	{addr(172, 16, 99, 1), 6}, // /12
	{addr(172, 32, 0, 1), 7},  // outside /12 -> default
	{addr(8, 8, 8, 8), 7},     // default
	{addr(255, 255, 255, 255), 7},
}

func TestMask(t *testing.T) {
	cases := map[int]uint32{
		0: 0, 1: 0x80000000, 8: 0xFF000000, 12: 0xFFF00000,
		16: 0xFFFF0000, 24: 0xFFFFFF00, 31: 0xFFFFFFFE, 32: 0xFFFFFFFF,
	}
	for l, want := range cases {
		if got := Mask(l); got != want {
			t.Errorf("Mask(%d) = %#x, want %#x", l, got, want)
		}
	}
}

func TestLinearLookup(t *testing.T) {
	tbl := smallTable(t)
	for _, c := range lookupCases {
		hop, ok := tbl.LookupLinear(c.addr)
		if !ok || hop != c.hop {
			t.Errorf("LookupLinear(%#x) = %d, %v; want %d", c.addr, hop, ok, c.hop)
		}
	}
}

func TestLinearLookupNoDefault(t *testing.T) {
	tbl := &Table{}
	_ = tbl.Add(addr(10, 0, 0, 0), 8, 1)
	if _, ok := tbl.LookupLinear(addr(11, 0, 0, 0)); ok {
		t.Error("lookup of unrouted address succeeded")
	}
}

func TestTableAddValidation(t *testing.T) {
	tbl := &Table{}
	if err := tbl.Add(0, 33, 1); err == nil {
		t.Error("length 33 accepted")
	}
	if err := tbl.Add(0, -1, 1); err == nil {
		t.Error("negative length accepted")
	}
	if err := tbl.Add(0, 8, 0); err == nil {
		t.Error("next hop 0 accepted")
	}
	// Prefix normalization.
	if err := tbl.Add(addr(10, 1, 2, 3), 8, 5); err != nil {
		t.Fatal(err)
	}
	if tbl.Entries[0].Prefix != addr(10, 0, 0, 0) {
		t.Errorf("prefix not normalized: %v", tbl.Entries[0])
	}
}

func TestDedup(t *testing.T) {
	tbl := &Table{}
	_ = tbl.Add(addr(10, 0, 0, 0), 8, 1)
	_ = tbl.Add(addr(10, 0, 0, 0), 8, 9) // duplicate, later wins
	_ = tbl.Add(addr(9, 0, 0, 0), 8, 2)
	tbl.Dedup()
	if len(tbl.Entries) != 2 {
		t.Fatalf("Dedup left %d entries", len(tbl.Entries))
	}
	if hop, _ := tbl.LookupLinear(addr(10, 1, 1, 1)); hop != 9 {
		t.Errorf("duplicate resolution kept hop %d, want 9", hop)
	}
}

func TestRadixMatchesLinear(t *testing.T) {
	tbl := smallTable(t)
	r := NewRadixTree(tbl)
	for _, c := range lookupCases {
		hop, ok := r.Lookup(c.addr)
		if !ok || hop != c.hop {
			t.Errorf("radix Lookup(%#x) = %d, %v; want %d", c.addr, hop, ok, c.hop)
		}
	}
}

func TestLCTrieMatchesLinear(t *testing.T) {
	tbl := smallTable(t)
	lc, err := NewLCTrie(tbl)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range lookupCases {
		hop, ok := lc.Lookup(c.addr)
		if !ok || hop != c.hop {
			t.Errorf("lctrie Lookup(%#x) = %d, %v; want %d", c.addr, hop, ok, c.hop)
		}
	}
}

// TestDifferentialLookup is the core substrate property: on randomly
// generated tables, radix tree and LC-trie agree with the exhaustive
// linear oracle for both routed and unrouted addresses.
func TestDifferentialLookup(t *testing.T) {
	for _, withDefault := range []bool{false, true} {
		for seed := int64(0); seed < 4; seed++ {
			tbl := GenerateTable(GenOptions{Prefixes: 400, NextHops: 8, Seed: seed, IncludeDefault: withDefault})
			r := NewRadixTree(tbl)
			lc, err := NewLCTrie(tbl)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed + 100))
			for i := 0; i < 3000; i++ {
				var a uint32
				if i%2 == 0 {
					// Half the probes target known prefixes (guaranteeing
					// deep matches), half are uniform.
					e := tbl.Entries[rng.Intn(len(tbl.Entries))]
					a = e.Prefix | rng.Uint32()&^Mask(e.Len)
				} else {
					a = rng.Uint32()
				}
				wantHop, wantOK := tbl.LookupLinear(a)
				if hop, ok := r.Lookup(a); hop != wantHop || ok != wantOK {
					t.Fatalf("seed %d: radix(%#x) = %d,%v; oracle %d,%v", seed, a, hop, ok, wantHop, wantOK)
				}
				if hop, ok := lc.Lookup(a); hop != wantHop || ok != wantOK {
					t.Fatalf("seed %d: lctrie(%#x) = %d,%v; oracle %d,%v", seed, a, hop, ok, wantHop, wantOK)
				}
			}
		}
	}
}

func TestLCTrieCompression(t *testing.T) {
	// The whole point of the LC-trie: far fewer node visits than the
	// radix tree's bit-at-a-time descent.
	tbl := GenerateTable(GenOptions{Prefixes: 2000, NextHops: 16, Seed: 42})
	lc, err := NewLCTrie(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if d := lc.Depth(); d > 10 {
		t.Errorf("LC-trie depth %d; expected strong level compression (<= 10)", d)
	}
	r := NewRadixTree(tbl)
	if lc.Nodes() >= r.Nodes() {
		t.Errorf("LC-trie nodes (%d) not smaller than radix nodes (%d)", lc.Nodes(), r.Nodes())
	}
}

func TestEmptyTables(t *testing.T) {
	tbl := &Table{}
	r := NewRadixTree(tbl)
	if _, ok := r.Lookup(123); ok {
		t.Error("empty radix lookup succeeded")
	}
	lc, err := NewLCTrie(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := lc.Lookup(123); ok {
		t.Error("empty lctrie lookup succeeded")
	}
	if lc.Depth() != 0 || lc.Nodes() != 0 {
		t.Error("empty lctrie has nodes")
	}
}

func TestSingleEntryTables(t *testing.T) {
	tbl := &Table{}
	_ = tbl.Add(addr(10, 0, 0, 0), 8, 3)
	r := NewRadixTree(tbl)
	lc, _ := NewLCTrie(tbl)
	if hop, ok := r.Lookup(addr(10, 9, 9, 9)); !ok || hop != 3 {
		t.Errorf("radix single = %d, %v", hop, ok)
	}
	if hop, ok := lc.Lookup(addr(10, 9, 9, 9)); !ok || hop != 3 {
		t.Errorf("lctrie single = %d, %v", hop, ok)
	}
	if _, ok := lc.Lookup(addr(11, 0, 0, 0)); ok {
		t.Error("lctrie matched outside prefix")
	}
}

func TestDefaultRouteOnly(t *testing.T) {
	tbl := &Table{}
	_ = tbl.Add(0, 0, 9)
	lc, _ := NewLCTrie(tbl)
	if hop, ok := lc.Lookup(rand.Uint32()); !ok || hop != 9 {
		t.Errorf("default-only lctrie = %d, %v", hop, ok)
	}
}

func TestGenerateTableProperties(t *testing.T) {
	tbl := GenerateTable(GenOptions{Prefixes: 1000, NextHops: 16, Seed: 1})
	if len(tbl.Entries) != 1000 {
		t.Fatalf("generated %d entries", len(tbl.Entries))
	}
	lens := make(map[int]int)
	for _, e := range tbl.Entries {
		if e.Prefix&^Mask(e.Len) != 0 {
			t.Fatalf("entry %v has bits beyond its length", e)
		}
		if e.NextHop == 0 || e.NextHop > 16 {
			t.Fatalf("entry %v has bad next hop", e)
		}
		lens[e.Len]++
	}
	// /24s must dominate (MAE-WEST shape).
	if lens[24] < 400 {
		t.Errorf("only %d /24 prefixes in 1000", lens[24])
	}
	// Determinism.
	again := GenerateTable(GenOptions{Prefixes: 1000, NextHops: 16, Seed: 1})
	for i := range tbl.Entries {
		if tbl.Entries[i] != again.Entries[i] {
			t.Fatal("table generation not deterministic")
		}
	}
	// Different seeds differ.
	other := GenerateTable(GenOptions{Prefixes: 1000, NextHops: 16, Seed: 2})
	same := 0
	for i := range tbl.Entries {
		if tbl.Entries[i] == other.Entries[i] {
			same++
		}
	}
	if same == len(tbl.Entries) {
		t.Error("different seeds produced identical tables")
	}
}

func TestRadixSerializeLayout(t *testing.T) {
	tbl := smallTable(t)
	r := NewRadixTree(tbl)
	const base = 0x10000000
	img, root := r.Serialize(base)
	if root != base {
		t.Errorf("root = %#x, want %#x", root, base)
	}
	if len(img) != r.Nodes()*RadixNodeSize {
		t.Fatalf("image %d bytes for %d nodes", len(img), r.Nodes())
	}
	// Walk the serialized image like the assembly app would and check it
	// against the native lookup for the standard cases.
	lookup := func(a uint32) (uint32, bool) {
		var best uint32
		node := root
		for i := 0; node != 0; i++ {
			off := node - base
			hop := binary.LittleEndian.Uint32(img[off+8:])
			if hop != 0 {
				best = hop
			}
			if i == 32 {
				break
			}
			if a>>(31-uint(i))&1 == 0 {
				node = binary.LittleEndian.Uint32(img[off:])
			} else {
				node = binary.LittleEndian.Uint32(img[off+4:])
			}
		}
		return best, best != 0
	}
	for _, c := range lookupCases {
		hop, ok := lookup(c.addr)
		if !ok || hop != c.hop {
			t.Errorf("serialized radix walk(%#x) = %d, %v; want %d", c.addr, hop, ok, c.hop)
		}
	}
}

func TestLCTrieSerializeLayout(t *testing.T) {
	tbl := GenerateTable(GenOptions{Prefixes: 300, NextHops: 8, Seed: 5, IncludeDefault: true})
	lc, err := NewLCTrie(tbl)
	if err != nil {
		t.Fatal(err)
	}
	const nodesBase, entriesBase = 0x10000000, 0x10100000
	nodesImg, entriesImg := lc.Serialize(nodesBase, entriesBase)
	if len(nodesImg) != lc.Nodes()*4 || len(entriesImg) != lc.Entries()*LCEntrySize {
		t.Fatalf("image sizes %d/%d for %d nodes, %d entries",
			len(nodesImg), len(entriesImg), lc.Nodes(), lc.Entries())
	}
	// Walk the serialized images exactly as the assembly app does.
	lookup := func(a uint32) (uint32, bool) {
		node := binary.LittleEndian.Uint32(nodesImg)
		pos := uint32(0)
		for {
			branch := node >> lcBranchShift
			skip := node >> lcSkipShift & 0x1F
			adr := node & lcAdrMask
			if branch == 0 {
				entry := entriesBase + adr*LCEntrySize
				for entry != 0 {
					off := entry - entriesBase
					prefix := binary.LittleEndian.Uint32(entriesImg[off:])
					mask := binary.LittleEndian.Uint32(entriesImg[off+4:])
					if (a^prefix)&mask == 0 {
						return binary.LittleEndian.Uint32(entriesImg[off+8:]), true
					}
					entry = binary.LittleEndian.Uint32(entriesImg[off+12:])
				}
				return 0, false
			}
			pos += skip
			k := extractBits(a, pos, branch)
			pos += branch
			node = binary.LittleEndian.Uint32(nodesImg[(adr+k)*4:])
		}
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		a := rng.Uint32()
		wantHop, wantOK := lc.Lookup(a)
		hop, ok := lookup(a)
		if hop != wantHop || ok != wantOK {
			t.Fatalf("serialized lctrie walk(%#x) = %d,%v; native %d,%v", a, hop, ok, wantHop, wantOK)
		}
	}
}

func TestEntryString(t *testing.T) {
	e := Entry{Prefix: addr(10, 1, 2, 0), Len: 24, NextHop: 5}
	if got := e.String(); got != "10.1.2.0/24 -> 5" {
		t.Errorf("String() = %q", got)
	}
}

func TestExtractBits(t *testing.T) {
	cases := []struct {
		addr       uint32
		pos, count uint32
		want       uint32
	}{
		{0x80000000, 0, 1, 1},
		{0x80000000, 1, 1, 0},
		{0xFF000000, 0, 8, 0xFF},
		{0x12345678, 4, 8, 0x23},
		{0x12345678, 28, 4, 0x8},
		{0xFFFFFFFF, 0, 0, 0},
	}
	for _, c := range cases {
		if got := extractBits(c.addr, c.pos, c.count); got != c.want {
			t.Errorf("extractBits(%#x, %d, %d) = %#x, want %#x", c.addr, c.pos, c.count, got, c.want)
		}
	}
}

func TestPackUnpackNode(t *testing.T) {
	for _, c := range []struct{ branch, skip, adr uint32 }{
		{0, 0, 0}, {1, 0, 5}, {16, 31, lcAdrMask}, {4, 7, 123456},
	} {
		b, s, a := unpackNode(packNode(c.branch, c.skip, c.adr))
		if b != c.branch || s != c.skip || a != c.adr {
			t.Errorf("pack/unpack(%v) = %d,%d,%d", c, b, s, a)
		}
	}
}

func TestParseWriteTableRoundTrip(t *testing.T) {
	orig := GenerateTable(GenOptions{Prefixes: 200, NextHops: 8, Seed: 6})
	var buf bytes.Buffer
	if err := orig.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseTable(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Entries) != len(orig.Entries) {
		t.Fatalf("parsed %d entries, wrote %d", len(parsed.Entries), len(orig.Entries))
	}
	for i := range orig.Entries {
		if parsed.Entries[i] != orig.Entries[i] {
			t.Fatalf("entry %d: %v != %v", i, parsed.Entries[i], orig.Entries[i])
		}
	}
}

func TestParseTableSyntax(t *testing.T) {
	good := "# MAE-WEST style dump\n10.0.0.0/8 3\n\n192.168.0.0/16 1\n"
	tbl, err := ParseTable(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Entries) != 2 {
		t.Fatalf("%d entries", len(tbl.Entries))
	}
	if hop, ok := tbl.LookupLinear(addr(10, 1, 1, 1)); !ok || hop != 3 {
		t.Errorf("lookup = %d, %v", hop, ok)
	}
	bads := []string{
		"10.0.0.0 3",         // no /len
		"10.0.0.0/8",         // no hop
		"10.0.0.0/8 3 extra", // junk
		"300.0.0.0/8 3",      // bad address
		"::1/8 3",            // not IPv4
		"10.0.0.0/99 3",      // bad length
		"10.0.0.0/8 zero",    // bad hop
		"10.0.0.0/8 0",       // reserved hop
	}
	for _, b := range bads {
		if _, err := ParseTable(strings.NewReader(b)); err == nil {
			t.Errorf("ParseTable(%q) accepted", b)
		}
	}
}

// TestNestedPrefixChains stresses the LC-trie's chain links with a
// maximal nesting tower: prefixes /1 through /32 along one path, probed
// at every depth.
func TestNestedPrefixChains(t *testing.T) {
	tbl := &Table{}
	base := addr(10, 20, 30, 40)
	for l := 1; l <= 32; l++ {
		if err := tbl.Add(base, l, uint32(l)); err != nil {
			t.Fatal(err)
		}
	}
	// A sibling subtree so the trie has real branching too.
	_ = tbl.Add(addr(200, 0, 0, 0), 8, 99)
	lc, err := NewLCTrie(tbl)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRadixTree(tbl)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 5000; i++ {
		// Probe addresses sharing k leading bits with the tower.
		k := rng.Intn(33)
		var a uint32
		if k == 32 {
			a = base
		} else {
			a = base&Mask(k) | ^base&(1<<(31-uint(k))) | rng.Uint32()&(1<<(31-uint(k))-1)
		}
		wantHop, wantOK := tbl.LookupLinear(a)
		if hop, ok := lc.Lookup(a); hop != wantHop || ok != wantOK {
			t.Fatalf("lctrie(%#x, k=%d) = %d,%v; oracle %d,%v", a, k, hop, ok, wantHop, wantOK)
		}
		if hop, ok := r.Lookup(a); hop != wantHop || ok != wantOK {
			t.Fatalf("radix(%#x, k=%d) = %d,%v; oracle %d,%v", a, k, hop, ok, wantHop, wantOK)
		}
	}
}

// TestRadixSerializePinned pins the image of a paper-sized table
// (32,768 prefixes from traffic) to the digest of the original
// map-based layout pass: the single-pass layout must place every node
// and child pointer where it did.
func TestRadixSerializePinned(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dsts := make([]uint32, 40000)
	for i := range dsts {
		dsts[i] = rng.Uint32()
	}
	tbl := TableFromTraffic(dsts, 32768, 16, 0x4D414557)
	tree := NewRadixTree(tbl)
	img, root := tree.Serialize(0x10000000)
	if root != 0x10000000 || len(img) != 256922*RadixNodeSize || tree.Nodes() != 256922 {
		t.Fatalf("root %#x, %d image bytes, %d nodes; want 0x10000000, 256922 nodes", root, len(img), tree.Nodes())
	}
	const want = "69d7d17811b1c3d54058dd8c962abc83f89d2b28c154c7885c9c73c05d05bfc6"
	if got := fmt.Sprintf("%x", sha256.Sum256(img)); got != want {
		t.Errorf("image sha256 %s, want %s", got, want)
	}
}

// TestTablesPinned pins the entries of the three table builders, bit for
// bit, to digests recorded from the sort.SliceStable-based Dedup. The
// ParseTable input repeats (prefix, len) pairs with different next hops
// and unmasked host bits, so the stable "last one wins" order is pinned
// too; TableFromTraffic draws destinations from a small set, so most are
// seen before.
func TestTablesPinned(t *testing.T) {
	digest := func(tbl *Table) string {
		h := sha256.New()
		for _, e := range tbl.Entries {
			fmt.Fprintf(h, "%08x/%d>%d ", e.Prefix, e.Len, e.NextHop)
		}
		return fmt.Sprintf("%d:%x", len(tbl.Entries), h.Sum(nil)[:16])
	}
	rng := rand.New(rand.NewSource(7))
	dsts := make([]uint32, 30000)
	for i := range dsts {
		dsts[i] = uint32(10+rng.Intn(4))<<24 | uint32(rng.Intn(8))<<16 | uint32(rng.Intn(4096))
	}
	var text strings.Builder
	for i := 0; i < 5000; i++ {
		a := uint32(10+rng.Intn(3))<<24 | uint32(rng.Intn(4))<<16 | uint32(rng.Intn(1<<16))
		fmt.Fprintf(&text, "%d.%d.%d.%d/%d %d\n", a>>24, a>>16&0xFF, a>>8&0xFF, a&0xFF,
			[]int{8, 16, 24, 32}[rng.Intn(4)], 1+rng.Intn(9))
	}
	parsed, err := ParseTable(strings.NewReader(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		tbl  *Table
		want string
	}{
		{"TableFromTraffic/limit", TableFromTraffic(dsts, 1000, 16, 1), "1000:398332908f1b77bd0f9ffe4f0fdd3c29"},
		{"TableFromTraffic/all", TableFromTraffic(dsts, 0, 16, 2), "2510:d1c492bbf413ee67bfb07a7bcd10d308"},
		{"GenerateTable", GenerateTable(GenOptions{Prefixes: 2000, Seed: 3, IncludeDefault: true}), "2000:6dce05e05874e998f01bac9509713881"},
		{"ParseTable", parsed, "2352:07aaf3dbfa926ba4aeb82ce5cc03d1a5"},
	} {
		if got := digest(c.tbl); got != c.want {
			t.Errorf("%s: entries digest %s, want %s", c.name, got, c.want)
		}
	}
}
