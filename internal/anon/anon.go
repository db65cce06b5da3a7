// Package anon implements prefix-preserving IP address anonymization:
// the paper's TSA algorithm (top-hashed, subtree-replicated) and the full
// cryptographic-style scheme of Xu et al. that TSA approximates.
//
// A prefix-preserving anonymization is a bijection f on 32-bit addresses
// such that for any two addresses a and b, the length of the longest
// common bit prefix of f(a) and f(b) equals that of a and b. The canonical
// construction walks the address bit by bit, flipping bit i according to a
// pseudorandom function of bits 0..i-1.
//
//   - FullPP evaluates that pseudorandom function for every one of the 32
//     bit positions — faithful but expensive, the baseline.
//   - TSA replaces the top TopBits levels with one precomputed table
//     lookup (the "top hash") and anonymizes the remaining levels with a
//     single shared ("replicated") subtree of flip bits indexed by a
//     truncated prefix, trading some pseudorandomness for speed. This is
//     the optimization evaluated in the paper as the TSA application.
//
// The TSA tables serialize into simulated memory for the PB32 application
// (see SerializeTables); the native implementation here is the oracle the
// simulated application is differentially tested against.
package anon

// Anonymizer maps addresses to anonymized addresses, preserving prefixes.
type Anonymizer interface {
	Anonymize(addr uint32) uint32
}

// prf is a small keyed pseudorandom function returning one flip bit for a
// node of the address binary tree identified by (depth, prefix). It uses
// two rounds of a 64-bit mix (xorshift-multiply), which is plenty for a
// workload generator and entirely deterministic.
func prf(key uint64, depth int, prefix uint32) uint32 {
	x := key ^ uint64(depth)<<32 ^ uint64(prefix)
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return uint32(x & 1)
}

// FullPP is the full bit-by-bit prefix-preserving scheme.
type FullPP struct {
	key uint64
}

// NewFullPP creates a full prefix-preserving anonymizer with the given
// key.
func NewFullPP(key uint64) *FullPP { return &FullPP{key: key} }

// Anonymize maps one address. Bit i of the output is bit i of the input
// xor a PRF of bits 0..i-1 — the Xu et al. canonical form.
func (f *FullPP) Anonymize(addr uint32) uint32 {
	var out uint32
	for i := 0; i < 32; i++ {
		prefix := uint32(0)
		if i > 0 {
			prefix = addr >> (32 - uint(i))
		}
		bit := addr >> (31 - uint(i)) & 1
		out = out<<1 | (bit ^ prf(f.key, i, prefix))
	}
	return out
}

// TSA parameters. TopBits is fixed at 16: the natural top-hashed split
// anonymizes the top half of the address with one table lookup and the
// bottom half with the replicated subtree. The tables total ~132 KiB of
// which only the entries touched by a trace count toward the memory
// coverage statistics, keeping TSA's measured footprint small (Table IV
// shows TSA with one of the smallest data footprints).
const (
	// TopBits is the number of leading address bits anonymized by direct
	// table lookup.
	TopBits = 16
	// SubBits is the number of remaining bits anonymized by the
	// replicated subtree.
	SubBits = 32 - TopBits
	// SubIndexBits truncates the in-subtree prefix used to index the flip
	// table; the table has SubBits rows of 2^SubIndexBits flip bytes.
	SubIndexBits = 8
	// TopTableSize is the entry count of the top table.
	TopTableSize = 1 << TopBits
	// SubTableSize is the byte size of the replicated-subtree flip table.
	SubTableSize = SubBits << SubIndexBits
)

// TSA is the top-hashed subtree-replicated anonymizer.
type TSA struct {
	top []uint16 // TopTableSize entries, each a TopBits-bit value
	sub []byte   // SubTableSize flip bits (one per byte, bit 0)
}

// NewTSA precomputes the two TSA tables from a key. The top table is
// itself built with the full bit-by-bit construction restricted to the
// TopBits-bit domain, so it is prefix preserving; the subtree table is
// filled with PRF bits.
func NewTSA(key uint64) *TSA {
	t := &TSA{
		top: make([]uint16, TopTableSize),
		sub: make([]byte, SubTableSize),
	}
	// Output bit i of v is bit i of v flipped by prf(key, i, the top i
	// bits of v), so the table is built level by level: after level i,
	// top[p] holds the first i+1 output bits for each (i+1)-bit prefix
	// p. Each (level, prefix) pair is hashed once. Level i+1 overwrites
	// level i in place: p runs downwards, so a level-i entry at 2p or
	// 2p+1 (always above p unless p is 0) was consumed before it is
	// overwritten.
	for i := 0; i < TopBits; i++ {
		for p := 1<<i - 1; p >= 0; p-- {
			out := t.top[p] << 1
			flip := uint16(prf(key, i, uint32(p)))
			t.top[2*p] = out | flip
			t.top[2*p+1] = out | (1 ^ flip)
		}
	}
	for d := 0; d < SubBits; d++ {
		for p := 0; p < 1<<SubIndexBits; p++ {
			t.sub[d<<SubIndexBits|p] = byte(prf(key^0x545341 /* "TSA" */, d, uint32(p)))
		}
	}
	return t
}

// Anonymize maps one address: one top-table lookup plus SubBits flip-table
// lookups. The PB32 TSA application implements exactly this loop.
func (t *TSA) Anonymize(addr uint32) uint32 {
	top := addr >> SubBits
	suffix := addr & (1<<SubBits - 1)
	newTop := uint32(t.top[top])
	var newSuffix uint32
	for i := 0; i < SubBits; i++ {
		bit := suffix >> (SubBits - 1 - uint(i)) & 1
		prefix := uint32(0)
		if i > 0 {
			prefix = suffix >> (SubBits - uint(i))
		}
		flip := uint32(t.sub[i<<SubIndexBits|int(prefix&(1<<SubIndexBits-1))]) & 1
		newSuffix = newSuffix<<1 | (bit ^ flip)
	}
	return newTop<<SubBits | newSuffix
}

// SerializeTables lays the TSA tables out for simulated memory:
//
//	top table at topBase: TopTableSize little-endian uint16 values
//	subtree table at subBase: SubTableSize bytes, flip bit in bit 0
//
// The bases are only documentation here (the images are position
// independent); they are part of the loader contract in internal/apps.
func (t *TSA) SerializeTables() (topImage, subImage []byte) {
	topImage = make([]byte, 2*TopTableSize)
	for i, v := range t.top {
		topImage[2*i] = byte(v)
		topImage[2*i+1] = byte(v >> 8)
	}
	subImage = append([]byte(nil), t.sub...)
	return topImage, subImage
}
