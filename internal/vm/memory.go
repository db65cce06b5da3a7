package vm

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// minGrow is the length a region's slice first grows to.
const minGrow = 4 << 10

// Memory is the little-endian, byte-addressed memory of a simulated core,
// made for one Layout: one contiguous slice for each of the packet, data
// and stack regions. A slice holds the prefix of its region that writes
// have reached so far. A write past it grows it, doubling from 4 KiB up
// to the region's size, and bytes past it read as zero, so a
// multi-megabyte heap costs only what the application writes.
//
// Both engines resolve an application access the same way: find serves
// an access inside a grown slice, and CPU.miss applies the interpreter's
// checks to every other one. Host (framework) code is trusted: its
// accessors panic on an access that lies outside every region.
type Memory struct {
	// The pads keep seg, which every access reads and counts itself in,
	// off the cache lines of neighbouring heap objects: another core
	// writing one of those, such as its Bench, would evict seg.
	_      [64]byte
	layout Layout
	seg    [RegionStack + 1]segment // by Region; text and none stay empty
	_      [64]byte
}

// segment is one region's bounds and the grown prefix of its bytes, and
// the region's share of the running CPU's account: the run's accesses
// by direction, and the account's coverage set while it marks one (see
// CPU.bind).
type segment struct {
	r          Region
	base, size uint32
	b          []byte
	n          [2]uint64
	mark       []uint64
}

// access accounts a data access at offset off of the region. An aligned
// access never spans a word; bit off/4 of the set marks its word.
func (s *segment) access(off uint32, write bool) {
	s.n[b2u(write)]++
	if i := off >> 8; i < uint32(len(s.mark)) {
		s.mark[i] |= 1 << (off >> 2 & 63)
	}
}

// NewMemory creates an empty memory for the given layout. It panics if
// the layout fails Check.
func NewMemory(l Layout) *Memory {
	if err := l.Check(); err != nil {
		panic(err)
	}
	m := &Memory{layout: l}
	m.seg[RegionPacket] = segment{r: RegionPacket, base: l.PacketBase, size: l.PacketEnd - l.PacketBase}
	m.seg[RegionData] = segment{r: RegionData, base: l.DataBase, size: l.DataEnd - l.DataBase}
	m.seg[RegionStack] = segment{r: RegionStack, base: l.StackBase, size: l.StackEnd - l.StackBase}
	return m
}

// Layout returns the layout the memory was made for.
func (m *Memory) Layout() Layout { return m.layout }

// Extent returns the length of region r's grown prefix: the bytes the
// memory holds for it.
func (m *Memory) Extent(r Region) int { return len(m.seg[r].b) }

// find resolves an application access at addr to the region whose grown
// slice holds addr and addr's offset in it, or to nil when no grown
// slice does. Slice lengths are word multiples, so an aligned access that
// starts inside a slice ends inside it.
func (m *Memory) find(addr uint32) (*segment, uint32) {
	if s := &m.seg[RegionData]; addr-s.base < uint32(len(s.b)) {
		return s, addr - s.base
	}
	if s := &m.seg[RegionPacket]; addr-s.base < uint32(len(s.b)) {
		return s, addr - s.base
	}
	if s := &m.seg[RegionStack]; addr-s.base < uint32(len(s.b)) {
		return s, addr - s.base
	}
	return nil, 0
}

// grow extends the slice to hold at least need bytes.
func (s *segment) grow(need uint32) {
	if int(need) <= len(s.b) {
		return
	}
	n := max(2*len(s.b), minGrow)
	for n < int(need) {
		n *= 2
	}
	b := make([]byte, min(n, int(s.size)))
	copy(b, s.b)
	s.b = b
}

// The readers and writers of an application access at off in a region's
// slice b. Slice lengths are word multiples, so an aligned access that
// starts inside b ends inside it; the readers read offsets past b as
// zero. Each compares against the access's last byte and slices b to
// the access's width, which leaves the move no further check.

func read8(b []byte, off uint32) uint8 {
	if off < uint32(len(b)) {
		return b[off]
	}
	return 0
}

func read16(b []byte, off uint32) uint16 {
	if i := int(off); i+1 < len(b) {
		return binary.LittleEndian.Uint16(b[i : i+2])
	}
	return 0
}

func read32(b []byte, off uint32) uint32 {
	if i := int(off); i+3 < len(b) {
		return binary.LittleEndian.Uint32(b[i : i+4])
	}
	return 0
}

func write16(b []byte, off uint32, v uint16) {
	binary.LittleEndian.PutUint16(b[off:off+2], v)
}

func write32(b []byte, off uint32, v uint32) {
	binary.LittleEndian.PutUint32(b[off:off+4], v)
}

// span returns the region holding the n host bytes at addr and addr's
// offset in it.
func (m *Memory) span(addr uint32, n int) (*segment, uint32) {
	for i := range m.seg {
		s := &m.seg[i]
		if off := addr - s.base; off <= s.size && uint64(n) <= uint64(s.size-off) {
			return s, off
		}
	}
	panic(fmt.Sprintf("vm: host access of %d bytes at %#x lies outside every region", n, addr))
}

// Read32 returns the little-endian 32-bit value at addr.
func (m *Memory) Read32(addr uint32) uint32 {
	var w [4]byte
	m.read(addr, w[:])
	return binary.LittleEndian.Uint32(w[:])
}

// Write32 stores a little-endian 32-bit value at addr.
func (m *Memory) Write32(addr uint32, v uint32) {
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], v)
	m.WriteBytes(addr, w[:])
}

// WriteBytes copies b into memory starting at addr. It is intended for
// host (framework) use: loading segments, placing packets.
func (m *Memory) WriteBytes(addr uint32, b []byte) {
	s, off := m.span(addr, len(b))
	s.grow(off + uint32(len(b)))
	copy(s.b[off:], b)
}

// ReadBytes copies n bytes starting at addr into a fresh slice. It is
// intended for host (framework) use: retrieving modified packets.
func (m *Memory) ReadBytes(addr uint32, n int) []byte {
	out := make([]byte, n)
	m.read(addr, out)
	return out
}

// read fills dst, which reads as zero, from the bytes at addr.
func (m *Memory) read(addr uint32, dst []byte) {
	if s, off := m.span(addr, len(dst)); int(off) < len(s.b) {
		copy(dst, s.b[off:])
	}
}

// Zero clears n bytes starting at addr; it grows nothing.
func (m *Memory) Zero(addr uint32, n int) {
	if s, off := m.span(addr, n); int(off) < len(s.b) {
		clear(s.b[off:min(len(s.b), int(off)+n)])
	}
}

// Equal reports whether two memories have the same layout and contents.
// A region's bytes past one memory's extent compare as zero.
func (m *Memory) Equal(o *Memory) bool {
	if m.layout != o.layout {
		return false
	}
	for r := range m.seg {
		a, b := m.seg[r].b, o.seg[r].b
		if len(a) > len(b) {
			a, b = b, a
		}
		if !bytes.Equal(a, b[:len(a)]) || len(bytes.TrimRight(b[len(a):], "\x00")) != 0 {
			return false
		}
	}
	return true
}
