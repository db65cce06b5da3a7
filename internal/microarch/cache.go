package microarch

import (
	"fmt"
)

// Cache models a set-associative cache with LRU replacement, the
// structure whose sizing the paper motivates ("a good example is the
// memory hierarchy, where smaller on-chip memories suffice due to the
// nature of packet processing"). Only hit/miss behaviour is modeled —
// no data is stored.
type Cache struct {
	lineBits uint32
	setBits  uint32
	ways     int
	// slots holds set s in slots[s*ways:(s+1)*ways], most recently used
	// first. A slot holds tag<<1|1, or 0 when empty.
	slots []uint64

	Accesses uint64
	Misses   uint64
}

// NewCache builds a cache of totalBytes capacity with lineBytes lines
// and the given associativity. All three parameters must be powers of
// two and consistent (totalBytes = sets * ways * lineBytes with at
// least one set).
func NewCache(totalBytes, lineBytes, ways int) (*Cache, error) {
	if totalBytes <= 0 || lineBytes <= 0 || ways <= 0 {
		return nil, fmt.Errorf("microarch: cache parameters must be positive")
	}
	if totalBytes&(totalBytes-1) != 0 || lineBytes&(lineBytes-1) != 0 || ways&(ways-1) != 0 {
		return nil, fmt.Errorf("microarch: cache parameters must be powers of two")
	}
	sets := totalBytes / lineBytes / ways
	if sets < 1 {
		return nil, fmt.Errorf("microarch: %dB/%dB-line/%d-way leaves no sets", totalBytes, lineBytes, ways)
	}
	c := &Cache{ways: ways, slots: make([]uint64, sets*ways)}
	for lineBytes>>c.lineBits != 1 {
		c.lineBits++
	}
	for sets>>c.setBits != 1 {
		c.setBits++
	}
	return c, nil
}

// Access touches addr, returning whether it hit. Misses install the
// line, evicting the LRU way.
//
// pblint:hotpath — runs once per data access of every profiled packet.
func (c *Cache) Access(addr uint32) bool { return c.accessLine(addr >> c.lineBits) }

// accessLine is Access for line number line (an address >> lineBits).
func (c *Cache) accessLine(line uint32) bool {
	c.Accesses++
	set := int(line&(1<<c.setBits-1)) * c.ways
	slots := c.slots[set : set+c.ways]
	want := uint64(line>>c.setBits)<<1 | 1
	for w, s := range slots {
		if s == want {
			copy(slots[1:w+1], slots[:w])
			slots[0] = want
			return true
		}
	}
	c.Misses++
	copy(slots[1:], slots)
	slots[0] = want
	return false
}

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 { return rate(c.Misses, c.Accesses) }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.slots) / c.ways }

// String summarizes geometry and behaviour.
func (c *Cache) String() string {
	return fmt.Sprintf("%d sets x %d ways x %dB lines: %d accesses, %d misses (%.2f%%)",
		c.Sets(), c.ways, 1<<c.lineBits, c.Accesses, c.Misses, 100*c.MissRate())
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	clear(c.slots)
	c.Accesses, c.Misses = 0, 0
}
