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
	// sets[s][w] holds the tag; order within a set is LRU (index 0 is
	// most recently used). valid bit packed as tag|1 offset avoided by a
	// parallel slice.
	tags  [][]uint32
	valid [][]bool

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
	c := &Cache{
		ways:  ways,
		tags:  make([][]uint32, sets),
		valid: make([][]bool, sets),
	}
	for lineBytes>>c.lineBits != 1 {
		c.lineBits++
	}
	for sets>>c.setBits != 1 {
		c.setBits++
	}
	for i := range c.tags {
		c.tags[i] = make([]uint32, ways)
		c.valid[i] = make([]bool, ways)
	}
	return c, nil
}

// Access touches addr, returning whether it hit. Misses install the
// line, evicting the LRU way.
func (c *Cache) Access(addr uint32) bool {
	c.Accesses++
	line := addr >> c.lineBits
	set := line & (1<<c.setBits - 1)
	tag := line >> c.setBits
	tags, valid := c.tags[set], c.valid[set]
	for w := 0; w < c.ways; w++ {
		if valid[w] && tags[w] == tag {
			// Move to MRU position.
			copy(tags[1:w+1], tags[:w])
			copy(valid[1:w+1], valid[:w])
			tags[0], valid[0] = tag, true
			return true
		}
	}
	c.Misses++
	copy(tags[1:], tags[:c.ways-1])
	copy(valid[1:], valid[:c.ways-1])
	tags[0], valid[0] = tag, true
	return false
}

// hitMRU counts n more accesses to the line the last Access touched.
// They hit, and that line is already most recently used, so the LRU
// order stays as it is.
func (c *Cache) hitMRU(n uint64) { c.Accesses += n }

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 { return rate(c.Misses, c.Accesses) }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return len(c.tags) }

// String summarizes geometry and behaviour.
func (c *Cache) String() string {
	return fmt.Sprintf("%d sets x %d ways x %dB lines: %d accesses, %d misses (%.2f%%)",
		c.Sets(), c.ways, 1<<c.lineBits, c.Accesses, c.Misses, 100*c.MissRate())
}

// Reset clears contents and counters.
func (c *Cache) Reset() {
	for i := range c.valid {
		for w := range c.valid[i] {
			c.valid[i][w] = false
		}
	}
	c.Accesses, c.Misses = 0, 0
}
