//go:build !race

package stats

import "testing"

// TestCollectorBlocksAllocs pins what executed-block sets cost in
// allocations over a 256-packet pass on the threaded engine: nothing with
// BlockSets off, the default, when records carry no set, and at most one
// slab chunk with it on. The race detector's instrumentation allocates,
// hence the build tag.
func TestCollectorBlocksAllocs(t *testing.T) {
	h := newHarness(t, skipSrc)
	h.cpu.Mem.Write32(h.cpu.Mem.Layout().PacketBase, 1)
	const packets = 256
	for _, c := range []struct {
		blockSets bool
		max       float64
	}{{false, 0}, {true, 1}} {
		h.col.BlockSets = c.blockSets
		if rec := h.run(t, true); (rec.Blocks != nil) != c.blockSets {
			t.Errorf("BlockSets %v: record Blocks %v", c.blockSets, rec.Blocks)
		}
		a := testing.AllocsPerRun(10, func() {
			for i := 0; i < packets; i++ {
				h.run(t, true)
			}
		})
		if a > c.max {
			t.Errorf("BlockSets %v: %v allocs per %d packets, want at most %v", c.blockSets, a, packets, c.max)
		}
	}
}
