//go:build !race

package stats

import "testing"

// TestCollectorBlocksAllocs pins that the block slab makes executed-block
// sets allocation-free: a 256-packet pass on the threaded engine may
// allocate one slab chunk at most. The race detector's instrumentation
// allocates, hence the build tag.
func TestCollectorBlocksAllocs(t *testing.T) {
	h := newHarness(t, skipSrc)
	h.cpu.Mem.Write32(h.cpu.Mem.Layout().PacketBase, 1)
	const packets = 256
	a := testing.AllocsPerRun(10, func() {
		for i := 0; i < packets; i++ {
			h.run(t, true)
		}
	})
	if a > 1 {
		t.Errorf("%v allocs per %d packets, want at most 1", a, packets)
	}
}
