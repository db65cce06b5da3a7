package gen

import (
	"math"
	"math/rand"
	"testing"
)

// randFillSeeds covers the seeds Seed folds specially (0, negatives,
// values at and past 2^31-1) and a spread of ordinary ones, including
// the built-in profiles'.
func randFillSeeds() []int64 {
	seeds := []int64{
		0, -1, -2, -12345678901, math.MinInt64,
		1<<31 - 2, 1<<31 - 1, 1 << 31, 1<<32 + 7, 1 << 62, math.MaxInt64,
	}
	for _, p := range AllProfiles() {
		seeds = append(seeds, p.Seed)
	}
	for s := int64(1); len(seeds) < 48; s = s*7919 + 13 {
		seeds = append(seeds, s)
	}
	return seeds
}

// randFillLengths put run boundaries at and around a fill's ends: from
// the seeded state (tap 0, feed 334) tap wraps on the first draw and
// feed after 334, and 607 draws bring both back. Filled back to back,
// the lengths move later fills across both wraps at shifting offsets.
var randFillLengths = []int{0, 1, 272, 273, 274, 333, 334, 335, 606, 607, 608, 1500, 9001}

// checkRandFill fills n bytes from a copied source that has made pre
// mixed draws and compares them, and the draws after them, with the
// same sequence on math/rand's own source. The first skip%(n+1) draws
// of each fill are skipped rather than filled, and math/rand's Int63
// draws them.
func checkRandFill(t *testing.T, seed int64, pre int, lengths []int, skip int) {
	t.Helper()
	src := new(rngSource)
	src.Seed(seed)
	got, want := rand.New(src), rand.New(rand.NewSource(seed))
	mixed := func(k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			var g, w float64
			switch i % 3 {
			case 0:
				g, w = got.Float64(), want.Float64()
			case 1:
				n := 1 + (i*37)%65536
				g, w = float64(got.Intn(n)), float64(want.Intn(n))
			case 2:
				g, w = float64(got.Uint32()), float64(want.Uint32())
			}
			if g != w {
				t.Fatalf("seed %d: mixed draw %d = %v, math/rand gives %v", seed, i, g, w)
			}
		}
	}
	mixed(pre)
	for _, n := range lengths {
		k := skip % (n + 1)
		src.skip(k)
		for range k {
			want.Int63()
		}
		b := make([]byte, n-k)
		src.fillBytes(b)
		for i, v := range b {
			if w := byte(want.Int63() >> 32); v != w {
				t.Fatalf("seed %d, fill of %d after %d draws and a skip of %d: byte %d = %#x, math/rand gives %#x", seed, n, pre, k, k+i, v, w)
			}
		}
		mixed(5)
	}
}

// TestRandFillMatchesMathRand: fillBytes draws exactly the bytes
// math/rand would, one Int63 per byte, skip steps over the draws one
// Int63 each, and both leave the source where those calls would leave
// it.
func TestRandFillMatchesMathRand(t *testing.T) {
	for _, seed := range randFillSeeds() {
		for _, n := range randFillLengths {
			checkRandFill(t, seed, 0, []int{n}, 0)
			checkRandFill(t, seed, 0, []int{n}, n)
		}
		pre := int(uint64(seed) % 700)
		checkRandFill(t, seed, pre, randFillLengths, 0)
		checkRandFill(t, seed, pre, randFillLengths, 334+pre)
	}
}

func FuzzRandFill(f *testing.F) {
	f.Add(int64(0), uint16(0), uint16(0), uint16(0))
	f.Add(int64(-1), uint16(273), uint16(334), uint16(273))
	f.Add(int64(1<<31-1), uint16(606), uint16(9001), uint16(1500))
	f.Add(int64(0x4D5241), uint16(1), uint16(1500), uint16(607))
	f.Fuzz(func(t *testing.T, seed int64, pre, n, skip uint16) {
		checkRandFill(t, seed, int(pre%2048), []int{int(n % 16384), int(pre % 700)}, int(skip))
	})
}
