package microarch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/packet"
	"repro/internal/route"
	"repro/internal/trace"
)

// pinnedProfile is what TestProfilerPinned pins of one profiled run.
type pinnedProfile struct {
	Mix                                    [NumClasses]uint64
	Branches, Taken, BTFN, Bimodal         uint64
	IAccesses, IMisses, DAccesses, DMisses uint64
	Cycles                                 uint64
}

// TestProfilerPinned pins the profile of each application over 2,000
// generated MRA packets with 4 KiB / 8 KiB two-way caches. Both engines
// feed the one profiler, so the oracle matrix cannot see a changed
// number; this test does. The values were recorded from a profiler that
// walked its per-instruction table on every pass and kept each cache set
// as a [][]uint32 LRU.
func TestProfilerPinned(t *testing.T) {
	prof, err := gen.ProfileByName("MRA")
	if err != nil {
		t.Fatal(err)
	}
	pkts := gen.Generate(prof, 2000)
	var dsts []uint32
	for _, p := range pkts {
		if h, err := packet.ParseIPv4(p.Data); err == nil {
			dsts = append(dsts, h.Dst)
		}
	}
	want := map[string]pinnedProfile{
		"IPv4-radix": {
			Mix:      [NumClasses]uint64{757966, 0, 369848, 63829, 207106, 53844, 0},
			Branches: 207106, Taken: 30030, BTFN: 189124, Bimodal: 198522,
			IAccesses: 1452593, IMisses: 41, DAccesses: 433677, DMisses: 72665,
			Cycles: 3877986,
		},
		"IPv4-trie": {
			Mix:      [NumClasses]uint64{330404, 0, 83168, 6026, 65196, 15124, 0},
			Branches: 65196, Taken: 32017, BTFN: 49209, Bimodal: 56619,
			IAccesses: 499918, IMisses: 38, DAccesses: 89194, DMisses: 2927,
			Cycles: 825862,
		},
		"Flow Classification": {
			Mix:      [NumClasses]uint64{83909, 2000, 43166, 12640, 9685, 2953, 0},
			Branches: 9685, Taken: 3893, BTFN: 5792, Bimodal: 7355,
			IAccesses: 154353, IMisses: 25, DAccesses: 55806, DMisses: 5118,
			Cycles: 371877,
		},
		"TSA": {
			Mix:      [NumClasses]uint64{798000, 0, 112000, 40000, 64000, 10000, 0},
			Branches: 64000, Taken: 60000, BTFN: 60000, Bimodal: 59998,
			IAccesses: 1024000, IMisses: 20, DAccesses: 152000, DMisses: 5059,
			Cycles: 1529580,
		},
	}
	tbl := route.TableFromTraffic(dsts, 0, 16, 7)
	for _, eng := range []core.EngineKind{core.EngineThreaded, core.EngineInterpreter} {
		for _, app := range apps.All(tbl, 1024, 0x5453412D31363A31) {
			profilePinned(t, app, eng, pkts, want[app.Name])
		}
	}
}

// profilePinned profiles app over pkts on engine eng and compares the
// result with want.
func profilePinned(t *testing.T, app *core.App, eng core.EngineKind, pkts []*trace.Packet, want pinnedProfile) {
	t.Helper()
	b, err := core.New(app, core.Options{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ic, _ := NewCache(4096, 16, 2)
	dc, _ := NewCache(8192, 16, 2)
	p := NewProfiler(ic, dc)
	b.AddTracer(p)
	if _, err := b.RunPackets(pkts, nil); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	got := pinnedProfile{
		Mix:      p.Mix.Counts,
		Branches: p.Branches.Branches, Taken: p.Branches.Taken,
		BTFN: p.Branches.BTFNCorrect, Bimodal: p.Branches.BimodalCorrect,
		IAccesses: ic.Accesses, IMisses: ic.Misses,
		DAccesses: dc.Accesses, DMisses: dc.Misses,
		Cycles: p.Cycles,
	}
	if got != want {
		t.Errorf("%s on the %s engine: profile %+v, want %+v", app.Name, eng, got, want)
	}
}

// refLRU is a plain LRU reference: each set is a list of line numbers,
// most recently used first.
type refLRU struct {
	lineBits, sets, ways int
	lines                [][]uint32
}

func (r *refLRU) access(addr uint32) bool {
	line := addr >> r.lineBits
	set := int(line) % r.sets
	l := r.lines[set]
	i := slices.Index(l, line)
	hit := i >= 0
	if hit {
		l = slices.Delete(l, i, i+1)
	} else if len(l) == r.ways {
		l = l[:len(l)-1]
	}
	r.lines[set] = slices.Insert(l, 0, line)
	return hit
}

// TestCacheMatchesReferenceLRU drives the cache and a plain reference
// LRU with the same random addresses on 1-, 2-, 4- and 8-way geometries
// and compares hit or miss after every access, then the counters.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8} {
		for _, total := range []int{256, 4096} {
			t.Run(fmt.Sprintf("%dB-%dway", total, ways), func(t *testing.T) {
				const lineBytes = 16
				c, err := NewCache(total, lineBytes, ways)
				if err != nil {
					t.Fatal(err)
				}
				ref := &refLRU{lineBits: 4, sets: total / lineBytes / ways, ways: ways}
				ref.lines = make([][]uint32, ref.sets)
				rng := rand.New(rand.NewSource(int64(total + ways)))
				// A working set about twice the capacity, with some
				// addresses high enough to need every tag bit.
				span := uint32(2 * total)
				var misses uint64
				for i := range 20000 {
					addr := rng.Uint32() % span
					if i%7 == 0 {
						addr = rng.Uint32()
					}
					want := ref.access(addr)
					if !want {
						misses++
					}
					if got := c.Access(addr); got != want {
						t.Fatalf("access %d (%#x): hit %v, reference %v", i, addr, got, want)
					}
				}
				if c.Accesses != 20000 || c.Misses != misses {
					t.Errorf("accesses/misses %d/%d, want 20000/%d", c.Accesses, c.Misses, misses)
				}
			})
		}
	}
}
