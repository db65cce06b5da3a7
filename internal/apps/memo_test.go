package apps

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/route"
)

// routeApps are the forwarding applications with the words their Init
// publishes.
var routeApps = []struct {
	name  string
	build func(*route.Table) *core.App
	words []string
}{
	{"radix", IPv4Radix, []string{"radix_root"}},
	{"trie", IPv4Trie, []string{"trie_nodes", "trie_entries"}},
}

// sameLoad reports whether two benches of one program hold identical
// memory and publish the same table addresses.
func sameLoad(t *testing.T, a, b *core.Bench, words []string) bool {
	t.Helper()
	if !a.Memory().Equal(b.Memory()) {
		return false
	}
	for _, w := range words {
		addr, err := a.Loader().Symbol(w)
		if err != nil {
			t.Fatal(err)
		}
		if a.Memory().Read32(addr) != b.Memory().Read32(addr) {
			return false
		}
	}
	return true
}

// TestRouteImageMemo loads one forwarding App repeatedly: every load
// equals a fresh App's, and after the table is mutated the next load
// equals a fresh App over the mutated table, not the kept image.
func TestRouteImageMemo(t *testing.T) {
	_, tbl := testTrace(t, "MRA", 2000)
	for _, ra := range routeApps {
		t.Run(ra.name, func(t *testing.T) {
			tbl := &route.Table{Entries: slices.Clone(tbl.Entries)}
			app := ra.build(tbl)
			first, again := newBench(t, app, core.Options{}), newBench(t, app, core.Options{})
			fresh := newBench(t, ra.build(&route.Table{Entries: slices.Clone(tbl.Entries)}), core.Options{})
			if !sameLoad(t, first, fresh, ra.words) || !sameLoad(t, again, fresh, ra.words) {
				t.Fatal("a load of the App differs from a fresh App's")
			}

			tbl.Entries[len(tbl.Entries)/2].NextHop++
			tbl.Entries = append(tbl.Entries, route.Entry{Prefix: 0x0A000000, Len: 8, NextHop: 3})
			mutated := newBench(t, app, core.Options{})
			fresh = newBench(t, ra.build(&route.Table{Entries: slices.Clone(tbl.Entries)}), core.Options{})
			if sameLoad(t, mutated, first, ra.words) {
				t.Error("the load after the table changed reused the old image")
			}
			if !sameLoad(t, mutated, fresh, ra.words) {
				t.Error("the load after the table changed differs from a fresh App over the new table")
			}
		})
	}
}

// TestRouteMemoKeys checks the memo's keys directly: the same entries
// reuse the structure, changed entries rebuild it, and an image is
// serialized again when its bases move or the structure was rebuilt.
func TestRouteMemoKeys(t *testing.T) {
	_, tbl := testTrace(t, "MRA", 500)
	var m routeMemo[route.RadixTree]
	builds := 0
	build := func(t *route.Table) (*route.RadixTree, error) {
		builds++
		return route.NewRadixTree(t), nil
	}
	serializes := 0
	image := func(tree *route.RadixTree, base uint32) [2][]byte {
		return m.images([2]uint32{base}, func() [2][]byte {
			serializes++
			img, _ := tree.Serialize(base)
			return [2][]byte{img}
		})
	}

	tree, _ := m.structure(tbl, build)
	image(tree, 0x1000)
	if again, _ := m.structure(tbl, build); again != tree || builds != 1 {
		t.Errorf("same entries: %d builds, same tree %v; want 1 build of one tree", builds, again == tree)
	}
	image(tree, 0x1000)
	if serializes != 1 {
		t.Errorf("same bases: %d serializations, want 1", serializes)
	}
	if got, _ := tree.Serialize(0x2000); !slices.Equal(image(tree, 0x2000)[0], got) || serializes != 2 {
		t.Errorf("moved base: %d serializations, want 2 and the image at the new base", serializes)
	}

	tbl.Entries[0].NextHop++
	rebuilt, _ := m.structure(tbl, build)
	if rebuilt == tree || builds != 2 {
		t.Errorf("changed entries: %d builds, want 2 and a new tree", builds)
	}
	if image(rebuilt, 0x2000); serializes != 3 {
		t.Errorf("rebuilt tree at the old base: %d serializations, want 3", serializes)
	}
}

// TestRouteImageMemoConcurrent builds pools of one forwarding App from
// several goroutines at once: every core must equal a fresh App's load
// (run under -race, this also checks the memo's locking).
func TestRouteImageMemoConcurrent(t *testing.T) {
	_, tbl := testTrace(t, "MRA", 2000)
	for _, ra := range routeApps {
		app := ra.build(tbl)
		fresh := newBench(t, ra.build(tbl), core.Options{})
		pools := make([]*core.Pool, 3)
		var wg sync.WaitGroup
		for i := range pools {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p, err := core.NewPool(app, 4, core.Options{})
				if err != nil {
					t.Error(err)
					return
				}
				pools[i] = p
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for i, p := range pools {
			for c := 0; c < p.Cores(); c++ {
				if !sameLoad(t, p.Bench(c), fresh, ra.words) {
					t.Errorf("%s: pool %d core %d differs from a fresh App's load", ra.name, i, c)
				}
			}
		}
	}
}
