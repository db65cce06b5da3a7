package apps

import (
	"testing"

	"repro/internal/core"
	"repro/internal/route"
)

// TestFactsFireOnApps pins down that the proof-guided translator is not
// vacuous: the verifier's facts pipeline must prove enough about the
// bundled applications for the threaded engine to actually elide memory
// checks. If a verifier change makes
// every program untame, correctness tests all still pass (untame just
// means fully-checked translation) — this test is what fails.
func TestFactsFireOnApps(t *testing.T) {
	tbl := route.GenerateTable(route.GenOptions{})
	list := All(tbl, 64, 1)
	list = append(list, PayloadScan([4]byte{0xde, 0xad, 0xbe, 0xef}), Frag(576))
	anyUnchecked := false
	for _, app := range list {
		b, err := core.New(app, core.Options{Engine: core.EngineThreaded})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		st := b.TranslationStats()
		t.Logf("%-14s uncheckedLoads=%d uncheckedStores=%d elidedMasks=%d deadBlocks=%d",
			app.Name, st.UncheckedLoads, st.UncheckedStores, st.ElidedMasks, st.DeadBlocks)
		if st.UncheckedLoads+st.UncheckedStores == 0 {
			t.Errorf("%s: no unchecked memory ops: the facts pipeline proved nothing", app.Name)
		}
		if st.UncheckedLoads+st.UncheckedStores > 0 {
			anyUnchecked = true
		}
	}
	if !anyUnchecked {
		t.Errorf("no bundled app got a single unchecked memory op: the facts pipeline proved nothing")
	}
}
