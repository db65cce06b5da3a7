package apps

import (
	"testing"

	"repro/internal/core"
	"repro/internal/route"
	"repro/internal/staticcheck"
	"repro/internal/vm"
)

// TestFactsFireOnApps pins down that the verifier's facts pipeline is not
// vacuous: it must prove the region of some loads and stores of every
// bundled application, under the entry and memory map core.New verifies
// with. If a verifier change makes every program untame, the facts
// diagnostics and pbvet -facts fall silent without failing any other
// test; this test is what fails.
func TestFactsFireOnApps(t *testing.T) {
	tbl := route.GenerateTable(route.GenOptions{})
	list := All(tbl, 64, 1)
	list = append(list, PayloadScan([4]byte{0xde, 0xad, 0xbe, 0xef}), Frag(576))
	for _, app := range list {
		b, err := core.New(app, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		prog := b.Program()
		_, facts := staticcheck.VerifyWithFacts(prog, staticcheck.Options{
			Layout: core.LayoutFor(prog, 0), Entries: []string{app.Entry}})
		var loads, stores int
		for i, r := range facts.Mem {
			switch {
			case r == vm.RegionNone:
			case prog.Text[i].Op.IsLoad():
				loads++
			case prog.Text[i].Op.IsStore():
				stores++
			}
		}
		t.Logf("%-14s tame=%v provenLoads=%d provenStores=%d", app.Name, facts.Tame, loads, stores)
		if loads+stores == 0 {
			t.Errorf("%s: no proven memory ops: the facts pipeline proved nothing", app.Name)
		}
	}
}
