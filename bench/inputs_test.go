package main

import (
	"testing"
)

func TestInputDigestFollowsSeed(t *testing.T) {
	for _, name := range []string{radixMRA, tsaMinStream} {
		w := workload{name: name, packets: 500}
		digest := func(seed int64) string {
			d, err := writeInputs(w, seed, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		a, again, other := digest(1), digest(1), digest(2)
		if a == "" || a != again {
			t.Errorf("%s: seed 1 gave digests %q and %q", name, a, again)
		}
		if a == other {
			t.Errorf("%s: seeds 1 and 2 gave the same input digest %s", name, a)
		}
	}
}

func TestPaperPacketsAtScaleOne(t *testing.T) {
	if got := paperPackets(paperConfig(1)); got != 1_008_004 {
		t.Errorf("paper-repro simulates %d packets at scale 1, want 1008004", got)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json, which declares the
// benchmark and gives -compare its bounds, in step with the metrics this
// package reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	var f struct {
		benchmarkFile
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &f); err != nil {
		t.Fatal(err)
	}
	ws := defaultWorkloads()
	if len(f.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(f.Workloads), len(ws))
	}
	for i, w := range ws {
		if f.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, f.Workloads[i].Name, w.name)
		}
	}
	if len(f.EndToEnd) != len(gatedEndToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code %d", len(f.EndToEnd), len(gatedEndToEnd))
	}
	for i, m := range gatedEndToEnd {
		d := f.EndToEnd[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, code %+v", i, d, m)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		d := f.PerLayer[i]
		if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, code %+v", i, d, m)
		}
	}
}
