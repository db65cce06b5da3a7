package main

import "testing"

// around returns n samples alternating just above and below v.
func around(v float64, n int) dist {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v * (1 + 0.001*float64(i%3-1))
	}
	return summarize(xs)
}

func TestJudge(t *testing.T) {
	noisy := summarize([]float64{80, 100, 120, 90, 110})
	cases := []struct {
		name         string
		base, cand   dist
		higherBetter bool
		want         string
	}{
		{"same samples", around(100, 5), around(100, 5), true, unchanged},
		{"throughput down 20%", around(100, 5), around(80, 5), true, regressed},
		{"time up 20%", around(1, 5), around(1.2, 5), false, regressed},
		{"time down 20%, too few pairs", around(1, 5), around(0.8, 5), false, unresolved},
		{"throughput up 20% over 10 pairs", around(100, 10), around(120, 10), true, improved},
		{"spread wider than the bound", noisy, around(100, 5), true, unresolved},
		{"every new sample beats every base sample", noisy, around(130, 5), true, unresolved},
		{"within the bound", around(100, 10), around(97, 10), true, unchanged},
	}
	for _, c := range cases {
		if got := judge(c.base, c.cand, 0.1, c.higherBetter); got.verdict != c.want {
			t.Errorf("%s: verdict %s (worse %.3f, spread %.3f, wins %d/%d), want %s",
				c.name, got.verdict, got.change, got.spread, got.wins, got.pairs, c.want)
		}
	}
}

func TestJudgeNeedsNineTenthsOfPairs(t *testing.T) {
	base := around(100, 10)
	better := make([]float64, 10)
	for i := range better {
		better[i] = 120
	}
	better[0], better[1] = 90, 90 // two lost pairs: 8/10 wins
	if got := judge(base, summarize(better), 0.25, true); got.verdict == improved {
		t.Errorf("8/10 pair wins judged improved")
	}
	better[1] = 120 // 9/10
	if got := judge(base, summarize(better), 0.25, true); got.verdict != improved {
		t.Errorf("9/10 pair wins judged %s, want improved", got.verdict)
	}
}

func TestCompareResultsFailFrac(t *testing.T) {
	mk := func(failFrac float64) *resultFile {
		return &resultFile{Workloads: []workloadResult{{
			Name:    radixMRA,
			Correct: true,
			EndToEnd: map[string]dist{
				"pkts_per_s": around(100, 5),
				"fail_frac":  summarize([]float64{failFrac}),
			},
		}}}
	}
	decl := []declaredMetric{{Name: "pkts_per_s", Better: "higher", Bound: 0.1}, {Name: "setup_s", Better: "lower", Bound: 0.25}}
	verdicts := func(cs []comparison) map[string]string {
		m := map[string]string{}
		for _, c := range cs {
			m[c.metric] = c.verdict
		}
		return m
	}
	got := verdicts(compareResults(mk(0), mk(0), decl))
	want := map[string]string{"pkts_per_s": unchanged, "setup_s": unresolved, "fail_frac": unchanged}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("same results: %s %s, want %s", k, got[k], v)
		}
	}
	if v := verdicts(compareResults(mk(0), mk(0.01), decl))["fail_frac"]; v != regressed {
		t.Errorf("more failures: fail_frac %s, want regressed", v)
	}
}
