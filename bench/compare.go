package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Comparison verdicts.
const (
	improved   = "improved"
	regressed  = "regressed"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// minPairs is how many (base, new) sample pairs a gain needs; the new
// side must win nine tenths of them.
const minPairs = 10

// declaredMetric is one end_to_end entry of BENCHMARK.json.
type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the comparator reads.
type benchmarkFile struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// comparison is one (workload, metric) row of a comparison.
type comparison struct {
	workload, metric string
	base, cand       dist
	// change is how much worse the new median is, as a share of the base
	// median (negative: better).
	change, bound, spread float64
	wins, pairs           int
	verdict               string
}

// judge applies the regression and gain rules to one metric:
//   - regressed: the new median is worse than the base median by more
//     than the bound;
//   - unresolved: either side's spread (IQR over median) is wider than
//     the bound, unless every new sample beats every base sample; or the
//     new side is better by more than the bound without meeting the gain
//     rule;
//   - improved: at least minPairs pairs, the new side wins nine tenths
//     of them, and the medians differ by more than the base IQR;
//   - unchanged otherwise.
func judge(base, cand dist, bound float64, higherBetter bool) comparison {
	worse := func(a, b float64) float64 {
		if a == 0 {
			return 0
		}
		d := (b - a) / math.Abs(a)
		if higherBetter {
			return -d
		}
		return d
	}
	c := comparison{base: base, cand: cand, bound: bound,
		change: worse(base.Median, cand.Median),
		spread: max(base.relIQR(), cand.relIQR()),
		pairs:  min(len(base.Samples), len(cand.Samples)),
	}
	for i := 0; i < c.pairs; i++ {
		if worse(base.Samples[i], cand.Samples[i]) < 0 {
			c.wins++
		}
	}
	allBetter := cand.N > 0 && base.N > 0 &&
		((higherBetter && cand.Min > base.Max) || (!higherBetter && cand.Max < base.Min))
	gain := c.pairs >= minPairs && c.wins*10 >= c.pairs*9 && c.change < 0 &&
		math.Abs(cand.Median-base.Median) > base.Q3-base.Q1
	switch {
	case c.change > bound:
		c.verdict = regressed
	case c.spread > bound && !allBetter:
		c.verdict = unresolved
	case gain:
		c.verdict = improved
	case c.change < -bound:
		c.verdict = unresolved
	default:
		c.verdict = unchanged
	}
	return c
}

// compareResults compares every workload both files measured, on every
// end-to-end metric BENCHMARK.json declares, plus fail_frac, which may
// not grow at all.
func compareResults(base, cand *resultFile, declared []declaredMetric) []comparison {
	var out []comparison
	for _, bw := range base.Workloads {
		var cw *workloadResult
		for i := range cand.Workloads {
			if cand.Workloads[i].Name == bw.Name {
				cw = &cand.Workloads[i]
			}
		}
		if cw == nil {
			continue
		}
		for _, m := range declared {
			bd, bok := bw.EndToEnd[m.Name]
			cd, cok := cw.EndToEnd[m.Name]
			c := comparison{verdict: unresolved, bound: m.Bound}
			if bok && cok {
				c = judge(bd, cd, m.Bound, m.Better == "higher")
			}
			c.workload, c.metric = bw.Name, m.Name
			out = append(out, c)
		}
		bf, cf := bw.EndToEnd["fail_frac"], cw.EndToEnd["fail_frac"]
		c := comparison{workload: bw.Name, metric: "fail_frac", base: bf, cand: cf, verdict: unchanged}
		if cf.Median > bf.Median || !cw.Correct {
			c.verdict = regressed
		}
		out = append(out, c)
	}
	return out
}

// runCompare is -compare base.json new.json: it prints one row per
// (workload, metric) and fails when any row regressed.
func runCompare(args []string, benchJSON string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare takes two result files: base.json new.json")
		return 2
	}
	var decl benchmarkFile
	var base, cand resultFile
	for _, f := range []struct {
		path string
		v    any
	}{{benchJSON, &decl}, {args[0], &base}, {args[1], &cand}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	if base.Host.CPUModel != cand.Host.CPUModel || base.Host.GOMAXPROCS != cand.Host.GOMAXPROCS {
		fmt.Fprintf(stdout, "warning: the results come from different hosts (%s, GOMAXPROCS %d vs %s, GOMAXPROCS %d)\n",
			base.Host.CPUModel, base.Host.GOMAXPROCS, cand.Host.CPUModel, cand.Host.GOMAXPROCS)
	}
	fmt.Fprintf(stdout, "%-16s %-14s %14s %14s %8s %6s %7s %7s  %s\n",
		"workload", "metric", "base median", "new median", "worse", "bound", "spread", "wins", "verdict")
	status := 0
	for _, c := range compareResults(&base, &cand, decl.EndToEnd) {
		fmt.Fprintf(stdout, "%-16s %-14s %14.6g %14.6g %+7.2f%% %5.1f%% %6.2f%% %3d/%-3d  %s\n",
			c.workload, c.metric, c.base.Median, c.cand.Median, 100*c.change, 100*c.bound, 100*c.spread, c.wins, c.pairs, c.verdict)
		if c.verdict == regressed {
			status = 1
		}
	}
	return status
}
