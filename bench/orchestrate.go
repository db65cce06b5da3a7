package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// childTimeout bounds one child process; a wedged rep is killed and
// counted as failed rather than hanging the benchmark.
const childTimeout = 150 * time.Second

// setup_s is the median of at least minSetups set-up samples, one per
// timed rep plus set-up-only children. Children are added, up to
// maxSetups samples, while the samples sum to less than setupBudget
// seconds: a set-up of a few milliseconds in a fresh process is noisy,
// and its children cost little more than process start.
const (
	minSetups   = 3
	maxSetups   = 15
	setupBudget = 2.0
)

// Trace modes (-trace).
const (
	traceBoth = -1 // timed reps, then the traced run
	traceOff  = 0  // timed reps only
	traceOnly = 1  // one timed rep (the overhead baseline) and the traced run
)

// plan is one benchmark invocation.
type plan struct {
	workloads []workload
	seed      int64
	// minReps timed reps run per workload; with seconds > 0 more follow
	// while the workload's measured run time stays within seconds.
	minReps int
	seconds float64
	trace   int
	workDir string // inputs are generated under here
	exe     string // the binary re-executed for every child
	log     io.Writer
}

// tally accumulates one workload's child results.
type tally struct {
	w           workload
	dir         string
	inputDigest string
	runs        int // timed children started, failed or not
	reps        []*childResult
	setups      []float64
	traced      *childResult
	attempted   int
	failed      int
	digests     map[string]bool
	errs        []string
}

// workers is the pool size: one core is left for the producer and the
// aggregator, so the workload runs no more busy goroutines than
// GOMAXPROCS.
func (w workload) workers() int {
	if w.name != tsaMinStream {
		return 1
	}
	return max(1, runtime.GOMAXPROCS(0)-1)
}

// busy is how many goroutines the workload keeps busy: the workers,
// plus the producer for the streaming pool.
func (w workload) busy() int {
	if w.name == tsaMinStream {
		return w.workers() + 1
	}
	return 1
}

func (p *plan) execute() (*resultFile, error) {
	root, err := os.MkdirTemp(p.workDir, "inputs-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	ts := make([]*tally, len(p.workloads))
	for i, w := range p.workloads {
		t := &tally{w: w, dir: filepath.Join(root, w.name), digests: map[string]bool{}}
		if err := os.Mkdir(t.dir, 0o755); err != nil {
			return nil, err
		}
		fmt.Fprintf(p.log, "bench: %s: generating inputs (seed %d)\n", w.name, p.seed)
		if t.inputDigest, err = writeInputs(w, p.seed, t.dir); err != nil {
			return nil, fmt.Errorf("%s: generating inputs: %w", w.name, err)
		}
		ts[i] = t
	}
	// Generation is the benchmark's own work; hand its memory back before
	// any child is measured.
	debug.FreeOSMemory()

	for more := true; more; {
		more = false
		for _, t := range ts {
			if p.wantRep(t) {
				more = true
				p.child(t, modeTimed)
			}
		}
	}
	if p.trace != traceOnly {
		for _, t := range ts {
			for t.wantSetup() {
				if !p.child(t, modeSetup) {
					break
				}
			}
		}
	}
	if p.trace != traceOff {
		for _, t := range ts {
			p.child(t, modeTraced)
		}
	}
	rf := &resultFile{Host: readHost(), Seed: p.seed, Seconds: p.seconds}
	for _, t := range ts {
		rf.Workloads = append(rf.Workloads, t.result())
	}
	return rf, nil
}

// wantRep reports whether t gets another timed rep: until minReps have
// run, then while one more rep of the mean measured length still fits
// in the seconds budget.
func (p *plan) wantRep(t *tally) bool {
	if t.runs < p.minReps {
		return true
	}
	if p.seconds <= 0 || len(t.reps) == 0 || len(t.reps) < t.runs {
		return false
	}
	sum := 0.0
	for _, r := range t.reps {
		sum += r.RunS
	}
	return sum+sum/float64(len(t.reps)) <= p.seconds
}

func (t *tally) wantSetup() bool {
	sum := 0.0
	for _, s := range t.setups {
		sum += s
	}
	n := len(t.setups)
	return n < minSetups || (n < maxSetups && sum < setupBudget)
}

// child runs one child of t in mode and folds its result into t. It
// reports whether the child succeeded. A child that fails, or whose
// output check fails, counts every packet of its run as failed and
// contributes no samples.
func (p *plan) child(t *tally, mode string) bool {
	spec := childSpec{Workload: t.w.name, Mode: mode, Dir: t.dir, Workers: t.w.workers(), Scale: t.w.scale, Expect: t.w.expect}
	if mode == modeTimed {
		t.runs++
	}
	res, err := p.spawn(spec)
	if err == nil && res.CheckErr != "" {
		err = errors.New(res.CheckErr)
	}
	if err != nil {
		t.errs = append(t.errs, fmt.Sprintf("%s child: %v", mode, err))
		if mode != modeSetup {
			n := t.w.expectedPackets()
			t.attempted += n
			t.failed += n
		}
		return false
	}
	if mode != modeTraced {
		t.setups = append(t.setups, res.SetupS)
	}
	if mode == modeSetup {
		return true
	}
	t.attempted += res.Attempted
	t.failed += res.Failed
	t.digests[res.Digest] = true
	if mode == modeTraced {
		t.traced = res
	} else {
		t.reps = append(t.reps, res)
	}
	fmt.Fprintf(p.log, "bench: %s %s: setup %.3f s, run %.3f s, %.0f pkt/s\n",
		t.w.name, mode, res.SetupS, res.RunS, float64(res.Attempted)/res.RunS)
	return true
}

// expectedPackets is how many packets one run of w attempts.
func (w workload) expectedPackets() int {
	if w.name == paperRepro {
		return paperPackets(paperConfig(w.scale))
	}
	return w.packets
}

func (p *plan) spawn(spec childSpec) (*childResult, error) {
	in, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, p.exe)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdin = bytes.NewReader(in)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = p.log
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var res childResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("reading child result: %w", err)
	}
	return &res, nil
}

type resultFile struct {
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds,omitempty"`
	Workloads []workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name           string `json:"name"`
	Workers        int    `json:"workers"`
	Oversubscribed bool   `json:"oversubscribed"`
	Reps           int    `json:"reps"`
	// SeedIgnored marks paper-repro, whose inputs are the paper's fixed
	// traces.
	SeedIgnored  bool               `json:"seed_ignored,omitempty"`
	InputDigest  string             `json:"input_digest,omitempty"`
	OutputDigest string             `json:"output_digest,omitempty"`
	Packets      int                `json:"packets"`
	Correct      bool               `json:"correct"`
	Errors       []string           `json:"errors,omitempty"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	EndToEnd     map[string]dist    `json:"end_to_end"`
	PerLayer     map[string]float64 `json:"per_layer,omitempty"`
	Ledger       *ledger            `json:"ledger,omitempty"`
}

func (t *tally) result() workloadResult {
	r := workloadResult{
		Name:           t.w.name,
		Workers:        t.w.workers(),
		Oversubscribed: t.w.busy() > runtime.GOMAXPROCS(0),
		Reps:           len(t.reps),
		SeedIgnored:    t.w.name == paperRepro,
		InputDigest:    t.inputDigest,
		Packets:        t.w.expectedPackets(),
		Errors:         t.errs,
		Attempted:      t.attempted,
		Failed:         t.failed,
		EndToEnd:       map[string]dist{},
	}
	if len(t.digests) > 1 {
		r.Errors = append(r.Errors, fmt.Sprintf("output digest differs across reps: %d distinct", len(t.digests)))
	}
	for d := range t.digests {
		r.OutputDigest = d
	}
	r.Correct = len(r.Errors) == 0 && r.Attempted > 0

	var pps, rss, allocs, walls []float64
	for _, rep := range t.reps {
		pps = append(pps, float64(rep.Attempted)/rep.RunS)
		rss = append(rss, rep.PeakRSSMB)
		allocs = append(allocs, float64(rep.Mallocs)/float64(rep.Attempted))
		walls = append(walls, rep.SetupS+rep.RunS)
	}
	if len(t.reps) > 0 {
		r.EndToEnd["pkts_per_s"] = summarize(pps)
		r.EndToEnd["peak_rss_mb"] = summarize(rss)
		r.EndToEnd["allocs_per_pkt"] = summarize(allocs)
	}
	if len(t.setups) > 0 {
		r.EndToEnd["setup_s"] = summarize(t.setups)
	}
	if r.Attempted > 0 {
		r.EndToEnd["fail_frac"] = summarize([]float64{float64(r.Failed) / float64(r.Attempted)})
	}
	if t.traced != nil && t.traced.Layers != nil {
		r.PerLayer = t.traced.Layers
		r.Ledger = t.traced.Ledger
		if len(walls) > 0 {
			r.PerLayer["ledger.tracing_overhead_frac"] = (t.traced.SetupS+t.traced.RunS)/median(walls) - 1
			r.PerLayer["allocs_per_pkt"] = median(allocs)
		}
	}
	return r
}

// correct reports whether every workload passed every output check.
func (rf *resultFile) correct() bool {
	for _, w := range rf.Workloads {
		if !w.Correct {
			return false
		}
	}
	return len(rf.Workloads) > 0
}

func (rf *resultFile) write(w io.Writer) {
	h := rf.Host
	fmt.Fprintf(w, "host: %d CPUs, GOMAXPROCS %d, %s, %s %s; seed %d\n",
		h.NProc, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.OSArch, rf.Seed)
	for _, r := range rf.Workloads {
		status := "correct"
		if !r.Correct {
			status = "FAILED"
		}
		fmt.Fprintf(w, "\n%s: %s; %d timed reps, %d worker(s)", r.Name, status, r.Reps, r.Workers)
		if r.Oversubscribed {
			fmt.Fprint(w, ", oversubscribed")
		}
		fmt.Fprintf(w, "; %d packets per run\n", r.Packets)
		if r.SeedIgnored {
			fmt.Fprintln(w, "  inputs: the paper's fixed Table I traces; -seed is ignored")
		} else {
			fmt.Fprintf(w, "  inputs: sha256 %s\n", r.InputDigest)
		}
		fmt.Fprintf(w, "  output: sha256 %s\n", r.OutputDigest)
		for _, e := range r.Errors {
			fmt.Fprintf(w, "  error: %s\n", e)
		}
		fmt.Fprintf(w, "  %-16s %14s %14s %14s %14s %14s %3s  %s\n", "metric", "median", "q1", "q3", "min", "max", "n", "unit")
		for _, m := range append(append([]metricDef(nil), gatedEndToEnd...), reportedEndToEnd...) {
			d, ok := r.EndToEnd[m.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-16s %14.6g %14.6g %14.6g %14.6g %14.6g %3d  %s\n", m.name, d.Median, d.Q1, d.Q3, d.Min, d.Max, d.N, m.unit)
		}
		if r.Attempted > 0 {
			fmt.Fprintf(w, "  %d of %d attempted packets failed\n", r.Failed, r.Attempted)
		}
		if len(r.PerLayer) > 0 {
			fmt.Fprintln(w, "  per-layer (traced run):")
			names := make([]string, 0, len(r.PerLayer))
			for n := range r.PerLayer {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(w, "    %-34s %16.6g %s\n", n, r.PerLayer[n], unitOf(n))
			}
		}
		if r.Ledger != nil {
			r.Ledger.write(w)
		}
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lastLine is the one-line JSON summary printed last: the declared
// end-to-end metrics (trace 0), per-layer metrics (trace 1), or both.
// With several workloads each name is prefixed "<workload>/".
func (rf *resultFile) lastLine(traceMode int) map[string]any {
	metrics := map[string]metricValue{}
	attempted, failed := 0, 0
	for _, r := range rf.Workloads {
		attempted += r.Attempted
		failed += r.Failed
		name := func(m string) string {
			if len(rf.Workloads) > 1 {
				return r.Name + "/" + m
			}
			return m
		}
		put := func(m metricDef, v float64, ok bool) {
			if ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
				metrics[name(m.name)] = metricValue{Value: v, Unit: m.unit}
			}
		}
		if traceMode != traceOnly {
			for _, m := range gatedEndToEnd {
				d, ok := r.EndToEnd[m.name]
				put(m, d.Median, ok)
			}
		}
		if traceMode != traceOff {
			for _, m := range perLayer {
				v, ok := r.PerLayer[m.name]
				put(m, v, ok)
			}
		}
	}
	return map[string]any{"correct": rf.correct(), "attempted": attempted, "failed": failed, "metrics": metrics}
}
