package report

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/ptrace"
	"repro/internal/vm"
)

// StageRow is one pipeline stage's aggregate latency over a traced run.
type StageRow struct {
	Stage  ptrace.Stage
	Count  uint64
	MeanNS float64
	MaxNS  uint64
	// Share is the stage's fraction of all recorded stage time.
	Share float64
}

// TailJourney is one of the slowest packets of a traced run with its
// journey broken down by stage and attributed to the guest functions
// whose blocks it executed.
type TailJourney struct {
	Index     int64
	LatencyNS int64
	Instrs    uint64
	Verdict   uint32
	// Fault names the quarantining fault, "" for measured packets.
	Fault string
	// StageNS sums the journey's time per stage.
	StageNS [ptrace.NumStages]int64
	// Funcs are the guest functions owning the journey's executed
	// blocks, in first-execution order.
	Funcs []string
}

// SpanReport is the pbreport -spans view: where packets spend their
// time, stage by stage, and which guest code the slowest ones ran.
type SpanReport struct {
	App     string
	Trace   string
	Packets int
	Stages  []StageRow
	Tail    []TailJourney
	Sampled int
	Dropped uint64
}

// Spans runs appName single-core over the first n packets of the named
// trace with the packet-journey tracer armed and returns the stage
// breakdown plus the k slowest journeys, attributed to guest functions
// via the run's instruction profile. A non-nil clock makes the
// measurement deterministic for golden tests.
func (e *Env) Spans(appName, traceName string, n, k int, clock func() int64) (*SpanReport, error) {
	pkts, err := e.packets(traceName, n)
	if err != nil {
		return nil, err
	}
	app := e.app(appName)
	tr := ptrace.New(ptrace.Config{
		Lanes:       1,
		SampleEvery: 64,
		TailK:       k,
		Clock:       clock,
	})
	b, err := core.New(app, core.Options{Trace: tr})
	if err != nil {
		return nil, err
	}
	b.Collector().CountPCs = true
	if _, err := b.RunPackets(pkts, nil); err != nil {
		return nil, err
	}
	var entries []string
	if app.Entry != "" {
		entries = []string{app.Entry}
	}
	p, err := profile.Build(b.Program(), b.Collector().PCCounts,
		profile.Options{Entries: entries, AppName: appName})
	if err != nil {
		return nil, err
	}
	// Block id -> owning function, for tail attribution.
	owner := make(map[int32]string)
	for _, f := range p.Funcs {
		for _, blk := range f.Blocks {
			owner[int32(blk)] = f.Name
		}
	}

	sum := tr.Summary(k)
	r := &SpanReport{
		App: appName, Trace: traceName, Packets: n,
		Sampled: sum.Sampled, Dropped: sum.Dropped,
	}
	var totalNS uint64
	for _, st := range sum.Stages {
		totalNS += st.SumNS
	}
	for _, st := range sum.Stages {
		if st.Count == 0 {
			continue
		}
		row := StageRow{Stage: st.Stage, Count: st.Count, MeanNS: st.MeanNS(), MaxNS: st.MaxNS}
		if totalNS > 0 {
			row.Share = float64(st.SumNS) / float64(totalNS)
		}
		r.Stages = append(r.Stages, row)
	}
	for i := range sum.Tail {
		j := &sum.Tail[i]
		tj := TailJourney{
			Index: j.Index, LatencyNS: j.Latency,
			Instrs: j.Instrs, Verdict: j.Verdict,
		}
		if j.Fault > 0 {
			tj.Fault = vm.FaultKind(j.Fault - 1).String()
		}
		for _, ev := range j.Events() {
			if !ev.Mark {
				tj.StageNS[ev.Stage] += ev.Dur
			}
		}
		seen := make(map[string]bool)
		for _, blk := range j.Blocks() {
			name, ok := owner[blk]
			if !ok {
				name = fmt.Sprintf("block_%d", blk)
			}
			if !seen[name] {
				seen[name] = true
				tj.Funcs = append(tj.Funcs, name)
			}
		}
		r.Tail = append(r.Tail, tj)
	}
	return r, nil
}

// FormatSpans renders one application's span report: the per-stage
// latency table followed by the slowest journeys with their stage
// split and guest-function attribution.
func FormatSpans(r *SpanReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Packet journeys: %s on %s (first %d packets, %d sampled",
		r.App, r.Trace, r.Packets, r.Sampled)
	if r.Dropped > 0 {
		fmt.Fprintf(&b, ", %d dropped", r.Dropped)
	}
	b.WriteString(")\n")
	fmt.Fprintf(&b, "  %-12s %10s %12s %12s %7s\n", "stage", "count", "mean", "max", "share")
	for _, st := range r.Stages {
		fmt.Fprintf(&b, "  %-12s %10d %12s %12s %6.1f%%\n",
			st.Stage, st.Count, fmtNS(st.MeanNS), fmtNS(float64(st.MaxNS)), 100*st.Share)
	}
	if len(r.Tail) > 0 {
		fmt.Fprintf(&b, "  slowest journeys:\n")
	}
	for i := range r.Tail {
		tj := &r.Tail[i]
		fmt.Fprintf(&b, "  %3d. packet %-8d %10s %8d instrs", i+1, tj.Index,
			fmtNS(float64(tj.LatencyNS)), tj.Instrs)
		if tj.Fault != "" {
			fmt.Fprintf(&b, "  fault=%s", tj.Fault)
		}
		b.WriteString("\n")
		var parts []string
		for st := 0; st < ptrace.NumStages; st++ {
			if d := tj.StageNS[st]; d > 0 {
				parts = append(parts, fmt.Sprintf("%s %s", ptrace.Stage(st), fmtNS(float64(d))))
			}
		}
		if len(parts) > 0 {
			fmt.Fprintf(&b, "       stages: %s\n", strings.Join(parts, ", "))
		}
		if len(tj.Funcs) > 0 {
			fmt.Fprintf(&b, "       funcs:  %s\n", strings.Join(tj.Funcs, " -> "))
		}
	}
	return b.String()
}

// fmtNS renders a nanosecond duration with a human unit.
func fmtNS(ns float64) string {
	switch {
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
