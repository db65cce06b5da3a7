package ptrace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// StageStat is one stage's aggregate over everything the tracer
// recorded (all packets, not just kept journeys).
type StageStat struct {
	Stage Stage
	Count uint64
	SumNS uint64
	MaxNS uint64
}

// MeanNS returns the stage's mean duration in nanoseconds.
func (s StageStat) MeanNS() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNS) / float64(s.Count)
}

// Summary aggregates a run's journey data for reporting.
type Summary struct {
	// Stages holds one entry per Stage, in stage order, covering every
	// recorded event.
	Stages []StageStat
	// Tail holds the slowest captured journeys across all lanes,
	// slowest first, at most K entries.
	Tail []Journey
	// Sampled counts head-sampled journeys retained.
	Sampled int
	// Dropped counts journeys lost to the per-lane kept cap.
	Dropped uint64
}

// Summary merges every lane's accumulators and reservoirs. k bounds
// the tail list (<= 0 means 10).
func (t *Tracer) Summary(k int) Summary {
	if k <= 0 {
		k = 10
	}
	var s Summary
	s.Stages = make([]StageStat, numStages)
	if t == nil {
		return s
	}
	for st := Stage(0); st < numStages; st++ {
		s.Stages[st].Stage = st
	}
	var tail []Journey
	for _, l := range t.lanes {
		for st := Stage(0); st < numStages; st++ {
			s.Stages[st].Count += l.stageCount[st].Load()
			s.Stages[st].SumNS += l.stageSum[st].Load()
			if m := l.stageMax[st].Load(); m > s.Stages[st].MaxNS {
				s.Stages[st].MaxNS = m
			}
		}
		s.Dropped += l.keptDropped.Load()
		for _, j := range l.journeys() {
			if j.Sampled {
				s.Sampled++
			}
			tail = append(tail, j)
		}
	}
	tail = dedupJourneys(tail)
	sort.Slice(tail, func(i, j int) bool {
		if tail[i].Latency != tail[j].Latency {
			return tail[i].Latency > tail[j].Latency
		}
		return tail[i].Index < tail[j].Index
	})
	if len(tail) > k {
		tail = tail[:k]
	}
	s.Tail = tail
	return s
}

// dedupJourneys drops duplicate captures of the same packet (a journey
// can be both head-sampled and reservoir-kept), preferring the sampled
// copy.
func dedupJourneys(js []Journey) []Journey {
	seen := make(map[int64]int, len(js))
	out := js[:0]
	for _, j := range js {
		if at, ok := seen[j.Index]; ok {
			if j.Sampled && !out[at].Sampled {
				out[at] = j
			}
			continue
		}
		seen[j.Index] = len(out)
		out = append(out, j)
	}
	return out
}

// chromeEvent is one entry of the Chrome trace-event JSON format
// (Perfetto and chrome://tracing both load it). Field order is fixed
// by the struct, so output is byte-deterministic.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// Exemplar links one packet_latency_ns histogram bucket to a span id
// (the packet's trace index), so a histogram tail bucket can be chased
// to the concrete journey behind it.
type Exemplar struct {
	// BucketLE is the bucket's inclusive upper bound in nanoseconds
	// (0 = the overflow bucket).
	BucketLE uint64 `json:"bucket_le_ns"`
	// ValueNS is the observed latency.
	ValueNS uint64 `json:"value_ns"`
	// Span is the packet index whose journey produced the observation.
	Span uint64 `json:"span"`
}

// ExportOptions decorates a WriteTrace dump.
type ExportOptions struct {
	// App and Trace label the run in the trace metadata.
	App   string
	Trace string
	// Exemplars are the histogram-to-span links captured by telemetry.
	Exemplars []Exemplar
}

func laneName(t *Tracer, lane int32) string {
	switch {
	case int(lane) == len(t.lanes)-2:
		return "producer"
	case int(lane) == len(t.lanes)-1:
		return "checkpoint"
	default:
		return fmt.Sprintf("worker %d", lane)
	}
}

func metaEvents(t *Tracer, process string) []chromeEvent {
	evs := []chromeEvent{{
		Name: "process_name", Ph: "M", Pid: 1, Tid: 0,
		Args: map[string]any{"name": process},
	}}
	for i := range t.lanes {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: i,
			Args: map[string]any{"name": laneName(t, int32(i))},
		})
	}
	return evs
}

func eventArgs(ev Event) map[string]any {
	args := map[string]any{"index": ev.Index}
	if ev.Stage == StageExec {
		args["engine"] = ev.Engine
		if ev.Fault > 0 {
			args["fault"] = ev.Fault - 1
		} else {
			args["instrs"] = ev.Instrs
			args["verdict"] = ev.Verdict
		}
	}
	if ev.Count > 0 {
		args["batch"] = ev.Count
	}
	return args
}

func spanEvent(ev Event, tid int) chromeEvent {
	name := ev.Stage.String()
	ph := "X"
	if ev.Mark {
		name = ev.Stage.String() + " (in flight)"
		ph = "i"
	} else if ev.Dur == 0 {
		ph = "i"
	}
	return chromeEvent{
		Name: name, Ph: ph,
		Ts: float64(ev.Start) / 1e3, Dur: float64(ev.Dur) / 1e3,
		Pid: 1, Tid: tid, Args: eventArgs(ev),
	}
}

// WriteTrace writes the kept journeys (head samples plus tail
// reservoir) as Chrome trace-event JSON: one enclosing span per packet
// journey with its stage spans nested inside, one timeline row per
// lane. Load the file in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
func (t *Tracer) WriteTrace(w io.Writer, opts ExportOptions) error {
	if t == nil {
		return fmt.Errorf("ptrace: no tracer armed")
	}
	out := chromeTrace{DisplayTimeUnit: "ns", TraceEvents: metaEvents(t, "packetbench")}
	var all []Journey
	for _, l := range t.lanes {
		all = append(all, l.journeys()...)
	}
	all = dedupJourneys(all)
	sort.Slice(all, func(i, j int) bool { return all[i].Index < all[j].Index })
	for i := range all {
		j := &all[i]
		kind := "tail"
		if j.Sampled {
			kind = "sampled"
		}
		args := map[string]any{
			"index": j.Index, "latency_ns": j.Latency, "instrs": j.Instrs,
			"verdict": j.Verdict, "kind": kind,
		}
		if j.Fault > 0 {
			args["fault"] = j.Fault - 1
		}
		if bl := j.Blocks(); len(bl) > 0 {
			args["blocks"] = bl
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: fmt.Sprintf("packet %d", j.Index), Ph: "X",
			Ts: float64(j.Start) / 1e3, Dur: float64(j.Latency) / 1e3,
			Pid: 1, Tid: int(j.Lane), Args: args,
		})
		for _, ev := range j.Events() {
			out.TraceEvents = append(out.TraceEvents, spanEvent(ev, int(j.Lane)))
		}
	}
	out.OtherData = map[string]any{"tool": "packetbench -trace-out"}
	if opts.App != "" {
		out.OtherData["app"] = opts.App
	}
	if opts.Trace != "" {
		out.OtherData["trace"] = opts.Trace
	}
	if len(opts.Exemplars) > 0 {
		out.OtherData["exemplars"] = opts.Exemplars
	}
	return writeJSON(w, &out)
}

// FlightInfo labels a post-mortem dump with what killed the run.
type FlightInfo struct {
	// Cause is the run error's message.
	Cause string
	// Worker and Index name the wedged/failing worker and packet when
	// known (a StallError carries both); -1 otherwise.
	Worker int
	Index  int64
}

// laneLast summarizes a lane's final ring event for the dump header —
// the one-line answer to "what was this worker doing when the run
// died".
type laneLast struct {
	Lane      int    `json:"lane"`
	Name      string `json:"name"`
	Events    uint64 `json:"events"`
	LastStage string `json:"last_stage,omitempty"`
	LastIndex int64  `json:"last_index"`
	InFlight  bool   `json:"in_flight"`
}

// WriteFlight dumps the flight recorder: every lane's ring (the last
// RingEvents stage events per lane, oldest first) as Chrome trace-event
// JSON, with the failure cause and a per-lane last-event digest in
// otherData. The failing packet's journey is reconstructable from its
// worker's final ring events — a wedged worker's ring ends in the
// in-flight exec marker carrying the packet index.
func (t *Tracer) WriteFlight(w io.Writer, info FlightInfo) error {
	if t == nil {
		return fmt.Errorf("ptrace: no tracer armed")
	}
	out := chromeTrace{DisplayTimeUnit: "ns", TraceEvents: metaEvents(t, "packetbench flight recorder")}
	digests := make([]laneLast, 0, len(t.lanes))
	for i, l := range t.lanes {
		evs := l.ringEvents()
		d := laneLast{Lane: i, Name: laneName(t, int32(i)), Events: l.head.Load(), LastIndex: -1}
		if len(evs) > 0 {
			last := evs[len(evs)-1]
			d.LastStage, d.LastIndex, d.InFlight = last.Stage.String(), last.Index, last.Mark
		}
		digests = append(digests, d)
		for _, ev := range evs {
			out.TraceEvents = append(out.TraceEvents, spanEvent(ev, i))
		}
	}
	out.OtherData = map[string]any{
		"cause":       info.Cause,
		"fail_worker": info.Worker,
		"fail_index":  info.Index,
		"lanes":       digests,
	}
	return writeJSON(w, &out)
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(v)
}
