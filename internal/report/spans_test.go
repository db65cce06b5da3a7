package report

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/ptrace"
)

// spanPackets is how many MRA packets the span tests trace.
const spanPackets = 200

// spansEnv is testConfig's environment holding spanPackets of MRA: an
// Env keeps TablePackets (150) of it. Raising TablePackets to 200 leaves
// the longest count, and so the routing tables and every packet, as
// they are.
var spansEnv = sync.OnceValue(func() *Env {
	cfg := testConfig
	cfg.TablePackets = spanPackets
	return NewEnv(cfg)
})

// spanClock is a deterministic clock for golden-stable span reports:
// every read advances time by a fixed step, so latencies depend only
// on how many timestamps a run takes, which the seeded environment
// makes reproducible.
func spanClock() func() int64 {
	var now int64
	return func() int64 {
		now += 1000
		return now
	}
}

func TestSpansDeterministic(t *testing.T) {
	a, err := spansEnv().Spans("IPv4-radix", "MRA", spanPackets, 3, spanClock())
	if err != nil {
		t.Fatal(err)
	}
	b, err := spansEnv().Spans("IPv4-radix", "MRA", spanPackets, 3, spanClock())
	if err != nil {
		t.Fatal(err)
	}
	if FormatSpans(a) != FormatSpans(b) {
		t.Fatal("span report not deterministic under an injected clock")
	}
}

func TestSpansStageBreakdown(t *testing.T) {
	r, err := spansEnv().Spans("IPv4-radix", "MRA", spanPackets, 3, spanClock())
	if err != nil {
		t.Fatal(err)
	}
	var exec *StageRow
	for i := range r.Stages {
		if r.Stages[i].Stage == ptrace.StageExec {
			exec = &r.Stages[i]
		}
	}
	if exec == nil || exec.Count != spanPackets {
		t.Fatalf("exec stage = %+v, want one span per packet (%d)", exec, spanPackets)
	}
	if len(r.Tail) != 3 {
		t.Fatalf("tail = %d journeys, want 3", len(r.Tail))
	}
	for _, tj := range r.Tail {
		if len(tj.Funcs) == 0 {
			t.Fatalf("packet %d has no function attribution", tj.Index)
		}
		if tj.StageNS[ptrace.StageExec] == 0 {
			t.Fatalf("packet %d has no exec time", tj.Index)
		}
	}
}

func TestGoldenSpans(t *testing.T) {
	for _, tc := range []struct {
		name string
		app  string
	}{
		{"spans_radix", "IPv4-radix"},
		{"spans_tsa", "TSA"},
	} {
		r, err := spansEnv().Spans(tc.app, "MRA", spanPackets, 3, spanClock())
		if err != nil {
			t.Fatal(err)
		}
		text := FormatSpans(r)
		if !strings.Contains(text, "slowest journeys") {
			t.Fatalf("report missing tail section:\n%s", text)
		}
		checkGolden(t, tc.name, text)
	}
}
