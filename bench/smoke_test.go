package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"repro/internal/report"
)

// TestMain lets the test binary serve as the benchmark's child process,
// so the smoke tests exercise the real parent/child protocol.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

const tinyScale = 0.001

// tinyPaperDigest is paper-repro's output sha256 at tinyScale, computed
// in process.
func tinyPaperDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	if _, err := reproduce(report.NewEnv(paperConfig(tinyScale)), h); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func testPlan(t *testing.T, ws []workload, minReps, traceMode int) (*resultFile, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	p := &plan{workloads: ws, seed: 1, minReps: minReps, trace: traceMode, workDir: t.TempDir(), exe: exe, log: &log}
	rf, err := p.execute()
	if err != nil {
		t.Fatalf("execute: %v\n%s", err, log.String())
	}
	return rf, log.String()
}

func TestSmokeAllWorkloads(t *testing.T) {
	ws := []workload{
		{name: radixMRA, packets: 10_000},
		{name: tsaMinStream, packets: 10_000},
		{name: paperRepro, scale: tinyScale, expect: tinyPaperDigest(t)},
	}
	rf, log := testPlan(t, ws, 2, traceBoth)
	if !rf.correct() {
		var out bytes.Buffer
		rf.write(&out)
		t.Fatalf("smoke run not correct:\n%s\n%s", out.String(), log)
	}
	for _, r := range rf.Workloads {
		if r.Failed != 0 || r.Attempted < 2*r.Packets || r.Reps != 2 {
			t.Errorf("%s: %d of %d packets failed over %d reps", r.Name, r.Failed, r.Attempted, r.Reps)
		}
		if d := r.EndToEnd["setup_s"]; d.N < minSetups {
			t.Errorf("%s: setup_s over %d samples, want at least %d", r.Name, d.N, minSetups)
		}
		for _, m := range append(append([]metricDef(nil), gatedEndToEnd...), reportedEndToEnd...) {
			if _, ok := r.EndToEnd[m.name]; !ok {
				t.Errorf("%s: end-to-end metric %s missing", r.Name, m.name)
			}
		}
		samples := int(r.PerLayer["core.process_samples"])
		for _, m := range perLayer {
			_, ok := r.PerLayer[m.name]
			want := m.name != "core.process_ns_p999" || percentileReportable(samples, 99.9)
			if ok != want {
				t.Errorf("%s: per-layer metric %s present = %v, want %v (%d samples)", r.Name, m.name, ok, want, samples)
			}
		}
		if r.Ledger == nil || r.Ledger.Rows[len(r.Ledger.Rows)-1].Layer != "unattributed" {
			t.Errorf("%s: no ledger", r.Name)
		}
	}
	var out bytes.Buffer
	rf.write(&out)
	for _, want := range []string{"pkts_per_s", "pkt/s", "peak_rss_mb", "MiB", "unattributed", "-seed is ignored"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, out.String())
		}
	}
	line := rf.lastLine(traceOff)
	ms := line["metrics"].(map[string]metricValue)
	if len(ms) != len(ws)*len(gatedEndToEnd) || line["correct"] != true || line["failed"] != 0 {
		t.Errorf("trace 0 summary line = %v", line)
	}
	if v, ok := ms[radixMRA+"/pkts_per_s"]; !ok || v.Unit != "pkt/s" || v.Value <= 0 {
		t.Errorf("radix-mra/pkts_per_s = %+v", v)
	}
}

func TestSmokeCorruptedDigestFails(t *testing.T) {
	bad := []byte(tinyPaperDigest(t))
	bad[0] ^= 1
	rf, _ := testPlan(t, []workload{{name: paperRepro, scale: tinyScale, expect: string(bad)}}, 1, traceOff)
	r := rf.Workloads[0]
	if rf.correct() || r.Correct {
		t.Fatal("a paper-repro run against a corrupted expected digest passed")
	}
	if r.Attempted == 0 || r.Failed != r.Attempted {
		t.Errorf("failed %d of %d: every packet of a rep whose output check fails must count as failed", r.Failed, r.Attempted)
	}
	if line := rf.lastLine(traceOff); line["correct"] != false {
		t.Errorf("summary line reports correct: %v", line)
	}
}
