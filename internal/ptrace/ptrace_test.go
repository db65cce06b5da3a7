package ptrace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// manualClock is a hand-advanced deterministic clock.
type manualClock struct{ now int64 }

func (c *manualClock) read() int64   { return c.now }
func (c *manualClock) tick(ns int64) { c.now += ns }

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Lane(0) != nil || tr.Producer() != nil || tr.Committer() != nil {
		t.Fatal("nil tracer handed out a non-nil lane")
	}
	if tr.Now() != 0 || tr.Workers() != 0 {
		t.Fatal("nil tracer accessors not inert")
	}
	var l *Lane
	l.BatchStart(0, 1, 0, 0)
	start := l.ExecBegin(0)
	l.ExecEnd(start, 0, 0, 0, 0, 0)
	l.Quarantine(0, 1)
	l.EndPacket(0, 0, 0, nil)
	l.Read(0, 1, 0, 0)
	l.Shed(0, 1)
	l.Checkpoint(0, 0, 0)
	if err := tr.WriteTrace(&bytes.Buffer{}, ExportOptions{}); err == nil {
		t.Fatal("WriteTrace on a nil tracer should error")
	}
	if err := tr.WriteFlight(&bytes.Buffer{}, FlightInfo{}); err == nil {
		t.Fatal("WriteFlight on a nil tracer should error")
	}
	sum := tr.Summary(3)
	if len(sum.Stages) != NumStages || len(sum.Tail) != 0 {
		t.Fatalf("nil tracer summary = %+v", sum)
	}
}

func TestLaneRange(t *testing.T) {
	tr := New(Config{Lanes: 2})
	if tr.Workers() != 2 {
		t.Fatalf("Workers = %d, want 2", tr.Workers())
	}
	if tr.Lane(0) == nil || tr.Lane(1) == nil {
		t.Fatal("worker lanes missing")
	}
	if tr.Lane(2) != nil || tr.Lane(-1) != nil {
		t.Fatal("out-of-range lane should be nil")
	}
	if tr.Producer() == nil || tr.Committer() == nil || tr.Producer() == tr.Committer() {
		t.Fatal("producer/committer lanes wrong")
	}
}

func TestEventEncodeRoundTrip(t *testing.T) {
	ev := Event{
		Stage: StageExec, Mark: true, Engine: 2, Fault: 5,
		Lane: 7, Index: 123456789, Start: 42, Dur: 999,
		Count: 64, Verdict: 0xdeadbeef, Instrs: 1 << 40,
	}
	got := decodeEvent(ev.encode())
	if got != ev {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, ev)
	}
}

func TestRingWrap(t *testing.T) {
	clk := &manualClock{}
	tr := New(Config{Lanes: 1, RingEvents: 4, Clock: clk.read})
	prod := tr.Producer()
	for i := int64(0); i < 10; i++ {
		prod.Read(i, 1, clk.now, 10)
		clk.tick(100)
	}
	evs := prod.ringEvents()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.Index != want {
			t.Fatalf("ring[%d].Index = %d, want %d (oldest-first)", i, ev.Index, want)
		}
	}
}

func TestHeadSampling(t *testing.T) {
	clk := &manualClock{}
	tr := New(Config{Lanes: 1, SampleEvery: 2, TailK: 1, Clock: clk.read})
	l := tr.Lane(0)
	for i := int64(0); i < 6; i++ {
		start := l.ExecBegin(i)
		clk.tick(50)
		l.ExecEnd(start, i, 0, 10, 1, 0)
		l.EndPacket(i, 1, 0, nil)
	}
	// journeys() may hold a packet twice (kept store + reservoir), so
	// count distinct sampled indices.
	sampled := map[int64]bool{}
	for _, j := range l.journeys() {
		if j.Sampled {
			if j.Index%2 != 0 {
				t.Fatalf("sampled journey at odd index %d", j.Index)
			}
			sampled[j.Index] = true
		}
	}
	if len(sampled) != 3 {
		t.Fatalf("sampled %d distinct journeys, want 3 (indexes 0,2,4)", len(sampled))
	}
}

func TestTailReservoirKeepsSlowest(t *testing.T) {
	clk := &manualClock{}
	tr := New(Config{Lanes: 1, TailK: 2, Clock: clk.read})
	l := tr.Lane(0)
	for i, lat := range []int64{10, 50, 30, 70, 20} {
		start := l.ExecBegin(int64(i))
		clk.tick(lat)
		l.ExecEnd(start, int64(i), 0, 1, 0, 0)
		l.EndPacket(int64(i), 0, 0, nil)
	}
	sum := tr.Summary(2)
	if len(sum.Tail) != 2 {
		t.Fatalf("tail holds %d journeys, want 2", len(sum.Tail))
	}
	if sum.Tail[0].Index != 3 || sum.Tail[1].Index != 1 {
		t.Fatalf("tail = packets %d,%d (latencies %d,%d); want 3,1",
			sum.Tail[0].Index, sum.Tail[1].Index, sum.Tail[0].Latency, sum.Tail[1].Latency)
	}
}

func TestTailThresholdForcesKeep(t *testing.T) {
	clk := &manualClock{}
	tr := New(Config{Lanes: 1, TailNS: 40, TailK: 1, Clock: clk.read})
	l := tr.Lane(0)
	for i, lat := range []int64{10, 60, 15} {
		start := l.ExecBegin(int64(i))
		clk.tick(lat)
		l.ExecEnd(start, int64(i), 0, 1, 0, 0)
		l.EndPacket(int64(i), 0, 0, nil)
	}
	var kept []int64
	l.mu.Lock()
	for i := range l.kept {
		kept = append(kept, l.kept[i].Index)
	}
	l.mu.Unlock()
	if len(kept) != 1 || kept[0] != 1 {
		t.Fatalf("threshold kept %v, want [1]", kept)
	}
}

func TestKeptCapCountsDrops(t *testing.T) {
	clk := &manualClock{}
	tr := New(Config{Lanes: 1, SampleEvery: 1, MaxKept: 2, TailK: 1, Clock: clk.read})
	l := tr.Lane(0)
	for i := int64(0); i < 5; i++ {
		start := l.ExecBegin(i)
		clk.tick(10)
		l.ExecEnd(start, i, 0, 1, 0, 0)
		l.EndPacket(i, 0, 0, nil)
	}
	if got := tr.Summary(1).Dropped; got != 3 {
		t.Fatalf("Dropped = %d, want 3", got)
	}
}

func TestStrideSampledBlocks(t *testing.T) {
	clk := &manualClock{}
	tr := New(Config{Lanes: 1, SampleEvery: 1, Clock: clk.read})
	l := tr.Lane(0)
	blocks := make([]int, 100)
	for i := range blocks {
		blocks[i] = i
	}
	start := l.ExecBegin(0)
	clk.tick(10)
	l.ExecEnd(start, 0, 0, 1, 0, 0)
	l.EndPacket(0, 0, 0, blocks)
	got := l.journeys()[0].Blocks()
	if len(got) != maxJourneyBlocks {
		t.Fatalf("kept %d blocks, want %d", len(got), maxJourneyBlocks)
	}
	if got[0] != 0 || got[len(got)-1] != 99 {
		t.Fatalf("stride sample %v should keep first and last block", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("stride sample %v not ascending", got)
		}
	}
}

func TestSummaryDedupPrefersSampled(t *testing.T) {
	clk := &manualClock{}
	// SampleEvery 1: every journey is head-sampled AND enters the
	// reservoir; the summary must count each packet once.
	tr := New(Config{Lanes: 1, SampleEvery: 1, TailK: 4, Clock: clk.read})
	l := tr.Lane(0)
	for i := int64(0); i < 3; i++ {
		start := l.ExecBegin(i)
		clk.tick(10 * (i + 1))
		l.ExecEnd(start, i, 0, 1, 0, 0)
		l.EndPacket(i, 0, 0, nil)
	}
	sum := tr.Summary(10)
	if len(sum.Tail) != 3 {
		t.Fatalf("tail = %d journeys, want 3 deduped", len(sum.Tail))
	}
	for _, j := range sum.Tail {
		if !j.Sampled {
			t.Fatalf("dedup should prefer the sampled copy of packet %d", j.Index)
		}
	}
}

func TestRingDumpDuringRecording(t *testing.T) {
	// The flight recorder reads rings while a cooperatively-unwedged
	// worker may still be writing; this must be race-detector clean.
	tr := New(Config{Lanes: 1, RingEvents: 8})
	l := tr.Lane(0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			start := l.ExecBegin(i)
			l.ExecEnd(start, i, 0, 1, 0, 0)
			l.EndPacket(i, 0, 0, nil)
		}
	}()
	for i := 0; i < 100; i++ {
		if err := tr.WriteFlight(&bytes.Buffer{}, FlightInfo{Cause: "test", Worker: 0, Index: -1}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// scenario drives a deterministic two-worker run through the tracer:
// worker 0 executes a sampled batch, worker 1 quarantines a faulted
// packet, the producer sheds a batch and the committer checkpoints.
func scenario() *Tracer {
	clk := &manualClock{}
	tr := New(Config{Lanes: 2, SampleEvery: 2, TailK: 2, RingEvents: 16, Clock: clk.read})
	prod := tr.Producer()

	clk.tick(100)
	prod.Read(0, 3, 100, 250)
	w0 := tr.Lane(0)
	clk.tick(400)
	w0.BatchStart(0, 3, 250, 150)
	for i := int64(0); i < 3; i++ {
		start := w0.ExecBegin(i)
		clk.tick(1000 * (i + 1))
		w0.ExecEnd(start, i, 1, uint64(200+10*i), uint32(40+i), 0)
		clk.tick(20)
		w0.EndPacket(i, uint32(40+i), 0, []int{0, 2, 5})
	}

	prod.Read(3, 1, 600, 80)
	w1 := tr.Lane(1)
	clk.tick(100)
	w1.BatchStart(3, 1, 80, 60)
	start := w1.ExecBegin(3)
	clk.tick(700)
	w1.ExecEnd(start, 3, 1, 0, 0, 3)
	clk.tick(850)
	w1.Quarantine(3, 3)
	w1.EndPacket(3, 0, 3, nil)

	prod.Shed(4, 2)
	clk.tick(200)
	tr.Committer().Checkpoint(4, clk.now, 90)
	return tr
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/ptrace -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden file %s (rerun with -update if intended)\n got:\n%s\nwant:\n%s",
			name, path, got, want)
	}
}

func TestWriteTraceGolden(t *testing.T) {
	tr := scenario()
	var buf bytes.Buffer
	err := tr.WriteTrace(&buf, ExportOptions{
		App: "IPv4-radix", Trace: "MRA",
		Exemplars: []Exemplar{{BucketLE: 4096, ValueNS: 3020, Span: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace", buf.Bytes())
}

func TestWriteFlightGolden(t *testing.T) {
	tr := scenario()
	// Wedge worker 0 mid-packet: the open span's in-flight marker must
	// be the lane's final ring event.
	tr.Lane(0).ExecBegin(7)
	var buf bytes.Buffer
	err := tr.WriteFlight(&buf, FlightInfo{
		Cause: "core: worker 0 stalled for 200ms on packet 7", Worker: 0, Index: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "flight", buf.Bytes())
}

func TestFlightDigestFindsWedgedWorker(t *testing.T) {
	tr := scenario()
	tr.Lane(0).ExecBegin(9)
	evs := tr.lanes[0].ringEvents()
	last := evs[len(evs)-1]
	if !last.Mark || last.Stage != StageExec || last.Index != 9 {
		t.Fatalf("last ring event = %+v, want in-flight exec marker for packet 9", last)
	}
}
