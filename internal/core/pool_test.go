package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/trace"
)

// explodeSrc spins forever when the packet's first byte is 0xFF (hitting
// the step limit) and returns immediately otherwise — the
// step-limit-exploding app the cancellation tests key off.
const explodeSrc = `
	.text
	.global e
e:
	lbu t0, 0(a0)
	li  t1, 0xFF
	bne t0, t1, done
spin:
	j   spin
done:
	mv  a0, a1
	ret
`

func explodeApp() *App {
	return &App{Name: "explode", Source: explodeSrc, Entry: "e"}
}

// TestPoolRunPacketsOnResult pins RunPackets' delivery contract under
// every shed policy: one in-order callback and one record per packet,
// and never a shed marker. Packet-granular batches flood the job queue,
// so a run that honoured Options.Shed would drop packets here.
func TestPoolRunPacketsOnResult(t *testing.T) {
	const n = 5000
	pkts := make([]*trace.Packet, n)
	for i := range pkts {
		pkts[i] = ipPacket(20 + i%40)
	}
	for _, shed := range []ShedPolicy{ShedBlock, ShedDropNewest, ShedDropOldest} {
		t.Run(shed.String(), func(t *testing.T) {
			pool, err := NewPool(echoApp(0), 2, Options{Shed: shed})
			if err != nil {
				t.Fatal(err)
			}
			pool.SetBatchSize(1)
			var order []int
			var verdicts []uint32
			recs, err := pool.RunPackets(pkts, func(i int, r Result) {
				if r.Shed {
					t.Fatalf("packet %d shed by RunPackets", i)
				}
				order = append(order, i)
				verdicts = append(verdicts, r.Verdict)
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != n || len(order) != n {
				t.Fatalf("records %d, callbacks %d, want %d", len(recs), len(order), n)
			}
			for i := range order {
				if order[i] != i || recs[i].Index != i {
					t.Fatalf("position %d: onResult index %d, record index %d", i, order[i], recs[i].Index)
				}
				if verdicts[i] != uint32(20+i%40) {
					t.Fatalf("verdict %d = %d, want %d", i, verdicts[i], 20+i%40)
				}
			}
		})
	}
}

// TestPoolRunPacketsCallbackSeesFault: a packet quarantined under
// SkipAndRecord reaches onResult as the full Result, Fault included,
// matching the returned record.
func TestPoolRunPacketsCallbackSeesFault(t *testing.T) {
	pool, err := NewPool(explodeApp(), 2, Options{StepLimit: 500, Errors: ErrorPolicy{Policy: SkipAndRecord}})
	if err != nil {
		t.Fatal(err)
	}
	pkts := []*trace.Packet{ipPacket(20), ipPacket(20), ipPacket(20), ipPacket(20)}
	pkts[2].Data[0] = 0xFF
	faulted := make([]bool, len(pkts))
	recs, err := pool.RunPackets(pkts, func(i int, r Result) {
		faulted[i] = r.Faulted()
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if faulted[i] != r.Faulted() || faulted[i] != (i == 2) {
			t.Errorf("packet %d: callback Faulted()=%v record.Faulted()=%v, want %v", i, faulted[i], r.Faulted(), i == 2)
		}
	}
}

func TestPoolErrorCancelsSingleCore(t *testing.T) {
	// With one core the scheduler is deterministic: the first packet
	// explodes, and no later packet may be processed after the error.
	pool, err := NewPool(explodeApp(), 1, Options{StepLimit: 500})
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]*trace.Packet, 100)
	for i := range pkts {
		pkts[i] = ipPacket(20)
	}
	pkts[0].Data[0] = 0xFF
	_, err = pool.RunPackets(pkts, nil)
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("err = %v, want step limit fault", err)
	}
	// The faulting packet does not count as processed; nothing after it ran.
	if got := pool.Bench(0).Processed(); got != 0 {
		t.Errorf("core processed %d packets after the fault, want 0", got)
	}
}

func TestPoolErrorCancelsOtherCores(t *testing.T) {
	// Multi-core: one exploding packet must stop the other workers via
	// the shared flag well before they chew through the whole trace.
	const total = 50_000
	pool, err := NewPool(explodeApp(), 2, Options{StepLimit: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]*trace.Packet, total)
	for i := range pkts {
		pkts[i] = ipPacket(20)
	}
	pkts[0].Data[0] = 0xFF
	if _, err := pool.RunPackets(pkts, nil); err == nil {
		t.Fatal("pool swallowed the fault")
	}
	sum := 0
	for i := 0; i < pool.Cores(); i++ {
		sum += pool.Bench(i).Processed()
	}
	if sum >= total {
		t.Errorf("cancellation ineffective: %d of %d packets processed", sum, total)
	}
}

func TestPoolRunPacketsRecordsStopAtError(t *testing.T) {
	// Regression for the seed's behavior: a mid-run core fault must
	// surface as an error (never as silently missing records).
	pool, err := NewPool(explodeApp(), 2, Options{StepLimit: 500})
	if err != nil {
		t.Fatal(err)
	}
	pkts := []*trace.Packet{ipPacket(20), ipPacket(20), ipPacket(20), ipPacket(20)}
	pkts[2].Data[0] = 0xFF
	recs, err := pool.RunPackets(pkts, nil)
	if err == nil {
		t.Fatal("mid-run fault not propagated")
	}
	if recs != nil {
		t.Errorf("got %d records alongside the error", len(recs))
	}
}

func TestPoolRunTraceStreams(t *testing.T) {
	pkts := make([]*trace.Packet, 53)
	for i := range pkts {
		pkts[i] = ipPacket(20 + i%40)
	}
	single, err := New(echoApp(3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.RunPackets(pkts, nil)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(echoApp(3), 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []Result
	processed, err := pool.RunTrace(trace.NewSliceReader(pkts), 0, func(i int, r Result) {
		if i != len(got) {
			t.Fatalf("out-of-order delivery: got index %d at position %d", i, len(got))
		}
		got = append(got, r)
	})
	if err != nil {
		t.Fatal(err)
	}
	if processed != len(pkts) || len(got) != len(pkts) {
		t.Fatalf("processed %d, delivered %d, want %d", processed, len(got), len(pkts))
	}
	for i := range want {
		g := got[i].Record
		if g.Index != i {
			t.Errorf("record %d has index %d", i, g.Index)
		}
		if g.Instructions != want[i].Instructions || g.Unique != want[i].Unique ||
			g.PacketAccesses() != want[i].PacketAccesses() ||
			g.NonPacketAccesses() != want[i].NonPacketAccesses() {
			t.Errorf("record %d differs: stream %+v, single %+v", i, g, want[i])
		}
	}
}

func TestPoolRunTraceLimit(t *testing.T) {
	pkts := make([]*trace.Packet, 30)
	for i := range pkts {
		pkts[i] = ipPacket(20)
	}
	pool, err := NewPool(echoApp(0), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	processed, err := pool.RunTrace(trace.NewSliceReader(pkts), 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if processed != 7 {
		t.Errorf("processed %d, want 7", processed)
	}
}

func TestPoolRunTraceFromPcap(t *testing.T) {
	var buf bytes.Buffer
	w, err := trace.NewPcapWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if err := w.WritePacket(ipPacket(20 + i)); err != nil {
			t.Fatal(err)
		}
	}
	r, err := trace.NewPcapReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(echoApp(0), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	processed, err := pool.RunTrace(r, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if processed != 16 {
		t.Errorf("processed %d packets from pcap, want 16", processed)
	}
}

// errorReader yields n packets and then a non-EOF error.
type errorReader struct {
	n   int
	err error
}

func (e *errorReader) Next() (*trace.Packet, error) {
	if e.n == 0 {
		return nil, e.err
	}
	e.n--
	return ipPacket(20), nil
}

func TestPoolRunTraceReaderError(t *testing.T) {
	boom := fmt.Errorf("truncated capture")
	pool, err := NewPool(echoApp(0), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	processed, err := pool.RunTrace(&errorReader{n: 9, err: boom}, 0, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the reader error", err)
	}
	if processed != 9 {
		t.Errorf("processed %d packets before the reader error, want 9", processed)
	}
}

func TestPoolRunTraceFault(t *testing.T) {
	pkts := make([]*trace.Packet, 64)
	for i := range pkts {
		pkts[i] = ipPacket(20)
	}
	pkts[5].Data[0] = 0xFF
	pool, err := NewPool(explodeApp(), 2, Options{StepLimit: 500})
	if err != nil {
		t.Fatal(err)
	}
	var delivered []int
	_, err = pool.RunTrace(trace.NewSliceReader(pkts), 0, func(i int, r Result) {
		delivered = append(delivered, i)
	})
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Fatalf("err = %v, want step limit fault", err)
	}
	// In-order delivery means only the contiguous prefix before the
	// faulting packet can have been observed.
	for pos, i := range delivered {
		if i != pos || i >= 5 {
			t.Fatalf("delivered index %d at position %d despite fault at 5", i, pos)
		}
	}
}

func TestPoolExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pkts := make([]*trace.Packet, 1000)
	for i := range pkts {
		pkts[i] = ipPacket(20)
	}
	pool, err := NewPool(echoApp(0), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.RunPacketsContext(ctx, pkts, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("RunPacketsContext err = %v, want context.Canceled", err)
	}
	if _, err := pool.RunTraceContext(ctx, trace.NewSliceReader(pkts), 0, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("RunTraceContext err = %v, want context.Canceled", err)
	}
}
