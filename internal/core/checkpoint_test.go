package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

// ckptPackets builds n streaming-friendly packets: distinct sizes and
// loop counts like derefPackets, plus strictly increasing timestamps so
// sharded merges replay them in index order, and a sprinkling of faulty
// packets (byte 1 nonzero => FaultUnmapped) so resume points can land
// mid-quarantine.
func ckptPackets(n int, faulty ...int) []*trace.Packet {
	pkts := derefPackets(n)
	for i, p := range pkts {
		p.Sec = uint32(i)
		p.WireLen = len(p.Data)
	}
	for _, i := range faulty {
		pkts[i].Data[1] = 1
	}
	return pkts
}

// writeCkptPcap writes packets to a pcap file in dir.
func writeCkptPcap(t *testing.T, dir, name string, pkts []*trace.Packet) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewPcapWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// streamRun runs a fresh 2-core pool over reader, feeding agg the way
// cmd/packetbench's pool callback does, with a small batch size so
// checkpoint boundaries land frequently.
func streamRun(t *testing.T, reader trace.Reader, limit int, ck *Checkpointer, agg *stats.Running) error {
	t.Helper()
	pool, err := NewPool(derefApp(), 2, Options{Errors: ErrorPolicy{Policy: SkipAndRecord}})
	if err != nil {
		t.Fatal(err)
	}
	pool.SetBatchSize(3)
	_, err = pool.RunTraceCheckpointed(context.Background(), reader, limit, func(i int, res Result) {
		if res.Shed {
			agg.AddShed(1)
			return
		}
		agg.Add(&res.Record)
	}, ck)
	return err
}

// resumeEquivalence is the tentpole acceptance check: a run interrupted
// at packet k and resumed from its last on-disk checkpoint must produce
// a Summary and instruction-count sequence identical to an uninterrupted
// run, for any seekable reader.
func resumeEquivalence(t *testing.T, k int, newReader func(t *testing.T) trace.Reader) {
	t.Helper()
	// Uninterrupted reference.
	ref := &stats.Running{KeepInstructionCounts: true}
	if err := streamRun(t, newReader(t), 0, nil, ref); err != nil {
		t.Fatalf("reference run: %v", err)
	}

	// Interrupted run: process only k packets, checkpointing every 4.
	path := filepath.Join(t.TempDir(), "run.ckpt")
	agg1 := &stats.Running{KeepInstructionCounts: true}
	ck1 := NewCheckpointer(path, 4, agg1)
	if err := streamRun(t, newReader(t), k, ck1, agg1); err != nil {
		t.Fatalf("interrupted run (k=%d): %v", k, err)
	}
	if ck1.Written() == 0 {
		t.Fatalf("interrupted run (k=%d) wrote no checkpoints", k)
	}

	// Resume with a fresh pool, reader and aggregate — only the
	// checkpoint file carries state across, as across a real crash.
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if cp.NextIndex <= 0 || cp.NextIndex > k {
		t.Fatalf("checkpoint NextIndex = %d, want in (0, %d]", cp.NextIndex, k)
	}
	reader := newReader(t)
	if err := reader.(trace.Seeker).SeekTo(cp.ReaderPos); err != nil {
		t.Fatalf("SeekTo(%v): %v", cp.ReaderPos, err)
	}
	agg2 := &stats.Running{KeepInstructionCounts: true}
	ck2 := NewCheckpointer(path, 4, agg2)
	ck2.Restore(cp)
	if err := streamRun(t, reader, 0, ck2, agg2); err != nil {
		t.Fatalf("resumed run: %v", err)
	}

	if got, want := agg2.Summary(), ref.Summary(); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed Summary differs (k=%d):\ngot  %+v\nwant %+v", k, got, want)
	}
	if got, want := agg2.InstructionCounts(), ref.InstructionCounts(); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed instruction counts differ (k=%d): %d vs %d values", k, len(got), len(want))
	}
}

func TestCheckpointResumeEquivalence(t *testing.T) {
	const n = 40
	// Faulty packets bracket the interrupt points, so resumes land
	// mid-quarantine-run.
	pkts := ckptPackets(n, 9, 16, 17, 23)
	dir := t.TempDir()
	single := writeCkptPcap(t, dir, "all.pcap", pkts)
	var even, odd []*trace.Packet
	for i, p := range pkts {
		if i%2 == 0 {
			even = append(even, p)
		} else {
			odd = append(odd, p)
		}
	}
	shardA := writeCkptPcap(t, dir, "even.pcap", even)
	shardB := writeCkptPcap(t, dir, "odd.pcap", odd)

	openFile := func(path string) func(t *testing.T) trace.Reader {
		return func(t *testing.T) trace.Reader {
			fr, err := trace.OpenPcap(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fr.Close() })
			return fr
		}
	}
	readers := map[string]func(t *testing.T) trace.Reader{
		"slice": func(t *testing.T) trace.Reader { return trace.NewSliceReader(pkts) },
		"pcap":  openFile(single),
		"merge": func(t *testing.T) trace.Reader {
			ra := openFile(shardA)(t)
			rb := openFile(shardB)(t)
			return trace.NewMergeReader(ra, rb)
		},
	}
	for name, mk := range readers {
		t.Run(name, func(t *testing.T) {
			for _, k := range []int{10, 17, 24} {
				resumeEquivalence(t, k, mk)
			}
		})
	}
}

// TestCheckpointResumeAcrossResync interrupts and resumes a run over a
// capture with a corrupted record, with skip-and-resync enabled — the
// checkpointed byte offset must replay the resync identically.
func TestCheckpointResumeAcrossResync(t *testing.T) {
	pkts := ckptPackets(30)
	var buf bytes.Buffer
	w, err := trace.NewPcapWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recOff := make([]int, len(pkts))
	for i, p := range pkts {
		recOff[i] = buf.Len()
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	raw := buf.Bytes()
	// Corrupt record 13's inclLen to an over-snap value; the reader
	// resyncs past it, so the stream yields 29 packets.
	binary.LittleEndian.PutUint32(raw[recOff[13]+8:], 1<<20)
	path := filepath.Join(t.TempDir(), "corrupt.pcap")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	mk := func(t *testing.T) trace.Reader {
		fr, err := trace.OpenPcap(path)
		if err != nil {
			t.Fatal(err)
		}
		fr.SetSkipMalformed(trace.NewSkipBudget(0))
		t.Cleanup(func() { fr.Close() })
		return fr
	}
	for _, k := range []int{8, 14} {
		resumeEquivalence(t, k, mk)
	}
}

// TestCheckpointTornWriteSurvivable: a crash mid-checkpoint (simulated
// by TearWrite) must leave the previous checkpoint loadable, and a
// resume from it must still converge to the uninterrupted Summary.
func TestCheckpointTornWriteSurvivable(t *testing.T) {
	pkts := ckptPackets(30, 11)
	mk := func(t *testing.T) trace.Reader { return trace.NewSliceReader(pkts) }

	ref := &stats.Running{KeepInstructionCounts: true}
	if err := streamRun(t, mk(t), 0, nil, ref); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	agg1 := &stats.Running{KeepInstructionCounts: true}
	ck1 := NewCheckpointer(path, 4, agg1)
	// Every write after the first crashes mid-write.
	ck1.TearWrite = func(ordinal int) bool { return ordinal >= 1 }
	if err := streamRun(t, mk(t), 20, ck1, agg1); err != nil {
		t.Fatal(err)
	}
	if ck1.Written() != 1 {
		t.Fatalf("durable checkpoints = %d, want exactly 1", ck1.Written())
	}

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("previous checkpoint did not survive the torn write: %v", err)
	}
	reader := mk(t)
	if err := reader.(trace.Seeker).SeekTo(cp.ReaderPos); err != nil {
		t.Fatal(err)
	}
	agg2 := &stats.Running{KeepInstructionCounts: true}
	ck2 := NewCheckpointer(path, 4, agg2)
	ck2.Restore(cp)
	if err := streamRun(t, reader, 0, ck2, agg2); err != nil {
		t.Fatal(err)
	}
	if got, want := agg2.Summary(), ref.Summary(); !reflect.DeepEqual(got, want) {
		t.Errorf("post-torn-write resume Summary differs:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestCheckpointSkipCountAtReaderPos: the producer reads ahead of the
// commit, so a checkpoint must record the reader's skip count at its
// ReaderPos, not the count the reader has reached by commit time.
func TestCheckpointSkipCountAtReaderPos(t *testing.T) {
	sr := trace.NewSliceReader(ckptPackets(200))
	path := filepath.Join(t.TempDir(), "run.ckpt")
	ck := NewCheckpointer(path, 1, &stats.Running{})
	// A stand-in skip counter: one skipped record per three read.
	ck.SetSkippedFunc(func() int { return int(sr.PosState()[0]) / 3 })
	pool, err := NewPool(derefApp(), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool.SetBatchSize(2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = pool.RunTraceCheckpointed(ctx, sr, 0, func(i int, res Result) {
		if i == 100 {
			cancel()
		}
	}, ck)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the cancellation", err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if pos := int(cp.ReaderPos[0]); cp.ReaderSkipped != pos/3 || pos >= 200 {
		t.Errorf("checkpoint at reader position %d records %d skips, want %d", pos, cp.ReaderSkipped, pos/3)
	}
}

func TestCheckpointValidateTrace(t *testing.T) {
	a := FingerprintBytes([]byte("capture one"))
	b := FingerprintBytes([]byte("capture two"))
	cp := &Checkpoint{Trace: []TraceID{a}}
	if err := cp.ValidateTrace([]TraceID{a}); err != nil {
		t.Errorf("matching fingerprint rejected: %v", err)
	}
	if err := cp.ValidateTrace([]TraceID{b}); err == nil {
		t.Error("mismatched fingerprint accepted")
	}
	if err := cp.ValidateTrace([]TraceID{a, b}); err == nil {
		t.Error("shard count mismatch accepted")
	}
}

func TestLoadCheckpointRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := LoadCheckpoint(filepath.Join(dir, "missing.ckpt")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file err = %v", err)
	}
	if _, err := LoadCheckpoint(write("torn.ckpt", `{"version":1,"reader_`)); err == nil {
		t.Error("torn JSON accepted")
	}
	if _, err := LoadCheckpoint(write("vers.ckpt", `{"version":99,"reader_pos":[0],"next_index":0,"stats":{}}`)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("future version accepted: %v", err)
	}
	// Version 1 kept no instruction-count histogram: resuming from one
	// would drop the packets before it from the occurrence table.
	if _, err := LoadCheckpoint(write("v1.ckpt", `{"version":1,"reader_pos":[0],"next_index":2,"stats":{"counts":[730,730]}}`)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("version 1 checkpoint accepted: %v", err)
	}
	if _, err := LoadCheckpoint(write("state.ckpt", `{"version":2,"next_index":-3,"stats":{}}`)); err == nil {
		t.Error("malformed resume state accepted")
	}
}

// opaqueReader hides a reader's Seeker implementation.
type opaqueReader struct{ r trace.Reader }

func (o opaqueReader) Next() (*trace.Packet, error) { return o.r.Next() }

func TestCheckpointNeedsSeekableReader(t *testing.T) {
	agg := &stats.Running{}
	ck := NewCheckpointer(filepath.Join(t.TempDir(), "run.ckpt"), 4, agg)
	pool, err := NewPool(derefApp(), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = pool.RunTraceCheckpointed(context.Background(), opaqueReader{trace.NewSliceReader(ckptPackets(8))}, 0, nil, ck)
	if err == nil || !strings.Contains(err.Error(), "resumable") {
		t.Errorf("err = %v, want resumable-reader refusal", err)
	}
}

// FuzzCheckpointResume fuzzes the interrupt point, checkpoint cadence,
// batch size and fault placement, asserting the crash-and-resume Summary
// always matches an uninterrupted run. Each input is interrupted and
// resumed on both engines, against the interpreter's uninterrupted run.
func FuzzCheckpointResume(f *testing.F) {
	f.Add(uint8(20), uint8(7), uint8(4), uint8(3), uint16(0x0410))
	f.Add(uint8(40), uint8(33), uint8(1), uint8(1), uint16(0x8001))
	f.Add(uint8(9), uint8(4), uint8(2), uint8(5), uint16(0))
	f.Fuzz(func(t *testing.T, nRaw, kRaw, everyRaw, batchRaw uint8, faultBits uint16) {
		n := int(nRaw%48) + 2
		k := int(kRaw)%n + 1
		every := int(everyRaw)%8 + 1
		batch := int(batchRaw)%6 + 1
		pkts := derefPackets(n)
		for i := range pkts {
			if faultBits&(1<<(i%16)) != 0 {
				pkts[i].Data[1] = 1
			}
		}
		run := func(engine EngineKind, limit int, ck *Checkpointer, agg *stats.Running, reader trace.Reader) error {
			pool, err := NewPool(derefApp(), 2, Options{Engine: engine, Errors: ErrorPolicy{Policy: SkipAndRecord}})
			if err != nil {
				t.Fatal(err)
			}
			pool.SetBatchSize(batch)
			_, err = pool.RunTraceCheckpointed(context.Background(), reader, limit, func(i int, res Result) {
				if res.Shed {
					agg.AddShed(1)
					return
				}
				agg.Add(&res.Record)
			}, ck)
			return err
		}

		ref := &stats.Running{KeepInstructionCounts: true}
		if err := run(EngineInterpreter, 0, nil, ref, trace.NewSliceReader(pkts)); err != nil {
			t.Fatal(err)
		}

		for _, engine := range []EngineKind{EngineInterpreter, EngineThreaded} {
			path := filepath.Join(t.TempDir(), "fuzz.ckpt")
			agg1 := &stats.Running{KeepInstructionCounts: true}
			ck1 := NewCheckpointer(path, every, agg1)
			if err := run(engine, k, ck1, agg1, trace.NewSliceReader(pkts)); err != nil {
				t.Fatal(err)
			}

			agg2 := &stats.Running{KeepInstructionCounts: true}
			ck2 := NewCheckpointer(path, every, agg2)
			reader := trace.NewSliceReader(pkts)
			cp, err := LoadCheckpoint(path)
			switch {
			case errors.Is(err, os.ErrNotExist):
				// The interrupted run never reached a checkpoint boundary;
				// recovery is a from-scratch run.
			case err != nil:
				t.Fatal(err)
			default:
				if err := reader.SeekTo(cp.ReaderPos); err != nil {
					t.Fatal(err)
				}
				ck2.Restore(cp)
			}
			if err := run(engine, 0, ck2, agg2, reader); err != nil {
				t.Fatal(err)
			}
			if got, want := agg2.Summary(), ref.Summary(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v n=%d k=%d every=%d batch=%d: resumed Summary differs\ngot  %+v\nwant %+v",
					engine, n, k, every, batch, got, want)
			}
			if got, want := agg2.InstructionCounts(), ref.InstructionCounts(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v n=%d k=%d every=%d batch=%d: instruction counts differ", engine, n, k, every, batch)
			}
		}
	})
}
