package faultinject

import (
	"strings"
	"testing"

	"repro/internal/trace"
)

func hostTestPackets(n int) []*trace.Packet {
	pkts := make([]*trace.Packet, n)
	for i := range pkts {
		pkts[i] = &trace.Packet{Sec: uint32(i), Data: []byte{0x45, 0, byte(i), byte(i)}}
		pkts[i].WireLen = len(pkts[i].Data)
	}
	return pkts
}

// TestParsePlanHostKinds round-trips the host-fault spec grammar added
// for the chaos harness.
func TestParsePlanHostKinds(t *testing.T) {
	plan, err := ParsePlan("panic@3,delay@5:40,stall@7,tearckpt@1,vmfault@2:8")
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[Kind]Injection{}
	for _, in := range plan {
		byKind[in.Kind] = in
	}
	if in := byKind[WorkerPanic]; in.Index != 3 {
		t.Errorf("panic parsed as %+v", in)
	}
	if in := byKind[Delay]; in.Index != 5 || in.Arg != 40 {
		t.Errorf("delay parsed as %+v, want index 5 arg 40ms", in)
	}
	if in := byKind[Stall]; in.Index != 7 || in.Arg != -1 {
		t.Errorf("stall parsed as %+v, want index 7 unbounded", in)
	}
	if in := byKind[CkptTear]; in.Index != 1 {
		t.Errorf("tearckpt parsed as %+v", in)
	}

	for _, bad := range []string{"tearckpt@1:2", "panic@1:2:3", "vmfault@2:8:1", "stall@"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
	for _, k := range []Kind{WorkerPanic, Delay, Stall, CkptTear} {
		if strings.Contains(k.String(), "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
}

// TestReaderFromKeepsAbsoluteIndexes: after a resume, injections keyed
// by trace index must still land on those indexes even though the
// wrapped reader starts mid-stream.
func TestReaderFromKeepsAbsoluteIndexes(t *testing.T) {
	pkts := hostTestPackets(10)
	inj := New(1, []Injection{
		{Index: 2, Kind: FlipByte, Arg: 2}, // before the resume point: must not fire
		{Index: 7, Kind: FlipByte, Arg: 2},
	})
	r := inj.ReaderFrom(trace.NewSliceReader(pkts[4:]), 4)
	for n := 4; n < len(pkts); n++ {
		p, err := r.Next()
		if err != nil {
			t.Fatalf("index %d: %v", n, err)
		}
		if p.Sec != uint32(n) {
			t.Fatalf("index %d yielded Sec %d", n, p.Sec)
		}
		if flipped := p.Data[2] != byte(n); flipped != (n == 7) {
			t.Errorf("index %d: flipped = %v, want a flip at absolute index 7 only", n, flipped)
		}
	}
	if st := r.(trace.Seeker).PosState(); st == nil {
		t.Error("wrapper hides the underlying reader's seek state")
	}
	if err := r.(trace.Seeker).SeekTo([]int64{0}); err == nil {
		t.Error("direct SeekTo on the wrapper accepted")
	}
}

// TestCheckpointTearFunc: nil without tearckpt entries; otherwise fires
// at the planned write ordinal only.
func TestCheckpointTearFunc(t *testing.T) {
	if fn := New(1, []Injection{{Index: 0, Kind: WorkerPanic}}).CheckpointTearFunc(); fn != nil {
		t.Error("CheckpointTearFunc non-nil without tearckpt entries")
	}
	fn := New(1, []Injection{{Index: 2, Kind: CkptTear}}).CheckpointTearFunc()
	if fn == nil {
		t.Fatal("CheckpointTearFunc nil despite a tearckpt entry")
	}
	var fired []int
	for ordinal := 0; ordinal < 6; ordinal++ {
		if fn(ordinal) {
			fired = append(fired, ordinal)
		}
	}
	if len(fired) != 1 || fired[0] != 2 {
		t.Errorf("tear fired at %v, want exactly [2]", fired)
	}
}
