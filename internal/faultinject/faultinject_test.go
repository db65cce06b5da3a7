package faultinject

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/vm"
)

func pkt(sec uint32, n int) *trace.Packet {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i)
	}
	data[0] = 0x45
	return &trace.Packet{Sec: sec, Data: data, WireLen: n + 10}
}

func readAll(t *testing.T, r trace.Reader) []*trace.Packet {
	t.Helper()
	pkts, err := trace.ReadAll(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	return pkts
}

func TestParsePlan(t *testing.T) {
	plan, err := ParsePlan("flip@3,trunc@7:20, vmfault@11:5 ,clamp@2")
	if err != nil {
		t.Fatal(err)
	}
	want := []Injection{
		{Index: 3, Kind: FlipByte, Arg: -1},
		{Index: 7, Kind: Truncate, Arg: 20},
		{Index: 11, Kind: VMFault, Arg: 5},
		{Index: 2, Kind: ClampLen, Arg: -1},
	}
	if len(plan) != len(want) {
		t.Fatalf("got %d injections, want %d", len(plan), len(want))
	}
	for i := range want {
		if plan[i] != want[i] {
			t.Errorf("injection %d = %+v, want %+v", i, plan[i], want[i])
		}
	}
	for _, bad := range []string{"", "flip", "zap@1", "flip@-1", "flip@x", "flip@1:2:3", "vmfault@1:2:3"} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

func TestReaderMutations(t *testing.T) {
	orig := []*trace.Packet{pkt(1, 40), pkt(2, 40), pkt(3, 40)}
	plan := []Injection{
		{Index: 0, Kind: FlipByte, Arg: 1},
		{Index: 1, Kind: Truncate, Arg: 8},
		{Index: 2, Kind: ClampLen, Arg: 8},
	}
	inj := New(7, plan)
	got := readAll(t, inj.Reader(trace.NewSliceReader(orig)))

	if got[0].Data[1] == orig[0].Data[1] {
		t.Error("FlipByte left the target byte unchanged")
	}
	if !bytes.Equal(got[0].Data[2:], orig[0].Data[2:]) || got[0].Data[0] != orig[0].Data[0] {
		t.Error("FlipByte touched bytes outside the target offset")
	}
	if orig[0].Data[1] != 1 {
		t.Error("FlipByte mutated the source packet")
	}
	if len(got[1].Data) != 8 || got[1].WireLen != orig[1].WireLen {
		t.Errorf("Truncate: len=%d wire=%d, want 8 and %d", len(got[1].Data), got[1].WireLen, orig[1].WireLen)
	}
	if len(got[2].Data) != 8 || got[2].WireLen != 8 {
		t.Errorf("ClampLen: len=%d wire=%d, want 8 and 8", len(got[2].Data), got[2].WireLen)
	}
}

func TestSeededChoicesAreDeterministic(t *testing.T) {
	plan := []Injection{{Index: 0, Kind: FlipByte, Arg: -1}, {Index: 1, Kind: Truncate, Arg: -1}}
	run := func(seed int64) []*trace.Packet {
		return readAll(t, New(seed, plan).Reader(trace.NewSliceReader([]*trace.Packet{pkt(1, 64), pkt(2, 64)})))
	}
	a, b := run(42), run(42)
	for i := range a {
		if !bytes.Equal(a[i].Data, b[i].Data) {
			t.Fatalf("packet %d differs across runs with the same seed", i)
		}
	}
	c := run(43)
	same := bytes.Equal(a[0].Data, c[0].Data) && len(a[1].Data) == len(c[1].Data)
	if same {
		t.Log("seeds 42 and 43 happened to collide; not an error, but suspicious")
	}
	if n := len(a[1].Data); n < 1 || n >= 64 {
		t.Errorf("seeded truncation length %d out of range [1,64)", n)
	}
}

func TestTracerForcesFault(t *testing.T) {
	inj := New(1, []Injection{{Index: 5, Kind: VMFault, Arg: 2}})
	tr := inj.Tracer()

	step := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = r.(*vm.Fault)
			}
		}()
		tr.Instr(0x400000, isa.Instruction{})
		return nil
	}

	// Packet 4 is not in the plan: nothing fires.
	tr.BeginPacket(4)
	for i := 0; i < 10; i++ {
		if err := step(); err != nil {
			t.Fatalf("unplanned packet faulted: %v", err)
		}
	}

	// Packet 5: fault after 2 instructions, on every execution — the
	// plan is deterministic, so a second run meets the same fault.
	for run := 0; run < 2; run++ {
		tr.BeginPacket(5)
		if err := step(); err != nil {
			t.Fatal("fired too early (instruction 1)")
		}
		if err := step(); err != nil {
			t.Fatal("fired too early (instruction 2)")
		}
		err := step()
		if err == nil {
			t.Fatalf("run %d: armed tracer never fired", run)
		}
		if !errors.Is(err, vm.FaultBadInstr) {
			t.Errorf("fault kind = %v, want FaultBadInstr", err)
		}
	}
}

// TestHasExecFaults: only execution-surface kinds need the
// per-instruction tracer.
func TestHasExecFaults(t *testing.T) {
	if New(1, mustParse(t, "flip@3,trunc@7:20,clamp@2,tearckpt@1")).HasExecFaults() {
		t.Error("packet-surface plan reports execution faults")
	}
	for _, spec := range []string{"vmfault@1", "panic@1", "delay@1:2", "stall@1"} {
		if !New(1, mustParse(t, "flip@3,"+spec)).HasExecFaults() {
			t.Errorf("%s: execution fault not reported", spec)
		}
	}
}

func mustParse(t *testing.T, spec string) []Injection {
	t.Helper()
	plan, err := ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}
