package core

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/trace"
	"repro/internal/vm"
)

// poolWithPlan builds a pool with the injector on every core.
func poolWithPlan(t *testing.T, cores int, opts Options, inj *faultinject.Injector) *Pool {
	t.Helper()
	pool, err := NewPool(derefApp(), cores, opts)
	if err != nil {
		t.Fatal(err)
	}
	if inj != nil {
		for i := 0; i < pool.Cores(); i++ {
			pool.Bench(i).SetInjector(inj)
		}
	}
	return pool
}

func mustPlan(t *testing.T, spec string) *faultinject.Injector {
	t.Helper()
	plan, err := faultinject.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return faultinject.New(2, plan)
}

// TestStallWatchdog is the no-hang acceptance test: a worker wedged
// inside a packet (an injected unbounded stall) must end the run with a
// typed *StallError naming the stuck packet, within a small multiple of
// the stall timeout — never hang it.
func TestStallWatchdog(t *testing.T) {
	const timeout = 100 * time.Millisecond
	inj := mustPlan(t, "stall@5")
	pool := poolWithPlan(t, 2, Options{StallTimeout: timeout}, inj)
	pool.SetBatchSize(1)
	start := time.Now()
	_, err := pool.RunTrace(trace.NewSliceReader(derefPackets(16)), 0, nil)
	elapsed := time.Since(start)
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	if se.Index != 5 {
		t.Errorf("stalled packet = %d, want 5", se.Index)
	}
	if se.Stalled < timeout {
		t.Errorf("reported stall %v below the %v timeout", se.Stalled, timeout)
	}
	if elapsed > 10*time.Second {
		t.Errorf("stalled run took %v to fail; the watchdog did not cancel it", elapsed)
	}
}

// TestStallWatchdogRunPackets: the in-memory entry point has the same
// no-hang guarantee as RunTrace. A 2 s stall under a 100 ms timeout must
// fail the run with a *StallError long before the stall would end.
func TestStallWatchdogRunPackets(t *testing.T) {
	const timeout = 100 * time.Millisecond
	inj := mustPlan(t, "stall@3:2000")
	pool := poolWithPlan(t, 2, Options{StallTimeout: timeout}, inj)
	start := time.Now()
	_, err := pool.RunPackets(derefPackets(16), nil)
	elapsed := time.Since(start)
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v after %v, want *StallError", err, elapsed)
	}
	if se.Index != 3 {
		t.Errorf("stalled packet = %d, want 3", se.Index)
	}
	if elapsed >= time.Second {
		t.Errorf("stalled run took %v to fail; the watchdog did not cancel it", elapsed)
	}
}

// TestDelayDoesNotTripWatchdog: slow-but-progressing packets (injected
// latency spikes shorter than the timeout) must not be killed.
func TestDelayDoesNotTripWatchdog(t *testing.T) {
	inj := mustPlan(t, "delay@3:10,delay@9:10")
	pool := poolWithPlan(t, 2, Options{StallTimeout: 2 * time.Second}, inj)
	pool.SetBatchSize(1)
	n := 0
	if _, err := pool.RunTrace(trace.NewSliceReader(derefPackets(12)), 0, func(int, Result) { n++ }); err != nil {
		t.Fatalf("delayed run failed: %v", err)
	}
	if n != 12 {
		t.Errorf("processed %d packets, want 12", n)
	}
}

// TestRunDeadline: a pool run past Options.RunDeadline is cancelled with
// an error that wraps context.DeadlineExceeded.
func TestRunDeadline(t *testing.T) {
	plan := make([]faultinject.Injection, 16)
	for i := range plan {
		plan[i] = faultinject.Injection{Index: i, Kind: faultinject.Delay, Arg: 30}
	}
	inj := faultinject.New(1, plan)
	pool := poolWithPlan(t, 2, Options{RunDeadline: 60 * time.Millisecond}, inj)
	pool.SetBatchSize(1)
	_, err := pool.RunTrace(inj.Reader(trace.NewSliceReader(derefPackets(16))), 0, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "deadline") {
		t.Errorf("deadline error does not say so: %v", err)
	}
}

// shedRun floods a 1-core pool whose first packet is slow, so the
// 4-job backlog fills and the shed policy decides the overflow's fate.
// It returns the per-index delivery counts and the shed total.
func shedRun(t *testing.T, n int, opts Options) (seen []int, shed int, err error) {
	t.Helper()
	plan := []faultinject.Injection{{Index: 0, Kind: faultinject.Delay, Arg: 80}}
	inj := faultinject.New(1, plan)
	pool := poolWithPlan(t, 1, opts, inj)
	pool.SetBatchSize(1)
	seen = make([]int, n)
	_, err = pool.RunTrace(trace.NewSliceReader(derefPackets(n)), 0, func(i int, res Result) {
		seen[i]++
		if res.Shed {
			shed++
		}
	})
	return seen, shed, err
}

// TestShedPoliciesExactlyOnce: under overload, every trace index is
// delivered exactly once — as a measurement or as a shed marker — and
// dropping policies actually drop.
func TestShedPoliciesExactlyOnce(t *testing.T) {
	const n = 60
	for _, tc := range []struct {
		name string
		shed ShedPolicy
	}{
		{"drop-newest", ShedDropNewest},
		{"drop-oldest", ShedDropOldest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seen, shed, err := shedRun(t, n, Options{Shed: tc.shed})
			if err != nil {
				t.Fatalf("shed run failed: %v", err)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("index %d delivered %d times, want exactly once", i, c)
				}
			}
			if shed == 0 {
				t.Error("overloaded run shed nothing")
			}
		})
	}
	t.Run("block", func(t *testing.T) {
		seen, shed, err := shedRun(t, n, Options{})
		if err != nil {
			t.Fatalf("blocking run failed: %v", err)
		}
		if shed != 0 {
			t.Errorf("lossless policy shed %d packets", shed)
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("index %d delivered %d times", i, c)
			}
		}
	})
}

// TestShedChargesErrorBudget: shedding is loss and spends the same
// budget quarantines do; exhausting it aborts the run.
func TestShedChargesErrorBudget(t *testing.T) {
	_, _, err := shedRun(t, 80, Options{
		Shed:   ShedDropNewest,
		Errors: ErrorPolicy{Policy: SkipAndRecord, ErrorBudget: 3},
	})
	if err == nil || !strings.Contains(err.Error(), "shedding") {
		t.Fatalf("err = %v, want budget-exhausted shed abort", err)
	}
	if !strings.Contains(err.Error(), "error budget") {
		t.Errorf("shed abort does not name the budget: %v", err)
	}
}

// TestBatchedPanicAttribution is the regression for batch-granular jobs:
// a host panic mid-batch must quarantine exactly the one packet whose
// execution panicked, not its batchmates.
func TestBatchedPanicAttribution(t *testing.T) {
	inj := mustPlan(t, "panic@11")
	pool := poolWithPlan(t, 2, Options{Errors: ErrorPolicy{Policy: SkipAndRecord}}, inj)
	pool.SetBatchSize(8)
	faults := map[int]vm.FaultKind{}
	n := 0
	if _, err := pool.RunTrace(trace.NewSliceReader(derefPackets(24)), 0, func(i int, res Result) {
		n++
		if res.Faulted() {
			faults[i] = res.Record.Fault
		}
	}); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if n != 24 {
		t.Fatalf("delivered %d results, want 24", n)
	}
	if len(faults) != 1 || faults[11] != vm.FaultHostPanic {
		t.Errorf("faults = %v, want exactly {11: FaultHostPanic}", faults)
	}
}

// TestChaosSoak drives a streaming run through a mixed host-fault plan —
// packet corruption, VM faults, a worker panic, latency spikes — and
// asserts the crash-only invariants: the
// run completes, every index is delivered exactly once, faults are
// attributed to the planned packets, and the budget is respected. It
// runs on both engines, which must quarantine at the same fault PCs.
func TestChaosSoak(t *testing.T) {
	const n = 160
	spec := "flip@5:1,vmfault@20:4,panic@33,delay@50:5,trunc@90:10,vmfault@110:3,delay@130:8"
	plan, err := faultinject.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]vm.FaultKind{
		5:   vm.FaultUnmapped,  // flipped header byte dereferences junk
		20:  vm.FaultBadInstr,  // injected VM fault
		33:  vm.FaultHostPanic, // injected worker panic
		110: vm.FaultBadInstr,
	}
	faultPCs := map[EngineKind]map[int]uint32{}
	for _, engine := range []EngineKind{EngineInterpreter, EngineThreaded} {
		t.Run(engine.String(), func(t *testing.T) {
			inj := faultinject.New(7, plan)
			pool := poolWithPlan(t, 4, Options{
				Engine:       engine,
				Errors:       ErrorPolicy{Policy: SkipAndRecord, ErrorBudget: 50},
				StallTimeout: 10 * time.Second,
			}, inj)
			pool.SetBatchSize(2)
			seen := make([]int, n)
			faults := map[int]vm.FaultKind{}
			pcs := map[int]uint32{}
			shed := 0
			if _, err := pool.RunTrace(inj.Reader(trace.NewSliceReader(derefPackets(n))), 0, func(i int, res Result) {
				seen[i]++
				if res.Shed {
					shed++
				} else if res.Faulted() {
					faults[i] = res.Record.Fault
					pcs[i] = res.Fault.PC
				}
			}); err != nil {
				t.Fatalf("chaos soak did not survive: %v", err)
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("index %d delivered %d times, want exactly once", i, c)
				}
			}
			for idx, kind := range want {
				if faults[idx] != kind {
					t.Errorf("packet %d fault = %v, want %v", idx, faults[idx], kind)
				}
			}
			for idx := range faults {
				if _, planned := want[idx]; !planned {
					t.Errorf("unplanned quarantine at packet %d (%v)", idx, faults[idx])
				}
			}
			if len(faults)+shed > 50 {
				t.Errorf("loss %d+%d exceeds the error budget", len(faults), shed)
			}
			faultPCs[engine] = pcs
		})
	}
	if i, g := faultPCs[EngineInterpreter], faultPCs[EngineThreaded]; !reflect.DeepEqual(i, g) {
		t.Errorf("fault PCs differ: interp %#x, threaded %#x", i, g)
	}
}

func TestParseShedPolicy(t *testing.T) {
	for in, want := range map[string]ShedPolicy{
		"": ShedBlock, "block": ShedBlock,
		"drop-newest": ShedDropNewest, "newest": ShedDropNewest,
		"drop-oldest": ShedDropOldest, "oldest": ShedDropOldest,
	} {
		got, err := ParseShedPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseShedPolicy(%q) = %v, %v", in, got, err)
		}
	}
	for _, p := range []ShedPolicy{ShedBlock, ShedDropNewest, ShedDropOldest} {
		if round, err := ParseShedPolicy(p.String()); err != nil || round != p {
			t.Errorf("String/Parse round trip broken for %v", p)
		}
	}
	if _, err := ParseShedPolicy("yeet"); err == nil {
		t.Error("bad shed policy name accepted")
	}
}
