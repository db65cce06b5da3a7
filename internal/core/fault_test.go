package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
)

// derefSrc faults with FaultUnmapped when byte 1 of the packet is nonzero
// (it dereferences packet base + data[1]<<16, which lands past the 64 KiB
// packet region for any nonzero value), then loops data[2] times so
// per-packet instruction counts vary with content. Clean packets keep
// byte 1 zero; a flipped header byte at offset 1 is a reliable injected
// fault.
const derefSrc = `
	.text
	.global d
d:
	lbu  t0, 1(a0)
	slli t0, t0, 16
	add  t0, a0, t0
	lw   t1, 0(t0)
	lbu  t2, 2(a0)
	mv   t3, zero
loop:
	beq  t3, t2, done
	addi t3, t3, 1
	j    loop
done:
	mv   a0, a1
	ret
`

func derefApp() *App {
	return &App{Name: "deref", Source: derefSrc, Entry: "d"}
}

// derefPackets builds n clean packets with distinct sizes and loop
// counts, so their workload records are distinguishable.
func derefPackets(n int) []*trace.Packet {
	pkts := make([]*trace.Packet, n)
	for i := range pkts {
		p := ipPacket(24 + i)
		p.Data[2] = byte(3 * i)
		pkts[i] = p
	}
	return pkts
}

// TestSkipPolicyEquivalence is the robustness acceptance test: a pool run
// under SkipAndRecord over a trace with injected corruption (a flipped
// header byte that faults the VM, plus a forced mid-execution fault)
// completes, reports per-fault-kind counts, keeps the quarantined
// packets' index slots, and yields byte-identical statistics for every
// unaffected packet compared to a clean FailFast run.
func TestSkipPolicyEquivalence(t *testing.T) {
	const n = 12
	pkts := derefPackets(n)

	collect := func(pool *Pool, r trace.Reader) ([]stats.PacketRecord, error) {
		records := make([]stats.PacketRecord, n)
		_, err := pool.RunTrace(r, 0, func(i int, res Result) {
			records[i] = res.Record
		})
		return records, err
	}

	// Clean reference: FailFast over the pristine packets.
	cleanPool, err := NewPool(derefApp(), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := collect(cleanPool, trace.NewSliceReader(pkts))
	if err != nil {
		t.Fatal(err)
	}

	// Faulty run: flip byte 1 of packet 2 (FaultUnmapped in the app),
	// force a VM fault 4 instructions into packet 5, and truncate packet
	// 7 (runs fine, but is an affected packet).
	plan, err := faultinject.ParsePlan("flip@2:1,vmfault@5:4,trunc@7:20")
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1, plan)
	skipPool, err := NewPool(derefApp(), 3, Options{Errors: ErrorPolicy{Policy: SkipAndRecord, ErrorBudget: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < skipPool.Cores(); i++ {
		skipPool.Bench(i).SetInjector(inj)
	}
	faulty, err := collect(skipPool, inj.Reader(trace.NewSliceReader(pkts)))
	if err != nil {
		t.Fatalf("skip run did not complete: %v", err)
	}

	// Quarantined packets keep their slots, tagged with the right kinds.
	if !faulty[2].Faulted() || faulty[2].Fault != vm.FaultUnmapped || faulty[2].Index != 2 {
		t.Errorf("packet 2 record = %+v, want FaultUnmapped quarantine at index 2", faulty[2])
	}
	if !faulty[5].Faulted() || faulty[5].Fault != vm.FaultBadInstr || faulty[5].Index != 5 {
		t.Errorf("packet 5 record = %+v, want FaultBadInstr quarantine at index 5", faulty[5])
	}

	// Unaffected packets: byte-identical records.
	affected := map[int]bool{2: true, 5: true, 7: true}
	for i := 0; i < n; i++ {
		if affected[i] {
			continue
		}
		if !reflect.DeepEqual(faulty[i], clean[i]) {
			t.Errorf("packet %d record differs from the clean run:\nfaulty: %+v\nclean:  %+v", i, faulty[i], clean[i])
		}
	}

	// Aggregates: per-kind counts, and means that exclude the quarantine.
	sum := stats.Summarize(faulty)
	if sum.Packets != n || sum.Faulted != 2 || sum.Measured() != n-2 {
		t.Errorf("Packets/Faulted/Measured = %d/%d/%d, want %d/2/%d", sum.Packets, sum.Faulted, sum.Measured(), n, n-2)
	}
	if sum.FaultCounts[vm.FaultUnmapped] != 1 || sum.FaultCounts[vm.FaultBadInstr] != 1 {
		t.Errorf("FaultCounts = %v", sum.FaultCounts)
	}
}

func TestSkipPolicyErrorBudget(t *testing.T) {
	b, err := New(derefApp(), Options{Errors: ErrorPolicy{Policy: SkipAndRecord, ErrorBudget: 1}})
	if err != nil {
		t.Fatal(err)
	}
	bad1, bad2 := ipPacket(32), ipPacket(32)
	bad1.Data[1], bad2.Data[1] = 1, 1
	pkts := []*trace.Packet{ipPacket(32), bad1, ipPacket(32), bad2, ipPacket(32)}
	recs, err := b.RunPackets(pkts, nil)
	if err == nil || !strings.Contains(err.Error(), "error budget") {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	if !errors.Is(err, vm.FaultUnmapped) {
		t.Errorf("budget error does not unwrap to the underlying fault: %v", err)
	}
	// Records up to the aborting packet: 0 measured, 1 quarantined, 2
	// measured; the run stops at packet 3.
	if len(recs) != 3 || !recs[1].Faulted() || recs[0].Faulted() || recs[2].Faulted() {
		t.Fatalf("records before abort = %+v", recs)
	}
}

// panicTracer blows up with a non-Fault value on the first pass of
// derefPackets' packet target, which it knows by its loop-count byte in
// the bench memory mem, standing in for an instrumentation bug. With a
// nil mem it never panics.
type panicTracer struct {
	target int
	mem    *vm.Memory
}

func (p *panicTracer) Pass(first, last int) {
	if p.mem != nil && int(p.mem.ReadBytes(PacketBase+2, 1)[0]) == 3*p.target {
		panic("tracer bug")
	}
}
func (p *panicTracer) Mem(pc, addr uint32, size uint8, write bool, region vm.Region) {}

// TestPoolWorkerPanicRecovery pins the contract that a panicking tracer
// inside a pool worker cannot kill the process: under FailFast it becomes
// an ordinary run error carrying FaultHostPanic; under SkipAndRecord the
// packet is quarantined and the run completes.
func TestPoolWorkerPanicRecovery(t *testing.T) {
	pkts := derefPackets(8)

	pool, err := NewPool(derefApp(), 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pool.Cores(); i++ {
		pool.Bench(i).AddTracer(&panicTracer{target: 3, mem: pool.Bench(i).Memory()})
	}
	_, err = pool.RunPackets(pkts, nil)
	if err == nil || !strings.Contains(err.Error(), "tracer bug") {
		t.Fatalf("err = %v, want recovered panic", err)
	}
	if !errors.Is(err, vm.FaultHostPanic) {
		t.Errorf("recovered panic error does not carry FaultHostPanic: %v", err)
	}

	pool, err = NewPool(derefApp(), 2, Options{Errors: ErrorPolicy{Policy: SkipAndRecord}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < pool.Cores(); i++ {
		pool.Bench(i).AddTracer(&panicTracer{target: 3, mem: pool.Bench(i).Memory()})
	}
	recs, err := pool.RunPackets(pkts, nil)
	if err != nil {
		t.Fatalf("skip run failed: %v", err)
	}
	if !recs[3].Faulted() || recs[3].Fault != vm.FaultHostPanic {
		t.Errorf("packet 3 = %+v, want FaultHostPanic quarantine", recs[3])
	}
	for i, r := range recs {
		if i != 3 && r.Faulted() {
			t.Errorf("packet %d quarantined unexpectedly", i)
		}
	}
}

func TestOversizePacketUnderPolicies(t *testing.T) {
	big := &trace.Packet{Data: make([]byte, MaxPacketLen+1)}
	big.Data[0] = 0x45

	b, err := New(derefApp(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ProcessPacket(big); !errors.Is(err, vm.FaultOversizePacket) {
		t.Errorf("FailFast oversize err = %v, want FaultOversizePacket", err)
	}

	b, err = New(derefApp(), Options{Errors: ErrorPolicy{Policy: SkipAndRecord}})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := b.RunPackets([]*trace.Packet{ipPacket(32), big, ipPacket(32)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !recs[1].Faulted() || recs[1].Fault != vm.FaultOversizePacket {
		t.Errorf("oversize record = %+v", recs[1])
	}
	if recs[2].Faulted() || recs[2].Index != 2 {
		t.Errorf("packet after oversize = %+v, want measured at index 2", recs[2])
	}
}

func TestParseFaultPolicy(t *testing.T) {
	for in, want := range map[string]FaultPolicy{
		"fail-fast": FailFast, "failfast": FailFast,
		"skip": SkipAndRecord, "skip-and-record": SkipAndRecord,
	} {
		got, err := ParseFaultPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseFaultPolicy(%q) = %v, %v", in, got, err)
		}
		if round, err := ParseFaultPolicy(want.String()); err != nil || round != want {
			t.Errorf("String/Parse round trip broken for %v", want)
		}
	}
	if _, err := ParseFaultPolicy("explode"); err == nil {
		t.Error("bad policy name accepted")
	}
}
