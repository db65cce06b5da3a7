package main

import (
	"math"
	"testing"
)

func TestLedgerArithmetic(t *testing.T) {
	l := newLedger(1000, 10, []ledgerRow{
		{Layer: "a", NS: 600},
		{Layer: "b", NS: 300},
		{Layer: "gc", NS: 500, Overlapped: true},
	})
	if len(l.Rows) != 4 || l.Rows[3].Layer != "unattributed" {
		t.Fatalf("rows = %+v, want the three layers then unattributed", l.Rows)
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	if !near(l.UnattributedFrac, 0.1) || !near(l.Rows[3].NS, 100) {
		t.Errorf("unattributed = %v ns (%v), want 100 ns (0.1): overlapped rows must not be subtracted", l.Rows[3].NS, l.UnattributedFrac)
	}
	if !near(l.Rows[0].NSPerPkt, 60) || !near(l.Rows[0].Share, 0.6) {
		t.Errorf("row a = %+v, want 60 ns/pkt, share 0.6", l.Rows[0])
	}
	if !near(l.Rows[2].Share, 0.5) {
		t.Errorf("overlapped share = %v, want 0.5", l.Rows[2].Share)
	}
	sum := 0.0
	for _, r := range l.Rows {
		if !r.Overlapped {
			sum += r.Share
		}
	}
	if !near(sum, 1) {
		t.Errorf("non-overlapped shares sum to %v, want 1", sum)
	}
}

func TestLedgerOverAttributed(t *testing.T) {
	l := newLedger(100, 1, []ledgerRow{{Layer: "a", NS: 120}})
	if !(l.UnattributedFrac < 0) {
		t.Errorf("a layer measured longer than the wall must show as negative unattributed time, got %v", l.UnattributedFrac)
	}
}
