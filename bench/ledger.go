package main

import (
	"fmt"
	"io"
)

// ledgerRow is one layer's share of a traced run. NS is the layer's
// total time over the run. An overlapped row ran concurrently with the
// rows that add up to the wall time (a pipeline stage on its own
// goroutine, or the Go runtime's GC workers), so it is listed but not
// subtracted.
type ledgerRow struct {
	Layer      string  `json:"layer"`
	NS         float64 `json:"ns"`
	NSPerPkt   float64 `json:"ns_per_pkt"`
	Share      float64 `json:"share"`
	Overlapped bool    `json:"overlapped,omitempty"`
}

// ledger splits a traced run's wall time (set-up plus run phase) into
// layers. Whatever the non-overlapped rows do not cover is reported as
// the unattributed row, never spread over the others.
type ledger struct {
	WallNS           float64     `json:"wall_ns"`
	Packets          int         `json:"packets"`
	Rows             []ledgerRow `json:"rows"`
	UnattributedFrac float64     `json:"unattributed_frac"`
}

func newLedger(wallNS float64, packets int, rows []ledgerRow) ledger {
	attributed := 0.0
	for _, r := range rows {
		if !r.Overlapped {
			attributed += r.NS
		}
	}
	rows = append(rows, ledgerRow{Layer: "unattributed", NS: wallNS - attributed})
	for i := range rows {
		if packets > 0 {
			rows[i].NSPerPkt = rows[i].NS / float64(packets)
		}
		if wallNS > 0 {
			rows[i].Share = rows[i].NS / wallNS
		}
	}
	return ledger{WallNS: wallNS, Packets: packets, Rows: rows, UnattributedFrac: rows[len(rows)-1].Share}
}

func (l ledger) write(w io.Writer) {
	fmt.Fprintf(w, "  ledger: %.3f s wall, %d packets\n", l.WallNS/1e9, l.Packets)
	fmt.Fprintf(w, "    %-52s %12s %8s\n", "layer", "ns/pkt", "share")
	for _, r := range l.Rows {
		name := r.Layer
		if r.Overlapped {
			name += " [overlapped]"
		}
		fmt.Fprintf(w, "    %-52s %12.1f %7.1f%%\n", name, r.NSPerPkt, 100*r.Share)
	}
}
