package packetbench

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	pkts := GenerateTrace("LAN", 200)
	if len(pkts) != 200 {
		t.Fatalf("generated %d packets", len(pkts))
	}
	tbl := RouteTableFromTrace(pkts, 1000)
	if len(tbl.Entries) == 0 {
		t.Fatal("empty routing table")
	}
	for _, app := range []*App{
		NewIPv4Radix(tbl), NewIPv4Trie(tbl), NewFlowClassification(0), NewTSA(1),
	} {
		bench, err := New(app, Options{})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		bench.Collector().BlockSets = true // CoverageCurve reads the block sets
		records, err := bench.RunPackets(pkts, nil)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		s := Summarize(records)
		if s.Packets != 200 || s.MeanInstructions == 0 {
			t.Errorf("%s: summary %+v", app.Name, s)
		}
		occ := InstructionOccurrences(records, 3)
		if occ.Total != 200 || len(occ.Top) == 0 {
			t.Errorf("%s: occurrences %+v", app.Name, occ)
		}
		curve := CoverageCurve(bench, records)
		if len(curve) != bench.BlockMap().NumBlocks() {
			t.Errorf("%s: curve has %d points for %d blocks",
				app.Name, len(curve), bench.BlockMap().NumBlocks())
		}
		if last := curve[len(curve)-1]; last.Coverage < 0.999 {
			t.Errorf("%s: curve tops out at %v", app.Name, last.Coverage)
		}
	}
}

func TestFacadeTraceProfiles(t *testing.T) {
	ps := TraceProfiles()
	if len(ps) != 4 {
		t.Fatalf("%d profiles", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name] = true
	}
	for _, want := range []string{"MRA", "COS", "ODU", "LAN"} {
		if !names[want] {
			t.Errorf("profile %s missing", want)
		}
	}
}

func TestFacadeGenerateTracePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("GenerateTrace with unknown profile did not panic")
		}
	}()
	GenerateTrace("BOGUS", 1)
}

func TestFacadeGenerateRouteTable(t *testing.T) {
	tbl := GenerateRouteTable(500, 3)
	if len(tbl.Entries) != 500 {
		t.Fatalf("%d entries", len(tbl.Entries))
	}
}

func TestFacadeTraceFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	// LAN traffic carries no IP options; the TSH format cannot represent
	// optioned packets (its records fix the IP header at 20 bytes).
	pkts := GenerateTrace("LAN", 40)
	for _, name := range []string{"t.pcap", "t.tsh"} {
		path := filepath.Join(dir, name)
		if err := WriteTraceFile(path, pkts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadTraceFile(path, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(pkts) {
			t.Errorf("%s: read %d packets, wrote %d", name, len(got), len(pkts))
		}
		limited, err := ReadTraceFile(path, 5)
		if err != nil || len(limited) != 5 {
			t.Errorf("%s: limited read gave %d, %v", name, len(limited), err)
		}
	}
	if err := WriteTraceFile(filepath.Join(dir, "t.xyz"), pkts); err == nil ||
		!strings.Contains(err.Error(), "format") {
		t.Errorf("unknown extension accepted: %v", err)
	}
	if _, err := ReadTraceFile(filepath.Join(dir, "absent.pcap"), 0); err == nil {
		t.Error("reading a missing file succeeded")
	}
	if _, err := ReadTraceFile(filepath.Join(dir, "t.xyz"), 0); err == nil {
		t.Error("unknown extension accepted on read")
	}
	// Make sure nothing was silently created for the failed write.
	if _, err := os.Stat(filepath.Join(dir, "t.xyz")); err == nil {
		t.Error("failed write left a file behind")
	}
}

func TestFacadeCustomApp(t *testing.T) {
	// The facade must support fully custom applications (the paper's
	// extensibility claim): a byte-counter app written inline.
	app := &App{
		Name: "bytecount",
		Source: `
			.data
total:		.word 0
			.text
			.global process_packet
process_packet:
			la   t0, total
			lw   t1, 0(t0)
			add  t1, t1, a1
			sw   t1, 0(t0)
			mv   a0, a1
			ret
		`,
		Entry: "process_packet",
	}
	bench, err := New(app, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pkts := GenerateTrace("LAN", 50)
	want := uint32(0)
	for _, p := range pkts {
		want += uint32(len(p.Data))
	}
	if _, err := bench.RunPackets(pkts, nil); err != nil {
		t.Fatal(err)
	}
	addr, err := bench.Loader().Symbol("total")
	if err != nil {
		t.Fatal(err)
	}
	if got := bench.Memory().Read32(addr); got != want {
		t.Errorf("total bytes = %d, want %d", got, want)
	}
}

func TestFacadePool(t *testing.T) {
	pkts := GenerateTrace("LAN", 64)
	tbl := RouteTableFromTrace(pkts, 500)
	pool, err := NewPool(NewIPv4Trie(tbl), 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := pool.RunPackets(pkts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(pkts) {
		t.Fatalf("%d records", len(recs))
	}
	s := Summarize(recs)
	if s.MeanInstructions == 0 {
		t.Error("empty records from pool")
	}
}

func TestFacadeVerify(t *testing.T) {
	// A clean custom app verifies without findings.
	ok := &App{Name: "ok", Source: ".global e\ne: lw t0, 0(a0)\nhalt", Entry: "e"}
	ds, err := Verify(ok)
	if err != nil || len(ds) != 0 {
		t.Fatalf("Verify(ok) = %v, %v", ds, err)
	}
	// A program that escapes the text segment is refused by New with a
	// typed error carrying the diagnostics.
	bad := &App{Name: "bad", Source: ".global e\ne: j 0x100000\nhalt", Entry: "e"}
	ds, err = Verify(bad)
	if err != nil || !ds.HasErrors() {
		t.Fatalf("Verify(bad) = %v, %v; want errors", ds, err)
	}
	_, err = New(bad, Options{})
	var verr *VerifyError
	if !errors.As(err, &verr) {
		t.Fatalf("New(bad) = %v; want *VerifyError", err)
	}
	for _, d := range verr.Diags.Errors() {
		if d.Severity != SeverityError {
			t.Errorf("Errors() returned non-error %v", d)
		}
		if d.Line == 0 || d.Check == "" {
			t.Errorf("diagnostic lacks location or check: %+v", d)
		}
	}
	// NoVerify is the escape hatch.
	if _, err := New(bad, Options{NoVerify: true}); err != nil {
		t.Fatalf("NoVerify: %v", err)
	}
}
