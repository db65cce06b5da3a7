package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/trace"
)

// TestRunMatchesGenerate: each shard file holds, byte for byte, its
// round-robin share of gen.Generate's packets written in the file's
// format, after the whole-slice rewrites asked for.
func TestRunMatchesGenerate(t *testing.T) {
	for _, c := range []struct {
		profile, ext       string
		shards             int
		renumber, scramble bool
	}{
		{"MRA", ".pcap", 1, false, false},
		{"COS", ".pcap", 1, true, true},
		{"ODU", ".pcap", 3, true, false},
		{"LAN", ".tsh", 3, false, true},
	} {
		const n = 3000
		prof, err := gen.ProfileByName(c.profile)
		if err != nil {
			t.Fatal(err)
		}
		pkts := gen.Generate(prof, n)
		if c.renumber {
			gen.RenumberNLANR(pkts)
		}
		if c.scramble {
			gen.ScrambleAddrs(pkts)
		}
		format := trace.FormatPcap
		if c.ext == ".tsh" {
			format = trace.FormatTSH
		}
		want := make([]bytes.Buffer, c.shards)
		ws := make([]trace.Writer, c.shards)
		for i := range ws {
			if ws[i], err = trace.NewWriter(&want[i], format); err != nil {
				t.Fatal(err)
			}
		}
		for i, p := range pkts {
			if err := ws[i%c.shards].WritePacket(p); err != nil {
				t.Fatal(err)
			}
		}
		dir := t.TempDir()
		out := filepath.Join(dir, "t"+c.ext)
		if err := run(c.profile, "", out, n, c.shards, c.renumber, c.scramble); err != nil {
			t.Fatal(err)
		}
		for i, name := range shardNames(out, c.shards) {
			got, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i].Bytes()) {
				t.Errorf("%+v: %s differs from Generate's packets (%d bytes, want %d)", c, filepath.Base(name), len(got), want[i].Len())
			}
		}
	}
}

func TestRunWritesBothFormats(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"out.pcap", "out.tsh"} {
		// LAN generates no IP options, so both formats accept it.
		if err := run("LAN", "", filepath.Join(dir, name), 50, 1, false, false); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunPreprocessing(t *testing.T) {
	dir := t.TempDir()
	if err := run("MRA", "", filepath.Join(dir, "m.pcap"), 20, 1, true, true); err != nil {
		t.Errorf("renumber+scramble: %v", err)
	}
}

// TestRunSharded checks round-robin sharding: the shard files together
// hold every packet, and a timestamp-merged replay reproduces the
// unsharded trace exactly.
func TestRunSharded(t *testing.T) {
	dir := t.TempDir()
	if err := run("LAN", "", filepath.Join(dir, "whole.pcap"), 60, 1, false, false); err != nil {
		t.Fatal(err)
	}
	if err := run("LAN", "", filepath.Join(dir, "sh.pcap"), 60, 3, false, false); err != nil {
		t.Fatal(err)
	}
	var shards []trace.Reader
	for i := 0; i < 3; i++ {
		r, err := trace.OpenPcap(filepath.Join(dir, "sh-"+string(rune('0'+i))+".pcap"))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		defer r.Close()
		shards = append(shards, r)
	}
	merged, err := trace.ReadAll(trace.NewMergeReader(shards...), 0)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := trace.OpenPcap(filepath.Join(dir, "whole.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	want, err := trace.ReadAll(whole, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != len(want) {
		t.Fatalf("merged %d packets, want %d", len(merged), len(want))
	}
	for i := range want {
		if merged[i].Sec != want[i].Sec || merged[i].Usec != want[i].Usec ||
			merged[i].WireLen != want[i].WireLen {
			t.Fatalf("packet %d differs after shard+merge round trip", i)
		}
	}

	if err := run("LAN", "", filepath.Join(dir, "z.pcap"), 10, 0, false, false); err == nil {
		t.Error("zero shards accepted")
	}
}

func TestRunWithSpec(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "p.json")
	body := `{"Name": "tiny", "Flows": 20, "NewFlowProb": 0.1, "TCP": 1,
	          "Sizes": [{"Bytes": 64, "Weight": 1}], "AddrBits": 10, "Seed": 9}`
	if err := os.WriteFile(spec, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("", spec, filepath.Join(dir, "t.pcap"), 40, 1, false, false); err != nil {
		t.Fatal(err)
	}
	// Bad specs fail loudly.
	bad := filepath.Join(dir, "bad.json")
	_ = os.WriteFile(bad, []byte(`{"NotAField": 1}`), 0o644)
	if err := run("", bad, filepath.Join(dir, "u.pcap"), 10, 1, false, false); err == nil {
		t.Error("unknown spec field accepted")
	}
	if err := run("", filepath.Join(dir, "absent.json"), filepath.Join(dir, "v.pcap"), 10, 1, false, false); err == nil {
		t.Error("missing spec accepted")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("MRA", "", "", 10, 1, false, false); err == nil || !strings.Contains(err.Error(), "required") {
		t.Errorf("missing output accepted: %v", err)
	}
	if err := run("NOPE", "", t.TempDir()+"/x.pcap", 10, 1, false, false); err == nil {
		t.Error("unknown profile accepted")
	}
	if err := run("LAN", "", "/nonexistent-dir/x.pcap", 10, 1, false, false); err == nil {
		t.Error("unwritable path accepted")
	}
}

// TestTSHRefusesIPOptions: TSH records hold a 20-byte IP header, so a
// profile that gives packets IP options fails with an error naming them,
// and the failed run leaves no output file or shard behind.
func TestTSHRefusesIPOptions(t *testing.T) {
	for _, shards := range []int{1, 3} {
		dir := t.TempDir()
		err := run("MRA", "", filepath.Join(dir, "m.tsh"), 2000, shards, false, false)
		if err == nil || !strings.Contains(err.Error(), "IP options") {
			t.Errorf("%d shard(s): got %v, want an error naming IP options", shards, err)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("%d shard(s): failed run left %d file(s), first %s", shards, len(left), left[0].Name())
		}
	}
}
