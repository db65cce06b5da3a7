package apps

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/analysis"
	"repro/internal/anon"
	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/microarch"
	"repro/internal/npmodel"
	"repro/internal/packet"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/trace"
)

// testTrace generates packets plus a routing table covering their
// destinations, the standard experimental setup.
func testTrace(t *testing.T, profile string, n int) ([]*trace.Packet, *route.Table) {
	t.Helper()
	prof, err := gen.ProfileByName(profile)
	if err != nil {
		t.Fatal(err)
	}
	pkts := gen.Generate(prof, n)
	dsts := make([]uint32, 0, len(pkts))
	for _, p := range pkts {
		h, err := packet.ParseIPv4(p.Data)
		if err != nil {
			t.Fatal(err)
		}
		dsts = append(dsts, h.Dst)
	}
	tbl := route.TableFromTraffic(dsts, 0, 16, 7)
	return pkts, tbl
}

func newBench(t *testing.T, app *core.App, opts core.Options) *core.Bench {
	t.Helper()
	b, err := core.New(app, opts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestIPv4RadixMatchesNativeLookup(t *testing.T) {
	pkts, tbl := testTrace(t, "MRA", 300)
	tree := route.NewRadixTree(tbl)
	b := newBench(t, IPv4Radix(tbl), core.Options{})
	for i, p := range pkts {
		h, _ := packet.ParseIPv4(p.Data)
		res, err := b.ProcessPacket(p)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		wantHop, ok := tree.Lookup(h.Dst)
		if !ok || h.TTL <= 1 {
			wantHop = 0 // RFC 1812: expired packets go to the slow path
		}
		if res.Verdict != wantHop {
			t.Fatalf("packet %d (dst %v): verdict %d, native %d",
				i, packet.V4Addr(h.Dst), res.Verdict, wantHop)
		}
		if wantHop != 0 {
			// Forwarded: TTL decremented, checksum still valid.
			out := b.PacketBytes(h.HeaderLen())
			if out[8] != h.TTL-1 {
				t.Fatalf("packet %d: TTL %d, want %d", i, out[8], h.TTL-1)
			}
			if !packet.VerifyChecksum(out) {
				t.Fatalf("packet %d: checksum invalid after forwarding", i)
			}
		}
	}
}

func TestIPv4TrieMatchesNativeAndRadix(t *testing.T) {
	pkts, tbl := testTrace(t, "COS", 300)
	lc, err := route.NewLCTrie(tbl)
	if err != nil {
		t.Fatal(err)
	}
	bTrie := newBench(t, IPv4Trie(tbl), core.Options{})
	bRadix := newBench(t, IPv4Radix(tbl), core.Options{})
	for i, p := range pkts {
		h, _ := packet.ParseIPv4(p.Data)
		resT, err := bTrie.ProcessPacket(p)
		if err != nil {
			t.Fatalf("trie packet %d: %v", i, err)
		}
		resR, err := bRadix.ProcessPacket(p)
		if err != nil {
			t.Fatalf("radix packet %d: %v", i, err)
		}
		wantHop, ok := lc.Lookup(h.Dst)
		if !ok || h.TTL <= 1 {
			wantHop = 0
		}
		if resT.Verdict != wantHop {
			t.Fatalf("packet %d: trie verdict %d, native %d", i, resT.Verdict, wantHop)
		}
		// The two forwarding implementations must agree with each other —
		// the paper runs them as alternative implementations of the same
		// function.
		if resT.Verdict != resR.Verdict {
			t.Fatalf("packet %d: trie %d != radix %d", i, resT.Verdict, resR.Verdict)
		}
		if wantHop != 0 {
			out := bTrie.PacketBytes(h.HeaderLen())
			if out[8] != h.TTL-1 || !packet.VerifyChecksum(out) {
				t.Fatalf("packet %d: trie header rewrite wrong", i)
			}
		}
	}
}

func TestFlowClassificationMatchesNative(t *testing.T) {
	pkts, _ := testTrace(t, "ODU", 500)
	b := newBench(t, FlowClassification(flow.DefaultBuckets), core.Options{})
	native := flow.NewTable(flow.DefaultBuckets)
	for i, p := range pkts {
		res, err := b.ProcessPacket(p)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		isNew := native.Classify(mustTuple(t, p), len(p.Data))
		want := uint32(FlowVerdictExisting)
		if isNew {
			want = FlowVerdictNew
		}
		if res.Verdict != want {
			t.Fatalf("packet %d: verdict %d, native %v", i, res.Verdict, isNew)
		}
	}
	// The complete simulated table must equal the native table.
	simFlows, err := ReadFlowTable(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(simFlows) != native.NumFlows() {
		t.Fatalf("simulated table has %d flows, native %d", len(simFlows), native.NumFlows())
	}
	native.Flows(func(ft packet.FiveTuple, st flow.Stat) {
		got, ok := simFlows[ft]
		if !ok {
			t.Fatalf("flow %v missing from simulated table", ft)
		}
		if got != st {
			t.Fatalf("flow %v: simulated %+v, native %+v", ft, got, st)
		}
	})
}

func mustTuple(t *testing.T, p *trace.Packet) packet.FiveTuple {
	t.Helper()
	ft, err := packet.ExtractFiveTuple(p.Data)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestTSAMatchesNative(t *testing.T) {
	const key = 0xBEEF
	pkts, _ := testTrace(t, "LAN", 300)
	b := newBench(t, TSAApp(key), core.Options{})
	native := anon.NewTSA(key)
	for i, p := range pkts {
		h, _ := packet.ParseIPv4(p.Data)
		res, err := b.ProcessPacket(p)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if res.Verdict != 1 {
			t.Fatalf("packet %d: verdict %d", i, res.Verdict)
		}
		src, dst := ReadAnonymizedAddrs(b)
		if want := native.Anonymize(h.Src); src != want {
			t.Fatalf("packet %d: src anonymized to %#x, native %#x", i, src, want)
		}
		if want := native.Anonymize(h.Dst); dst != want {
			t.Fatalf("packet %d: dst anonymized to %#x, native %#x", i, dst, want)
		}
		// The header collection area must hold the (anonymized) header.
		collectAddr, err := b.Loader().Symbol("collect")
		if err != nil {
			t.Fatal(err)
		}
		collected := b.Memory().ReadBytes(collectAddr, 20)
		hdr := b.PacketBytes(20)
		for j := range collected {
			if collected[j] != hdr[j] {
				t.Fatalf("packet %d: collected header byte %d = %#x, packet %#x",
					i, j, collected[j], hdr[j])
			}
		}
	}
}

func TestRFC1812Drops(t *testing.T) {
	_, tbl := testTrace(t, "MRA", 50)
	good := func() []byte {
		h := packet.IPv4Header{Version: 4, IHL: 5, TTL: 64,
			Protocol: packet.ProtoUDP, Src: 0x0A000001,
			Dst: tbl.Entries[0].Prefix | 1, TotalLen: 28}
		b := make([]byte, 28)
		h.MarshalInto(b)
		return b
	}
	for _, appCtor := range []func() *core.App{
		func() *core.App { return IPv4Radix(tbl) },
		func() *core.App { return IPv4Trie(tbl) },
	} {
		b := newBench(t, appCtor(), core.Options{})
		// A clean packet routes (the table covers its destination).
		res, err := b.ProcessPacket(&trace.Packet{Data: good()})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict == 0 {
			t.Fatal("clean routed packet dropped")
		}

		cases := []struct {
			name   string
			mutate func([]byte) []byte
		}{
			{"short packet", func(p []byte) []byte { return p[:16] }},
			{"not ipv4", func(p []byte) []byte { p[0] = 0x65; return p }},
			{"bad ihl", func(p []byte) []byte { p[0] = 0x44; return p }},
			{"bad checksum", func(p []byte) []byte { p[10] ^= 0xFF; return p }},
			{"ttl zero", func(p []byte) []byte {
				p[8] = 0
				fixChecksum(p)
				return p
			}},
			{"ttl one", func(p []byte) []byte {
				p[8] = 1
				fixChecksum(p)
				return p
			}},
		}
		for _, c := range cases {
			res, err := b.ProcessPacket(&trace.Packet{Data: c.mutate(good())})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if res.Verdict != 0 {
				t.Errorf("%s: verdict %d, want drop", c.name, res.Verdict)
			}
		}
	}
}

func fixChecksum(p []byte) {
	p[10], p[11] = 0, 0
	cs := packet.Checksum(p[:20])
	binary.BigEndian.PutUint16(p[10:], cs)
}

func TestUnroutedDestinationDrops(t *testing.T) {
	tbl := &route.Table{}
	_ = tbl.Add(0x0A000000, 8, 3)
	for _, app := range []*core.App{IPv4Radix(tbl), IPv4Trie(tbl)} {
		b := newBench(t, app, core.Options{})
		h := packet.IPv4Header{Version: 4, IHL: 5, TTL: 64,
			Protocol: packet.ProtoUDP, Src: 1, Dst: 0xC0000001, TotalLen: 28}
		buf := make([]byte, 28)
		h.MarshalInto(buf)
		res, err := b.ProcessPacket(&trace.Packet{Data: buf})
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != 0 {
			t.Errorf("%s: unrouted packet forwarded to %d", app.Name, res.Verdict)
		}
		// Dropped packets must not be modified.
		out := b.PacketBytes(20)
		if out[8] != 64 {
			t.Errorf("%s: dropped packet's TTL was modified", app.Name)
		}
	}
}

// TestWorkloadShape checks the paper's headline ordering (Table II):
// IPv4-radix executes by far the most instructions per packet, TSA is
// second, and IPv4-trie and Flow Classification are cheap; and radix
// shows much higher variation than the linear applications.
func TestWorkloadShape(t *testing.T) {
	pkts, tbl := testTrace(t, "MRA", 400)
	means := make(map[string]float64)
	spreads := make(map[string]uint64)
	for _, app := range All(tbl, flow.DefaultBuckets, 42) {
		b := newBench(t, app, core.Options{})
		recs, err := b.RunPackets(pkts, nil)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		s := stats.Summarize(recs)
		means[app.Name] = s.MeanInstructions
		var lo, hi uint64 = 1 << 62, 0
		for _, r := range recs {
			if r.Instructions < lo {
				lo = r.Instructions
			}
			if r.Instructions > hi {
				hi = r.Instructions
			}
		}
		spreads[app.Name] = hi - lo
		t.Logf("%-20s mean=%.0f min=%d max=%d", app.Name, s.MeanInstructions, lo, hi)
	}
	if !(means["IPv4-radix"] > means["TSA"]) {
		t.Errorf("radix (%.0f) not above TSA (%.0f)", means["IPv4-radix"], means["TSA"])
	}
	if !(means["TSA"] > means["IPv4-trie"]) {
		t.Errorf("TSA (%.0f) not above trie (%.0f)", means["TSA"], means["IPv4-trie"])
	}
	if !(means["IPv4-trie"] > means["Flow Classification"]) {
		t.Errorf("trie (%.0f) not above flow (%.0f)", means["IPv4-trie"], means["Flow Classification"])
	}
	// Radix varies strongly (routing-table-dependent), TSA is nearly
	// constant (strictly linear code path).
	if spreads["IPv4-radix"] < 50 {
		t.Errorf("radix spread %d too small; expected strong variation", spreads["IPv4-radix"])
	}
	if spreads["TSA"] > 40 {
		t.Errorf("TSA spread %d too large; the paper reports near-constant cost", spreads["TSA"])
	}
}

// TestPacketMemoryAccessesNearConstant mirrors Figure 4: accesses to
// packet memory hardly vary across packets.
func TestPacketMemoryAccessesNearConstant(t *testing.T) {
	pkts, tbl := testTrace(t, "MRA", 200)
	b := newBench(t, IPv4Radix(tbl), core.Options{})
	recs, err := b.RunPackets(pkts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var lo, hi uint64 = 1 << 62, 0
	for _, r := range recs {
		a := r.PacketAccesses()
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	if hi == 0 {
		t.Fatal("no packet memory accesses recorded")
	}
	if hi-lo > 12 {
		t.Errorf("packet accesses vary from %d to %d; expected near-constant", lo, hi)
	}
	// Roughly the paper's magnitude (18-32 per packet).
	if lo < 10 || hi > 60 {
		t.Errorf("packet accesses [%d, %d] far from the paper's 18-32 range", lo, hi)
	}
}

// TestNonPacketDominatesForRadix mirrors Table III: non-packet memory is
// used much more heavily than packet memory for table-driven apps.
func TestNonPacketDominatesForRadix(t *testing.T) {
	pkts, tbl := testTrace(t, "MRA", 200)
	radix := newBench(t, IPv4Radix(tbl), core.Options{})
	recsR, err := radix.RunPackets(pkts, nil)
	if err != nil {
		t.Fatal(err)
	}
	trie := newBench(t, IPv4Trie(tbl), core.Options{})
	recsT, err := trie.RunPackets(pkts, nil)
	if err != nil {
		t.Fatal(err)
	}
	sr, st := stats.Summarize(recsR), stats.Summarize(recsT)
	if sr.MeanNonPacketAcc <= sr.MeanPacketAcc {
		t.Errorf("radix: non-packet (%.1f) not above packet (%.1f)",
			sr.MeanNonPacketAcc, sr.MeanPacketAcc)
	}
	if sr.MeanNonPacketAcc < 4*st.MeanNonPacketAcc {
		t.Errorf("radix non-packet accesses (%.1f) not far above trie (%.1f)",
			sr.MeanNonPacketAcc, st.MeanNonPacketAcc)
	}
	t.Logf("radix: pkt=%.1f nonpkt=%.1f; trie: pkt=%.1f nonpkt=%.1f",
		sr.MeanPacketAcc, sr.MeanNonPacketAcc, st.MeanPacketAcc, st.MeanNonPacketAcc)
}

func TestFlowVerdictLevels(t *testing.T) {
	// Flow classification has two discrete cost levels (existing vs new
	// flow), visible as two clusters of instruction counts — the paper's
	// "around 156 instructions and 212 instructions" observation.
	pkts, _ := testTrace(t, "COS", 400)
	b := newBench(t, FlowClassification(flow.DefaultBuckets), core.Options{})
	countsByVerdict := map[uint32][]uint64{}
	_, err := b.RunPackets(pkts, func(i int, res core.Result) {
		countsByVerdict[res.Verdict] = append(countsByVerdict[res.Verdict], res.Record.Instructions)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(countsByVerdict[FlowVerdictNew]) == 0 || len(countsByVerdict[FlowVerdictExisting]) == 0 {
		t.Fatal("expected both new and existing flows in the trace")
	}
	meanOf := func(v []uint64) float64 {
		var s uint64
		for _, x := range v {
			s += x
		}
		return float64(s) / float64(len(v))
	}
	newMean := meanOf(countsByVerdict[FlowVerdictNew])
	oldMean := meanOf(countsByVerdict[FlowVerdictExisting])
	if newMean <= oldMean {
		t.Errorf("new-flow cost (%.0f) not above existing-flow cost (%.0f)", newMean, oldMean)
	}
}

func TestAllReturnsFourApps(t *testing.T) {
	_, tbl := testTrace(t, "LAN", 10)
	as := All(tbl, 64, 1)
	if len(as) != 4 {
		t.Fatalf("All returned %d apps", len(as))
	}
	want := []string{"IPv4-radix", "IPv4-trie", "Flow Classification", "TSA"}
	for i, a := range as {
		if a.Name != want[i] {
			t.Errorf("app %d = %s, want %s", i, a.Name, want[i])
		}
	}
}

func TestSlowPathsExecute(t *testing.T) {
	_, tbl := testTrace(t, "MRA", 50)
	dst := tbl.Entries[0].Prefix | 1
	mk := func(mutate func(*packet.IPv4Header)) *trace.Packet {
		h := packet.IPv4Header{Version: 4, IHL: 5, TTL: 64,
			Protocol: packet.ProtoUDP, Src: 0x10000001, Dst: dst, TotalLen: 28}
		if mutate != nil {
			mutate(&h)
		}
		size := int(h.TotalLen)
		b := make([]byte, size)
		h.MarshalInto(b)
		return &trace.Packet{Data: b}
	}

	for _, app := range []*core.App{IPv4Radix(tbl), IPv4Trie(tbl)} {
		b := newBench(t, app, core.Options{})

		// Fragments are forwarded and counted.
		frag := mk(func(h *packet.IPv4Header) { h.Flags |= 1 })
		res, err := b.ProcessPacket(frag)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict == 0 {
			t.Errorf("%s: fragment dropped", app.Name)
		}
		fragAddr, err := b.Loader().Symbol("frag_count")
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Memory().Read32(fragAddr); got != 1 {
			t.Errorf("%s: frag_count = %d, want 1", app.Name, got)
		}

		// Options are walked; the packet still forwards.
		opt := mk(func(h *packet.IPv4Header) {
			h.IHL = 6
			h.Options = []byte{1, 1, 1, 0}
			h.TotalLen += 4
		})
		res, err = b.ProcessPacket(opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict == 0 {
			t.Errorf("%s: optioned packet dropped", app.Name)
		}

		// Optioned packets cost more instructions than plain ones.
		plainRes, err := b.ProcessPacket(mk(nil))
		if err != nil {
			t.Fatal(err)
		}
		if res.Record.Instructions <= plainRes.Record.Instructions {
			t.Errorf("%s: optioned packet (%d instr) not above plain (%d)",
				app.Name, res.Record.Instructions, plainRes.Record.Instructions)
		}

		// TTL expiry builds the ICMP time-exceeded stub.
		expired := mk(func(h *packet.IPv4Header) { h.TTL = 1 })
		res, err = b.ProcessPacket(expired)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != 0 {
			t.Errorf("%s: expired packet forwarded", app.Name)
		}
		icmpAddr, err := b.Loader().Symbol("icmp_buf")
		if err != nil {
			t.Fatal(err)
		}
		if got := b.Memory().ReadBytes(icmpAddr, 1)[0]; got != 11 {
			t.Errorf("%s: ICMP type = %d, want 11 (time exceeded)", app.Name, got)
		}

		// Martian sources are dropped.
		for _, src := range []uint32{0x00000001, 0x7F000001, 0xE0000001} {
			bad := mk(func(h *packet.IPv4Header) { h.Src = src })
			res, err := b.ProcessPacket(bad)
			if err != nil {
				t.Fatal(err)
			}
			if res.Verdict != 0 {
				t.Errorf("%s: martian source %#x forwarded", app.Name, src)
			}
		}
	}
}

// TestRareBlocksAppearInBlockStats checks the Figure 7 signature the
// slow paths create: over a realistic trace some basic blocks execute
// with low probability (the special-case handlers).
func TestRareBlocksAppearInBlockStats(t *testing.T) {
	pkts, tbl := testTrace(t, "MRA", 1500)
	b := newBench(t, IPv4Radix(tbl), core.Options{})
	b.Collector().BlockSets = true
	recs, err := b.RunPackets(pkts, nil)
	if err != nil {
		t.Fatal(err)
	}
	sets := make([][]int, len(recs))
	for i := range recs {
		sets[i] = recs[i].Blocks
	}
	counts := make([]int, b.BlockMap().NumBlocks())
	for _, set := range sets {
		for _, blk := range set {
			counts[blk]++
		}
	}
	rare, never, common := 0, 0, 0
	for _, c := range counts {
		frac := float64(c) / float64(len(recs))
		switch {
		case c == 0:
			never++
		case frac < 0.1:
			rare++
		case frac > 0.9:
			common++
		}
	}
	if rare == 0 {
		t.Error("no rarely-executed blocks; the slow paths never fired on a 1500-packet trace")
	}
	if common == 0 {
		t.Error("no always-executed blocks")
	}
	t.Logf("blocks: %d total, %d common (>90%%), %d rare (<10%%), %d never",
		len(counts), common, rare, never)
}

func TestPayloadScanMatchesNative(t *testing.T) {
	sig := [4]byte{0xDE, 0xAD, 0xBE, 0xEF}
	pkts, _ := testTrace(t, "MRA", 200)
	// Plant the signature in a few payloads, including overlapping and
	// boundary placements.
	plant := func(p *trace.Packet, off int) {
		if off+4 <= len(p.Data) {
			copy(p.Data[off:], sig[:])
		}
	}
	for i := 0; i < len(pkts); i += 17 {
		if len(pkts[i].Data) > 48 {
			plant(pkts[i], 30)
			plant(pkts[i], len(pkts[i].Data)-4)
		}
	}
	b := newBench(t, PayloadScan(sig), core.Options{})
	planted := 0
	for i, p := range pkts {
		res, err := b.ProcessPacket(p)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		want := NativePayloadScan(p.Data, sig)
		if int(res.Verdict) != want {
			t.Fatalf("packet %d: %d matches, native %d", i, res.Verdict, want)
		}
		planted += want
	}
	if planted == 0 {
		t.Fatal("no signatures planted; test is vacuous")
	}
	// The cumulative counter in simulated memory matches.
	addr, err := b.Loader().Symbol("scan_hits")
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Memory().Read32(addr); int(got) != planted {
		t.Errorf("scan_hits = %d, want %d", got, planted)
	}
}

// TestPayloadScanScalesWithSize checks the PPA signature: cost grows
// linearly with payload size and packet-memory accesses dominate —
// the inverse of the header applications' profile.
func TestPayloadScanScalesWithSize(t *testing.T) {
	sig := [4]byte{1, 2, 3, 4}
	b := newBench(t, PayloadScan(sig), core.Options{})
	mk := func(size int) *trace.Packet {
		h := packet.IPv4Header{Version: 4, IHL: 5, TTL: 9,
			Protocol: packet.ProtoUDP, Src: 1, Dst: 2, TotalLen: uint16(size)}
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = byte(i * 7)
		}
		h.MarshalInto(buf)
		return &trace.Packet{Data: buf}
	}
	small, err := b.ProcessPacket(mk(64))
	if err != nil {
		t.Fatal(err)
	}
	large, err := b.ProcessPacket(mk(1500))
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(large.Record.Instructions) / float64(small.Record.Instructions)
	if ratio < 10 {
		t.Errorf("1500B/64B instruction ratio = %.1f; payload app must scale with size", ratio)
	}
	if large.Record.PacketAccesses() <= large.Record.NonPacketAccesses() {
		t.Errorf("payload app not packet-memory dominated: pkt=%d nonpkt=%d",
			large.Record.PacketAccesses(), large.Record.NonPacketAccesses())
	}
}

func TestMicroarchProfileOfRadix(t *testing.T) {
	pkts, tbl := testTrace(t, "MRA", 300)
	b := newBench(t, IPv4Radix(tbl), core.Options{})
	ic, err := microarch.NewCache(4096, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := microarch.NewCache(8192, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	prof := microarch.NewProfiler(ic, dc)
	b.AddTracer(prof)
	recs, err := b.RunPackets(pkts, nil)
	if err != nil {
		t.Fatal(err)
	}
	prof.Flush()

	// The profiler and collector observed the same run.
	var totalInstr uint64
	for _, r := range recs {
		totalInstr += r.Instructions
	}
	if prof.Mix.Total() != totalInstr {
		t.Fatalf("profiler saw %d instructions, collector %d", prof.Mix.Total(), totalInstr)
	}
	// Sanity of the mix for a table-walking application: mostly ALU,
	// a substantial load fraction, very few stores.
	if f := prof.Mix.Frac(microarch.ClassALU); f < 0.4 {
		t.Errorf("ALU fraction %.2f implausibly low", f)
	}
	if f := prof.Mix.Frac(microarch.ClassLoad); f < 0.1 || f > 0.5 {
		t.Errorf("load fraction %.2f out of band", f)
	}
	if f := prof.Mix.Frac(microarch.ClassStore); f > 0.1 {
		t.Errorf("store fraction %.2f too high for forwarding", f)
	}
	// Branch behaviour: the PB32 coding style closes loops with
	// unconditional jumps, so conditional branches are mostly
	// not-taken guards; the bimodal predictor must still learn them.
	if r := prof.Branches.TakenRate(); r <= 0 || r > 0.95 {
		t.Errorf("taken rate %.2f out of band", r)
	}
	if prof.Branches.BimodalAccuracy() < 0.7 {
		t.Errorf("bimodal accuracy %.2f too low", prof.Branches.BimodalAccuracy())
	}
	// The paper's memory-hierarchy observation: packet processing has a
	// tiny instruction working set, so even a 4KB icache barely misses.
	if mr := ic.MissRate(); mr > 0.01 {
		t.Errorf("icache miss rate %.4f; expected near zero for a %dB program",
			mr, b.BlockMap().NumInstructions()*4)
	}
	if prof.CPI() < 1 || prof.CPI() > 5 {
		t.Errorf("CPI %.2f out of band", prof.CPI())
	}
}

// TestPartitionRadixForPipeline exercises the paper's partitioning use
// case end to end: collect per-block dynamic costs from a real run,
// split the application into pipeline stages, and check the resulting
// skew is sane input for the system model.
func TestPartitionRadixForPipeline(t *testing.T) {
	pkts, tbl := testTrace(t, "MRA", 400)
	b := newBench(t, IPv4Radix(tbl), core.Options{Detail: true})
	var seqs [][]int
	for i, p := range pkts {
		if _, err := b.ProcessPacket(p); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		seqs = append(seqs, append([]int(nil), b.Collector().BlockSeq...))
	}
	costs := analysis.BlockCosts(b.BlockMap(), seqs)

	// The hottest block must be inside the tree walk (executed many
	// times per packet), not the straight-line prologue.
	hot := analysis.HotBlocks(costs)
	if len(hot) == 0 {
		t.Fatal("no hot blocks")
	}
	if hot[0].Entries <= uint64(len(pkts)) {
		t.Errorf("hottest block entered %d times over %d packets; expected a loop body",
			hot[0].Entries, len(pkts))
	}

	for _, k := range []int{2, 4, 8} {
		stages, skew, err := analysis.Partition(costs, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(stages) != k {
			t.Errorf("k=%d: got %d stages", k, len(stages))
		}
		if skew < 1 || skew > float64(k) {
			t.Errorf("k=%d: skew %v out of range", k, skew)
		}
		// Feed the measured skew into the pipeline model; it must yield
		// a finite positive throughput below the perfectly balanced one.
		w := npmodel.Workload{InstrPerPacket: 700, PacketAccesses: 34, NonPacketAccesses: 180}
		h := npmodel.DefaultHardware
		real, err := npmodel.Pipeline(w, h, k, skew)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		ideal, err := npmodel.Pipeline(w, h, k, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		if real.PacketsPerSecond <= 0 || real.PacketsPerSecond > ideal.PacketsPerSecond {
			t.Errorf("k=%d: measured-skew throughput %v vs ideal %v",
				k, real.PacketsPerSecond, ideal.PacketsPerSecond)
		}
	}
}

func TestFragMatchesNative(t *testing.T) {
	const mtu = 576
	pkts, _ := testTrace(t, "MRA", 300)
	b := newBench(t, Frag(mtu), core.Options{})
	fragmented, passed, dropped := 0, 0, 0
	for i, p := range pkts {
		res, err := b.ProcessPacket(p)
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		native, nerr := packet.FragmentIPv4(p.Data, mtu)
		switch {
		case nerr != nil:
			// DF violation: the app must drop.
			if res.Verdict != 0 {
				t.Fatalf("packet %d: verdict %d, native refused (%v)", i, res.Verdict, nerr)
			}
			dropped++
		case len(native) == 1:
			if res.Verdict != 1 {
				t.Fatalf("packet %d: verdict %d for a fitting packet", i, res.Verdict)
			}
			passed++
		default:
			if int(res.Verdict) != len(native) {
				t.Fatalf("packet %d: %d fragments, native %d", i, res.Verdict, len(native))
			}
			got, err := ReadFragments(b, len(native))
			if err != nil {
				t.Fatalf("packet %d: %v", i, err)
			}
			for j := range native {
				if !bytes.Equal(got[j], native[j]) {
					t.Fatalf("packet %d fragment %d differs from native\n sim: % x\n nat: % x",
						i, j, got[j], native[j])
				}
			}
			// Fragments must reassemble to the original.
			re, err := packet.ReassembleIPv4(got)
			if err != nil {
				t.Fatalf("packet %d: reassembly: %v", i, err)
			}
			h, _ := packet.ParseIPv4(p.Data)
			if !bytes.Equal(re, p.Data[:h.TotalLen]) {
				t.Fatalf("packet %d: reassembled packet differs from original", i)
			}
			fragmented++
		}
	}
	if fragmented == 0 || passed == 0 {
		t.Fatalf("degenerate mix: %d fragmented, %d passed, %d dropped", fragmented, passed, dropped)
	}
	t.Logf("%d fragmented, %d passed through, %d DF-dropped", fragmented, passed, dropped)
}

func TestFragWorkloadScalesWithSize(t *testing.T) {
	b := newBench(t, Frag(576), core.Options{})
	mk := func(size int) *trace.Packet {
		h := packet.IPv4Header{Version: 4, IHL: 5, TTL: 9,
			Protocol: packet.ProtoUDP, Src: 1, Dst: 2, TotalLen: uint16(size)}
		buf := make([]byte, size)
		for i := range buf {
			buf[i] = byte(i * 3)
		}
		h.MarshalInto(buf)
		return &trace.Packet{Data: buf}
	}
	small, err := b.ProcessPacket(mk(600))
	if err != nil {
		t.Fatal(err)
	}
	big, err := b.ProcessPacket(mk(1500))
	if err != nil {
		t.Fatal(err)
	}
	if small.Verdict != 2 || big.Verdict != 3 {
		t.Fatalf("verdicts %d/%d, want 2/3", small.Verdict, big.Verdict)
	}
	if big.Record.Instructions <= small.Record.Instructions {
		t.Error("fragmenting a bigger packet was not more work")
	}
	// Fragmentation writes heavily to non-packet memory (the output
	// area) — a write-dominated profile unlike every other app.
	if big.Record.NonPacketWrites <= big.Record.NonPacketReads {
		t.Errorf("frag not write-dominated: %d writes, %d reads",
			big.Record.NonPacketWrites, big.Record.NonPacketReads)
	}
}
