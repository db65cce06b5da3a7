package report

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/route"
	"repro/internal/stats"
	"repro/internal/trace"
)

// testConfig is a scaled-down configuration keeping tests fast while
// exercising every experiment path.
var testConfig = Config{
	TablePackets:       150,
	CoveragePackets:    100,
	VariationPackets:   300,
	FigurePackets:      120,
	RoutePrefixes:      2000,
	SmallRoutePrefixes: 200,
}

// sharedEnv is built once; building traces and tables dominates test time.
var sharedEnv = NewEnv(testConfig)

func TestTable1MatchesPaperInventory(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("Table I has %d rows", len(rows))
	}
	want := []Table1Row{
		{"MRA", "OC-12c (PoS)", 4643333},
		{"COS", "OC-3c (ATM)", 2183310},
		{"ODU", "OC-3c (ATM)", 784278},
		{"LAN", "100Mbps (Ethernet)", 100000},
	}
	for i, w := range want {
		if rows[i] != w {
			t.Errorf("row %d = %+v, want %+v", i, rows[i], w)
		}
	}
	text := FormatTable1(rows)
	for _, frag := range []string{"MRA", "OC-12c", "4643333"} {
		if !strings.Contains(text, frag) {
			t.Errorf("formatted Table I missing %q", frag)
		}
	}
}

func TestMatrixShapeMatchesPaper(t *testing.T) {
	m, err := sharedEnv.RunMatrix(testConfig.TablePackets)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range TraceNames {
		c := m.Cells[tr]
		// Table II shape: radix >> trie, radix > TSA > trie > flow.
		if !(c["IPv4-radix"].MeanInstructions > c["TSA"].MeanInstructions) {
			t.Errorf("%s: radix (%.0f) not above TSA (%.0f)", tr,
				c["IPv4-radix"].MeanInstructions, c["TSA"].MeanInstructions)
		}
		if !(c["TSA"].MeanInstructions > c["IPv4-trie"].MeanInstructions) {
			t.Errorf("%s: TSA not above trie", tr)
		}
		if !(c["IPv4-trie"].MeanInstructions > c["Flow Classification"].MeanInstructions) {
			t.Errorf("%s: trie not above flow", tr)
		}
		// Table III shape: packet accesses are few and similar for all
		// apps; non-packet dominates for radix.
		for _, app := range AppNames {
			if c[app].MeanPacketAcc < 5 || c[app].MeanPacketAcc > 80 {
				t.Errorf("%s/%s: packet accesses %.1f out of expected band",
					tr, app, c[app].MeanPacketAcc)
			}
		}
		if c["IPv4-radix"].MeanNonPacketAcc < 3*c["IPv4-trie"].MeanNonPacketAcc {
			t.Errorf("%s: radix non-packet (%.0f) not >> trie (%.0f)", tr,
				c["IPv4-radix"].MeanNonPacketAcc, c["IPv4-trie"].MeanNonPacketAcc)
		}
	}
	t2 := FormatTable2(m)
	t3 := FormatTable3(m)
	for _, frag := range []string{"Table II", "Average", "IPv4-radix"} {
		if !strings.Contains(t2, frag) {
			t.Errorf("Table II output missing %q", frag)
		}
	}
	if !strings.Contains(t3, "Table III") || !strings.Contains(t3, "/") {
		t.Error("Table III output malformed")
	}
}

func TestTable4Shape(t *testing.T) {
	rows, err := sharedEnv.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("Table IV has %d rows", len(rows))
	}
	byApp := map[string]Table4Row{}
	for _, r := range rows {
		byApp[r.App] = r
		if r.InstrMemSize <= 0 || r.DataMemSize <= 0 {
			t.Errorf("%s has empty footprint: %+v", r.App, r)
		}
	}
	// Paper shape: radix has the largest instruction footprint; the
	// data footprints of radix and flow dwarf the trie's (small table)
	// and TSA's.
	if byApp["IPv4-radix"].InstrMemSize <= byApp["IPv4-trie"].InstrMemSize {
		t.Errorf("radix instr footprint (%d) not above trie (%d)",
			byApp["IPv4-radix"].InstrMemSize, byApp["IPv4-trie"].InstrMemSize)
	}
	if byApp["IPv4-radix"].DataMemSize <= byApp["IPv4-trie"].DataMemSize {
		t.Errorf("radix data footprint (%d) not above trie (%d)",
			byApp["IPv4-radix"].DataMemSize, byApp["IPv4-trie"].DataMemSize)
	}
	text := FormatTable4(rows, testConfig.CoveragePackets)
	if !strings.Contains(text, "Table IV") {
		t.Error("Table IV output malformed")
	}
}

func TestVariationTables(t *testing.T) {
	for _, unique := range []bool{false, true} {
		rows, err := sharedEnv.Variation(unique)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 {
			t.Fatalf("variation table has %d rows", len(rows))
		}
		byApp := map[string]VariationRow{}
		for _, r := range rows {
			byApp[r.App] = r
			if r.Table.Total != testConfig.VariationPackets {
				t.Errorf("%s: total %d", r.App, r.Table.Total)
			}
			if r.Table.Min.Value > r.Table.Max.Value {
				t.Errorf("%s: min %d > max %d", r.App, r.Table.Min.Value, r.Table.Max.Value)
			}
		}
		// The linear applications concentrate: their top-3 occurrences
		// cover nearly all packets (the paper's ~90% observation); radix
		// spreads much more.
		for _, app := range []string{"Flow Classification", "TSA"} {
			if byApp[app].Table.TopPct() < 80 {
				t.Errorf("unique=%v %s: top-3 cover only %.1f%%", unique, app, byApp[app].Table.TopPct())
			}
		}
		if byApp["IPv4-radix"].Table.TopPct() > byApp["TSA"].Table.TopPct() {
			t.Errorf("unique=%v: radix concentrates more than TSA", unique)
		}
		text := FormatVariation(rows, unique, testConfig.VariationPackets)
		if !strings.Contains(text, "Table V") {
			t.Error("variation output malformed")
		}
	}
	// Table VI specific: unique counts vary less than totals for radix.
	totals, _ := sharedEnv.Variation(false)
	uniques, _ := sharedEnv.Variation(true)
	var radixTotal, radixUnique uint64
	for _, r := range totals {
		if r.App == "IPv4-radix" {
			radixTotal = r.Table.Max.Value - r.Table.Min.Value
		}
	}
	for _, r := range uniques {
		if r.App == "IPv4-radix" {
			radixUnique = r.Table.Max.Value - r.Table.Min.Value
		}
	}
	if radixUnique > radixTotal {
		t.Errorf("radix unique-instruction spread (%d) exceeds total spread (%d)",
			radixUnique, radixTotal)
	}
}

func TestFigureSeries(t *testing.T) {
	for _, tc := range []struct {
		name   string
		metric func(*stats.PacketRecord) float64
	}{
		{"fig3 instructions", MetricInstructions},
		{"fig4 packet accesses", MetricPacketAccesses},
		{"fig5 non-packet accesses", MetricNonPacketAccesses},
	} {
		series, err := sharedEnv.FigureSeries(tc.metric)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(series) != 2 {
			t.Fatalf("%s: %d series", tc.name, len(series))
		}
		for _, s := range series {
			if len(s.Values) != testConfig.FigurePackets {
				t.Errorf("%s/%s: %d values", tc.name, s.App, len(s.Values))
			}
		}
		text := FormatSeries(tc.name, "y", series)
		if !strings.Contains(text, "IPv4-radix") || !strings.Contains(text, "*") {
			t.Errorf("%s: plot output malformed", tc.name)
		}
	}
}

func TestFigure3ShapeRadixVariesFlowDoesNot(t *testing.T) {
	series, err := sharedEnv.FigureSeries(MetricInstructions)
	if err != nil {
		t.Fatal(err)
	}
	spread := func(v []float64) float64 {
		lo, hi := v[0], v[0]
		for _, x := range v {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return hi - lo
	}
	if spread(series[0].Values) < 4*spread(series[1].Values) {
		t.Errorf("radix spread (%.0f) not much larger than flow spread (%.0f)",
			spread(series[0].Values), spread(series[1].Values))
	}
}

func TestFigure6Patterns(t *testing.T) {
	patterns, err := sharedEnv.Figure6(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(patterns) != 2 {
		t.Fatalf("%d patterns", len(patterns))
	}
	for _, p := range patterns {
		if len(p.Indices) == 0 || p.Unique == 0 {
			t.Fatalf("%s: empty pattern", p.App)
		}
		if p.Unique > len(p.Indices) {
			t.Errorf("%s: unique %d > total %d", p.App, p.Unique, len(p.Indices))
		}
		// The max index equals unique-1 by construction.
		maxIdx := 0
		for _, i := range p.Indices {
			if i > maxIdx {
				maxIdx = i
			}
		}
		if maxIdx != p.Unique-1 {
			t.Errorf("%s: max index %d, unique %d", p.App, maxIdx, p.Unique)
		}
	}
	// Radix loops (repetition), flow is nearly linear (the paper's
	// Figure 6 observation).
	radix, flw := patterns[0], patterns[1]
	radixRep := float64(len(radix.Indices)) / float64(radix.Unique)
	flowRep := float64(len(flw.Indices)) / float64(flw.Unique)
	if radixRep < flowRep {
		t.Errorf("radix repetition (%.2f) below flow (%.2f)", radixRep, flowRep)
	}
	if flowRep > 1.6 {
		t.Errorf("flow repetition %.2f; expected near-linear execution", flowRep)
	}
	if !strings.Contains(FormatFigure6(patterns), "Figure 6") {
		t.Error("figure 6 output malformed")
	}
}

func TestBlockStatistics(t *testing.T) {
	bs, err := sharedEnv.BlockStatistics()
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 2 {
		t.Fatalf("%d block stats", len(bs))
	}
	for _, s := range bs {
		if len(s.Probabilities) == 0 {
			t.Fatalf("%s: no blocks", s.App)
		}
		// Figure 7 shape: at least one always-executed block; probabilities
		// within [0, 1].
		sawOne := false
		for b, p := range s.Probabilities {
			if p < 0 || p > 1 {
				t.Errorf("%s block %d: probability %v", s.App, b, p)
			}
			if p == 1 {
				sawOne = true
			}
		}
		if !sawOne {
			t.Errorf("%s: no block executed by every packet", s.App)
		}
		// Figure 8 shape: monotone curve reaching 1.0; the 90%% knee is
		// well below the total block count (fast-path insight).
		last := s.Curve[len(s.Curve)-1]
		if last.Coverage < 0.999 {
			t.Errorf("%s: full store covers only %.3f", s.App, last.Coverage)
		}
		if s.Blocks90 <= 0 || s.Blocks90 > len(s.Curve) {
			t.Errorf("%s: Blocks90 = %d", s.App, s.Blocks90)
		}
	}
	if !strings.Contains(FormatFigure7(bs), "Figure 7") {
		t.Error("figure 7 output malformed")
	}
	if !strings.Contains(FormatFigure8(bs), "Figure 8") {
		t.Error("figure 8 output malformed")
	}
}

func TestFigure9Sequences(t *testing.T) {
	seqs, err := sharedEnv.Figure9(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 2 {
		t.Fatalf("%d sequences", len(seqs))
	}
	for _, s := range seqs {
		if len(s.Instr) == 0 {
			t.Fatalf("%s: empty sequence", s.App)
		}
		pkt, non := 0, 0
		for _, p := range s.Packet {
			if p {
				pkt++
			} else {
				non++
			}
		}
		if pkt == 0 || non == 0 {
			t.Errorf("%s: degenerate access mix pkt=%d non=%d", s.App, pkt, non)
		}
	}
	// The paper's Figure 9 observation: radix touches packet memory
	// early (header parse and verification) and then operates on
	// non-packet data (the tree walk). The only late packet accesses are
	// the handful of TTL/checksum rewrite bytes, so the bulk of packet
	// accesses must fall in the first third of the execution.
	radix := seqs[0]
	maxInstr := 0
	for _, n := range radix.Instr {
		if n > maxInstr {
			maxInstr = n
		}
	}
	early, total := 0, 0
	for i, isPkt := range radix.Packet {
		if !isPkt {
			continue
		}
		total++
		if radix.Instr[i] <= maxInstr/3 {
			early++
		}
	}
	if total == 0 || float64(early)/float64(total) < 0.7 {
		t.Errorf("radix: only %d of %d packet-memory accesses in the first third; expected front-loaded",
			early, total)
	}
	if !strings.Contains(FormatFigure9(seqs), "Figure 9") {
		t.Error("figure 9 output malformed")
	}
}

func TestEnvDeterminism(t *testing.T) {
	e2 := NewEnv(testConfig)
	m1, err := sharedEnv.RunMatrix(50)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := e2.RunMatrix(50)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range TraceNames {
		for _, app := range AppNames {
			if m1.Cells[tr][app] != m2.Cells[tr][app] {
				t.Errorf("%s/%s differs across identical environments", tr, app)
			}
		}
	}
}

// serialTrace is the named trace as the serial construction builds it:
// Generate's first n packets, renumbered and then scrambled unless the
// trace is LAN.
func serialTrace(t testing.TB, name string, n int) []*trace.Packet {
	t.Helper()
	prof, err := gen.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	pkts := gen.Generate(prof, n)
	if name != "LAN" {
		gen.RenumberNLANR(pkts)
		gen.ScrambleAddrs(pkts)
	}
	return pkts
}

// TestEnvByteIdentical pins a hash of the serial construction of
// NewEnv(testConfig): every packet of the four traces, each generated to
// the longest count the config reads, in TraceNames order, then the
// entries of the Env's Table and SmallTable. NewEnv builds the traces
// concurrently and keeps a prefix of each, so at several GOMAXPROCS
// values the test checks the hash over the Env's tables and checks that
// each Env trace is the construction's prefix of Config.keep packets.
// The hash was recorded from the serial generator. If this test fails,
// the environment every experiment reads has changed — fix the
// generation order, never re-pin the hash.
func TestEnvByteIdentical(t *testing.T) {
	const want = "d5ab53f1012da72bbe40737358851ade"
	cfg := testConfig.withDefaults()
	maxLen := max(cfg.TablePackets, cfg.CoveragePackets, cfg.VariationPackets, cfg.FigurePackets)
	full := make(map[string][]*trace.Packet, len(TraceNames))
	for _, name := range TraceNames {
		full[name] = serialTrace(t, name, maxLen)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		e := NewEnv(testConfig)
		h := sha256.New()
		for _, name := range TraceNames {
			pkts := full[name]
			fmt.Fprintf(h, "%s %d\n", name, len(pkts))
			for _, p := range pkts {
				fmt.Fprintf(h, "%d.%06d %d %d ", p.Sec, p.Usec, p.WireLen, len(p.Data))
				h.Write(p.Data)
			}
			kept := e.traces[name]
			if len(kept) != cfg.keep(name) {
				t.Errorf("GOMAXPROCS=%d: %s holds %d packets, want %d", procs, name, len(kept), cfg.keep(name))
			}
			for j, p := range kept[:min(len(kept), len(pkts))] {
				if !reflect.DeepEqual(*p, *pkts[j]) {
					t.Fatalf("GOMAXPROCS=%d: %s packet %d differs from the serial construction's", procs, name, j)
				}
			}
		}
		for _, tbl := range []*route.Table{e.Table, e.SmallTable} {
			fmt.Fprintf(h, "table %d\n", len(tbl.Entries))
			for _, en := range tbl.Entries {
				fmt.Fprintf(h, "%08x/%d>%d ", en.Prefix, en.Len, en.NextHop)
			}
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)[:16]); got != want {
			t.Errorf("GOMAXPROCS=%d: environment hash = %s, want %s (traces or route tables changed!)", procs, got, want)
		}
	}
}

// TestEnvTraceLengths pins how many packets each trace keeps: the most
// any experiment reads of it, with COS alone serving Tables V and VI.
// pbreport's single-trace modes build Config{TablePackets: n}, so every
// trace must hold n packets whatever n is.
func TestEnvTraceLengths(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  Config
		want map[string]int
	}{
		{"default", Config{}, map[string]int{"MRA": 10_000, "COS": 100_000, "ODU": 10_000, "LAN": 10_000}},
		{"testConfig", testConfig, map[string]int{"MRA": 150, "COS": 300, "ODU": 150, "LAN": 150}},
		{"traceEnv 10", Config{TablePackets: 10}, map[string]int{"MRA": 1_000, "COS": 100_000, "ODU": 1_000, "LAN": 1_000}},
		{"traceEnv 5000", Config{TablePackets: 5000}, map[string]int{"MRA": 5_000, "COS": 100_000, "ODU": 5_000, "LAN": 5_000}},
		{"traceEnv 150000", Config{TablePackets: 150_000}, map[string]int{"MRA": 150_000, "COS": 150_000, "ODU": 150_000, "LAN": 150_000}},
	} {
		cfg := c.cfg.withDefaults()
		for _, name := range TraceNames {
			if got := cfg.keep(name); got != c.want[name] {
				t.Errorf("%s: %s keeps %d packets, want %d", c.name, name, got, c.want[name])
			}
		}
	}
	// NewEnv holds exactly the kept packets. A scaled config of the
	// traceEnv shape, TablePackets above every other count, keeps it on
	// every trace; the other one keeps VariationPackets of COS.
	small := Config{CoveragePackets: 20, VariationPackets: 300, FigurePackets: 20, RoutePrefixes: 200, SmallRoutePrefixes: 20}
	for _, tp := range []int{100, 400} {
		cfg := small
		cfg.TablePackets = tp
		e := NewEnv(cfg)
		for _, name := range TraceNames {
			want := tp
			if name == "COS" {
				want = max(tp, 300)
			}
			if got := len(e.Trace(name, 1_000)); got != want {
				t.Errorf("TablePackets %d: Trace(%s, 1000) holds %d packets, want %d", tp, name, got, want)
			}
		}
	}
}

// TestTraceClipsCapacity: appending to a returned prefix leaves the
// Env's later packets alone.
func TestTraceClipsCapacity(t *testing.T) {
	e := NewEnv(testConfig)
	orig := slices.Clone(e.traces["MRA"])
	pkts := e.Trace("MRA", 10)
	if cap(pkts) != 10 {
		t.Errorf("Trace(MRA, 10) has capacity %d, want 10", cap(pkts))
	}
	pkts = append(pkts, &trace.Packet{Data: []byte{0x45}})
	pkts[10].Sec = 7
	if !slices.Equal(e.traces["MRA"], orig) {
		t.Error("appending to a prefix overwrote the Env's packets")
	}
	if got := e.Trace("MRA", 11); got[10] != orig[10] {
		t.Errorf("Trace(MRA, 11)[10] = %+v, want the Env's packet %+v", got[10], orig[10])
	}
}

// TestUnknownTraceIsAnError: the single-run experiments reject a trace
// name outside TraceNames instead of running zero packets.
func TestUnknownTraceIsAnError(t *testing.T) {
	for name, run := range map[string]func(string) error{
		"Run": func(tr string) error {
			_, _, err := sharedEnv.Run("TSA", tr, 10, core.Options{})
			return err
		},
		"Profile": func(tr string) error {
			_, err := sharedEnv.Profile("TSA", tr, 10)
			return err
		},
		"HotBlocks": func(tr string) error {
			_, err := sharedEnv.HotBlocks("TSA", tr, 10, 3)
			return err
		},
		"Spans": func(tr string) error {
			_, err := sharedEnv.Spans("TSA", tr, 10, 3, spanClock())
			return err
		},
	} {
		if err := run("mra"); err == nil || !strings.Contains(err.Error(), `unknown trace "mra"`) {
			t.Errorf("%s(mra) error = %v, want unknown trace", name, err)
		}
		if err := run("MRA"); err != nil {
			t.Errorf("%s(MRA): %v", name, err)
		}
	}
}

func TestMicroarchRows(t *testing.T) {
	rows, err := sharedEnv.Microarch(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		sum := r.ALUFrac + r.LoadFrac + r.StoreFrac + r.BranchFrac
		if sum <= 0.5 || sum > 1.0001 {
			t.Errorf("%s: class fractions sum to %v", r.App, sum)
		}
		if r.CPI < 1 || r.CPI > 10 {
			t.Errorf("%s: CPI %v out of band", r.App, r.CPI)
		}
		// The paper's memory-hierarchy claim: tiny instruction working
		// sets mean near-zero icache misses for every application.
		if r.ICacheMissRate > 0.02 {
			t.Errorf("%s: icache miss rate %v", r.App, r.ICacheMissRate)
		}
	}
	text := FormatMicroarch(rows, 100)
	if !strings.Contains(text, "CPI") || !strings.Contains(text, "IPv4-radix") {
		t.Error("microarch table malformed")
	}
}
