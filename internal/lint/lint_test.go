package lint

import (
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

func check(t *testing.T, src string) []Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return CheckFile(fset, file)
}

func rules(ds []Diagnostic) []string {
	var rs []string
	for _, d := range ds {
		rs = append(rs, d.Rule)
	}
	return rs
}

func TestTelemetrySeriesLiteral(t *testing.T) {
	ds := check(t, `package core

func f(r *Registry) {
	r.Counter("packets_total", "help")
	r.Gauge("busy", "")
	r.Histogram("lat", "", nil)
}
`)
	if len(ds) != 3 {
		t.Fatalf("want 3 findings, got %v", ds)
	}
	for _, d := range ds {
		if d.Rule != "telemetry-series" {
			t.Errorf("rule = %q, want telemetry-series", d.Rule)
		}
		if !strings.Contains(d.Msg, "names.go") {
			t.Errorf("message should point at the constants file: %s", d.Msg)
		}
	}
}

func TestTelemetrySeriesConstantIsClean(t *testing.T) {
	ds := check(t, `package core

func f(r *Registry) {
	r.Counter(telemetry.MetricPacketsProcessed, "help")
	r.Histogram(name, "", nil)
}
`)
	if len(ds) != 0 {
		t.Fatalf("constant-named series flagged: %v", ds)
	}
}

func TestTelemetryPackageExempt(t *testing.T) {
	ds := check(t, `package telemetry

func f(r *Registry) { r.Counter("throwaway", "") }
`)
	if len(ds) != 0 {
		t.Fatalf("telemetry package's own literals flagged: %v", ds)
	}
}

func TestHotPathBuiltinName(t *testing.T) {
	ds := check(t, `package vm

func (c *CPU) runFast() {
	t := time.Now()
	_ = t
}
`)
	if len(ds) != 1 || ds[0].Rule != "hotpath" || !strings.Contains(ds[0].Msg, "time.Now") {
		t.Fatalf("want one hotpath time.Now finding, got %v", ds)
	}
}

func TestHotPathDirective(t *testing.T) {
	ds := check(t, `package core

// dispatch is the inner loop.
//
// pblint:hotpath
func dispatch() {
	b := make([]byte, 16)
	b = append(b, 0)
	_ = fmt.Sprintf("%d", len(b))
	f := func() {}
	defer f()
	go f()
}
`)
	want := 6 // make, append, fmt.Sprintf, closure, defer, go
	if len(ds) != want {
		t.Fatalf("want %d findings, got %d: %v", want, len(ds), ds)
	}
	for _, d := range ds {
		if d.Rule != "hotpath" {
			t.Errorf("rule = %q, want hotpath", d.Rule)
		}
	}
}

// TestCollectorHooksAreHot checks that the statistics collector's block
// hooks are gated by the hotpath rule: the real stats.go lints clean,
// and an allocation planted at the top of Pass and of Mem is flagged.
func TestCollectorHooksAreHot(t *testing.T) {
	raw, err := os.ReadFile("../stats/stats.go")
	if err != nil {
		t.Fatal(err)
	}
	src := string(raw)
	if ds := check(t, src); len(ds) != 0 {
		t.Fatalf("stats.go has findings: %v", ds)
	}
	for _, hook := range []string{"Pass", "Mem"} {
		sig := "func (c *Collector) " + hook + "("
		i := strings.Index(src, sig)
		if i < 0 {
			t.Fatalf("no %s in stats.go", sig)
		}
		i += strings.Index(src[i:], "{\n") + 2
		ds := check(t, src[:i]+"\t_ = make([]byte, 1)\n"+src[i:])
		if len(ds) != 1 || ds[0].Rule != "hotpath" || !strings.Contains(ds[0].Msg, "hot path "+hook+" ") {
			t.Errorf("allocation in Collector.%s: want one hotpath finding, got %v", hook, ds)
		}
	}
}

func TestHotPathClosureBodyNotDoubleCounted(t *testing.T) {
	// The closure's own body belongs to the closure; only the literal
	// itself is the hot function's cost.
	ds := check(t, `package vm

func runFast() {
	f := func() { _ = time.Now() }
	_ = f
}
`)
	if len(ds) != 1 || !strings.Contains(ds[0].Msg, "closure") {
		t.Fatalf("want only the closure finding, got %v", ds)
	}
}

func TestColdFunctionsNotChecked(t *testing.T) {
	ds := check(t, `package core

func report() {
	_ = time.Now()
	_ = fmt.Sprintf("x")
	_ = make([]byte, 1)
}
`)
	if len(ds) != 0 {
		t.Fatalf("cold function flagged: %v", ds)
	}
}

func TestAllowWaiver(t *testing.T) {
	ds := check(t, `package vm

func runFast() {
	defer f() //pblint:allow — once per run
	_ = time.Now()
}
`)
	if len(ds) != 1 || !strings.Contains(ds[0].Msg, "time.Now") {
		t.Fatalf("waiver should suppress only the defer line, got %v", ds)
	}
}

func TestSpanPairingUnclosedReturn(t *testing.T) {
	ds := check(t, `package core

func (b *Bench) processOnce(idx int) error {
	t0 := b.lane.ExecBegin(int64(idx))
	if bad {
		return errFault // leaks the span
	}
	b.lane.ExecEnd(t0, int64(idx), 0, n, v, 0)
	return nil
}
`)
	if len(ds) != 1 || ds[0].Rule != "span-pairing" {
		t.Fatalf("want one span-pairing finding, got %v", ds)
	}
	if !strings.Contains(ds[0].Msg, "ExecEnd") {
		t.Errorf("message should name the missing close: %s", ds[0].Msg)
	}
}

func TestSpanPairingClosedOnEveryReturn(t *testing.T) {
	ds := check(t, `package core

func (b *Bench) processOnce(idx int) error {
	t0 := b.lane.ExecBegin(int64(idx))
	if bad {
		b.lane.ExecEnd(t0, int64(idx), 0, 0, 0, fk)
		return errFault
	}
	b.lane.ExecEnd(t0, int64(idx), 0, n, v, 0)
	return nil
}
`)
	if len(ds) != 0 {
		t.Fatalf("bracketed span flagged: %v", ds)
	}
}

func TestSpanPairingDeferredClose(t *testing.T) {
	ds := check(t, `package core

func run(l *Lane) error {
	t0 := l.ExecBegin(0)
	defer l.ExecEnd(t0, 0, 0, 0, 0, 0)
	if bad {
		return errFault
	}
	return nil
}
`)
	if len(ds) != 0 {
		t.Fatalf("deferred close flagged: %v", ds)
	}
}

func TestSpanPairingFallOffEnd(t *testing.T) {
	ds := check(t, `package core

func record(l *Lane) {
	l.ExecBegin(0)
}
`)
	if len(ds) != 1 || ds[0].Rule != "span-pairing" {
		t.Fatalf("want one span-pairing finding, got %v", ds)
	}
}

func TestSpanPairingWaiver(t *testing.T) {
	ds := check(t, `package core

func abort(l *Lane) error {
	l.ExecBegin(0)
	return errAbort //pblint:allow — FailFast keeps the span open for the flight recorder
}
`)
	if len(ds) != 0 {
		t.Fatalf("waived span leak flagged: %v", ds)
	}
}

func TestSpanPairingPtracePackageExempt(t *testing.T) {
	ds := check(t, `package ptrace

func helper(l *Lane) {
	l.ExecBegin(0)
}
`)
	if len(ds) != 0 {
		t.Fatalf("ptrace package's own calls flagged: %v", ds)
	}
}
