package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperiments(t *testing.T) {
	// Tiny scale keeps this a smoke test; table1 needs no environment.
	if err := run("table1", 0.01, ""); err != nil {
		t.Fatal(err)
	}
	if err := run("fig6", 0.01, ""); err != nil {
		t.Fatal(err)
	}
	if err := run("table4", 0.01, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunFigureWithCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run("fig3", 0.01, dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig3.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if !strings.HasPrefix(lines[0], "packet,IPv4-radix,") {
		t.Errorf("csv header = %q", lines[0])
	}
	if len(lines) < 10 {
		t.Errorf("csv has only %d lines", len(lines))
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run("table99", 1, ""); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestUnknownTraceRejected: the single-trace modes refuse a name that is
// not one of report.TraceNames (trace names are case-sensitive) before
// building the environment, instead of printing empty tables.
func TestUnknownTraceRejected(t *testing.T) {
	if env, err := traceEnv("mra", 10); err == nil || env != nil {
		t.Fatalf("traceEnv(mra) = %v, %v; want no environment and an error", env, err)
	} else if !strings.Contains(err.Error(), "MRA, COS, ODU, LAN") {
		t.Errorf("error %q does not list the valid traces", err)
	}
	for name, mode := range map[string]func() error{
		"hot":     func() error { return runHot("mra", 10, 3) },
		"spans":   func() error { return runSpans("bogus", 10, 3) },
		"profile": func() error { return runProfile("lan", 10, "") },
	} {
		if err := mode(); err == nil {
			t.Errorf("-%s accepted an unknown trace", name)
		}
	}
}

func TestScaled(t *testing.T) {
	if scaled(10000, 0.5) != 5000 {
		t.Error("scaled wrong")
	}
	if scaled(100, 0.0001) != 10 {
		t.Error("scaled floor wrong")
	}
}
