package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestVetReportsFindings is the CLI face of the issue's acceptance
// scenario: three defects, three located diagnostics, exit status 1.
func TestVetReportsFindings(t *testing.T) {
	path := writeTemp(t, "bad.s", `        .global process_packet
process_packet:
        add  a2, t2, zero
        j    0x100000
        halt
`)
	var out, errb bytes.Buffer
	status := run([]string{path}, &out, &errb)
	if status != 1 {
		t.Fatalf("status = %d, want 1; stderr: %s", status, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 diagnostics, got %d:\n%s", len(lines), out.String())
	}
	for _, want := range []string{
		":3: warning: register t2 may be used before it is set [uninit-reg]",
		":4: error: jump target 0x100000 is outside the text segment",
		":5: warning: unreachable code",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestVetCleanFile exits 0 with no output for a clean program.
func TestVetCleanFile(t *testing.T) {
	path := writeTemp(t, "ok.s", `        .global e
e:      lw t0, 0(a0)
        halt
`)
	var out, errb bytes.Buffer
	if status := run([]string{path}, &out, &errb); status != 0 {
		t.Fatalf("status = %d, want 0; out: %s", status, out.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean file produced output:\n%s", out.String())
	}
}

// TestVetWarningsDoNotFail: warnings print but exit 0.
func TestVetWarningsDoNotFail(t *testing.T) {
	path := writeTemp(t, "warn.s", `        .global e
e:      add a0, t0, zero
        halt
`)
	var out, errb bytes.Buffer
	if status := run([]string{path}, &out, &errb); status != 0 {
		t.Fatalf("status = %d, want 0", status)
	}
	if !strings.Contains(out.String(), "uninit-reg") {
		t.Errorf("warning not printed:\n%s", out.String())
	}
}

// TestVetDot prints a Graphviz graph.
func TestVetDot(t *testing.T) {
	path := writeTemp(t, "g.s", `        .global e
e:      beqz a0, out
        addi a0, zero, 2
out:    halt
`)
	var out, errb bytes.Buffer
	if status := run([]string{"-dot", path}, &out, &errb); status != 0 {
		t.Fatalf("status = %d, want 0; stderr: %s", status, errb.String())
	}
	if !strings.Contains(out.String(), "digraph cfg") {
		t.Errorf("no dot output:\n%s", out.String())
	}
}

// TestVetEntryFlag verifies from an explicit entry symbol.
func TestVetEntryFlag(t *testing.T) {
	src := `main:   halt
other:  halt
`
	path := writeTemp(t, "e.s", src)
	var out, errb bytes.Buffer
	if status := run([]string{"-entry", "main", path}, &out, &errb); status != 0 {
		t.Fatalf("status = %d, want 0", status)
	}
	if !strings.Contains(out.String(), "unreachable") {
		t.Errorf("expected unreachable warning for 'other':\n%s", out.String())
	}
	if status := run([]string{"-entry", "nope", path}, &out, &errb); status != 1 {
		t.Fatal("undefined entry symbol must fail")
	}
	errb.Reset()
	if status := run([]string{"-dot", "-entry", "nope", path}, &out, &errb); status != 1 {
		t.Fatalf("-dot with an undefined entry symbol: status = %d, want 1", status)
	}
	if want := path + `: error: entry symbol "nope" is not defined [entry]`; !strings.Contains(errb.String(), want) {
		t.Errorf("-dot stderr missing %q:\n%s", want, errb.String())
	}
}

// TestVetBadUsage: missing files and unassemblable input are usage
// errors (status 2), distinct from verification failures.
func TestVetBadUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if status := run(nil, &out, &errb); status != 2 {
		t.Errorf("no-args status = %d, want 2", status)
	}
	if status := run([]string{filepath.Join(t.TempDir(), "missing.s")}, &out, &errb); status != 2 {
		t.Errorf("missing-file status = %d, want 2", status)
	}
	bad := writeTemp(t, "bad.s", "frobnicate a0\n")
	if status := run([]string{bad}, &out, &errb); status != 2 {
		t.Errorf("assembly-error status = %d, want 2", status)
	}
}
