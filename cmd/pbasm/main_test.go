package main

import (
	"os"
	"path/filepath"
	"testing"
)

func writeSource(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.s")
	src := `
	.data
v:	.word 1
	.text
	.global e
e:	la  t0, v
	lw  a0, 0(t0)
	beqz a0, done
	addi a0, a0, 1
done:	ret
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunModes runs every mode. None of them verifies (cmd/pbvet is the
// verifier), so a program that jumps out of the text segment still
// assembles and lists.
func TestRunModes(t *testing.T) {
	path := writeSource(t)
	escapes := filepath.Join(t.TempDir(), "escapes.s")
	if err := os.WriteFile(escapes, []byte(".global e\ne: j 0x100000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		path         string
		syms, blocks bool
	}{
		{path, false, false}, {path, true, false}, {path, false, true},
		{escapes, false, false},
	} {
		if err := run(mode.path, mode.syms, mode.blocks); err != nil {
			t.Errorf("mode %+v: %v", mode, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(filepath.Join(t.TempDir(), "absent.s"), false, false); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.s")
	_ = os.WriteFile(bad, []byte("frobnicate a0"), 0o644)
	if err := run(bad, false, false); err == nil {
		t.Error("invalid assembly accepted")
	}
}
