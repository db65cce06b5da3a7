package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update regenerates the golden files instead of comparing against
// them: go test ./cmd/pbvet/ -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenApps are the six bundled applications; pinning pbvet's output
// over them pins the diagnostic surface on realistic inputs.
var goldenApps = []string{"flow", "frag", "ipv4_radix", "ipv4_trie", "payload_scan", "tsa"}

func appSource(app string) string {
	return filepath.Join("..", "..", "internal", "apps", "src", app+".s")
}

// checkGolden compares got against testdata/<name>.golden, or rewrites
// the file under -update. The verifier is deterministic (fixed
// instruction order, sorted diagnostics), so the output is byte-stable.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (rerun with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s output differs from golden file; rerun with -update if the change is intended.\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// TestGoldenAppDiagnostics pins pbvet's diagnostic output over the six
// bundled applications. All six must verify without error-severity findings
// (exit 0): a new error here means a translator-visible regression in
// either the apps or the analysis.
func TestGoldenAppDiagnostics(t *testing.T) {
	for _, app := range goldenApps {
		t.Run(app, func(t *testing.T) {
			var out, errb bytes.Buffer
			if status := run([]string{appSource(app)}, &out, &errb); status != 0 {
				t.Fatalf("status = %d, want 0; stderr: %s\nstdout:\n%s", status, errb.String(), out.String())
			}
			checkGolden(t, app+"_diags", out.String())
		})
	}
}
