package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// The test binary re-executes itself with TRACE_RUN_MAIN=1 so main() runs
// exactly as shipped, flag parsing and exit codes included.
func TestMain(m *testing.M) {
	if os.Getenv("TRACE_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestFaultSummaryGolden pins the summary of the canned-fault point byte
// for byte: the Eq. 2 split, the communication matrix and the critical
// path, which carries the respawned rank's reboot stall. Only the host
// wall-time line is dropped, since it measures the host. Rewrite with
// `go test ./cmd/trace -run TestFaultSummaryGolden -update`.
func TestFaultSummaryGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-alg", "matmul", "-q", "16", "-c", "1", "-n", "64",
		"-faults", "-selfcheck", "-out", filepath.Join(t.TempDir(), "trace.json"))
	cmd.Env = append(os.Environ(), "TRACE_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("trace failed: %v\n%s", err, out)
	}
	var kept []string
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if !strings.HasPrefix(line, "host wall time ") {
			kept = append(kept, line)
		}
	}
	got := strings.Join(kept, "")
	path := filepath.Join("testdata", "faults.golden")
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
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}
