package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"perfscale/internal/analytics"
)

// The test binary re-executes itself with SCALEDIFF_RUN_MAIN=1 so main()
// runs exactly as shipped, flag parsing and exit codes included.
func TestMain(m *testing.M) {
	if os.Getenv("SCALEDIFF_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runScalediff(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SCALEDIFF_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("scalediff %v did not run: %v\n%s", args, err, out)
		}
		code = ee.ExitCode()
	}
	return string(out), code
}

// TestDegradedPhaseNamedBottleneck is the acceptance-criterion scenario on
// the CLI: a fault-plan-slowed shift phase must be named as the scaling
// bottleneck.
func TestDegradedPhaseNamedBottleneck(t *testing.T) {
	out, code := runScalediff(t, "-alg", "matmul", "-n", "64", "-q", "4",
		"-degrade", "multiply-shift", "-degrade-beta", "50")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "scaling bottleneck: multiply-shift") {
		t.Fatalf("degraded phase not named:\n%s", out)
	}
}

func TestStrongScalingDiff(t *testing.T) {
	out, code := runScalediff(t, "-alg", "matmul", "-n", "96", "-q", "4", "-c", "1", "-c2", "4")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "p=16 -> p=64") {
		t.Fatalf("diff header missing:\n%s", out)
	}
	// The work-bearing phase must shrink toward the predicted 1/4 span;
	// replicate/reduce exist only on the c=4 side and are correctly
	// surfaced as one-sided rows.
	if !strings.Contains(out, "multiply-shift") || !strings.Contains(out, "replicate") {
		t.Fatalf("expected phase rows missing:\n%s", out)
	}

	// Identical configurations: no phase may be flagged.
	out, code = runScalediff(t, "-alg", "matmul", "-n", "64", "-q", "4")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if strings.Contains(out, "BOTTLENECK") {
		t.Fatalf("identical runs flagged a bottleneck:\n%s", out)
	}
	if !strings.Contains(out, "all phases within tolerance") {
		t.Fatalf("clean verdict missing:\n%s", out)
	}
}

func TestJSONOutput(t *testing.T) {
	out, code := runScalediff(t, "-alg", "fft", "-n", "256", "-q", "4", "-json")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	var doc struct {
		A    *analytics.PhaseProfile `json:"a"`
		Diff *analytics.DiffReport   `json:"diff"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if doc.A == nil || doc.A.Phase("all-to-all") == nil {
		t.Fatalf("fft profile misses all-to-all phase: %+v", doc.A)
	}
}

func TestBadUsageExitsTwo(t *testing.T) {
	if out, code := runScalediff(t, "-alg", "quicksort"); code != 2 {
		t.Fatalf("unknown algorithm exited %d:\n%s", code, out)
	}
	// A usage error must not create the -o file.
	path := filepath.Join(t.TempDir(), "diff.txt")
	if out, code := runScalediff(t, "-degrade", "no-such-phase", "-o", path); code != 2 {
		t.Fatalf("unknown phase exited %d:\n%s", code, out)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("usage error touched the -o file: %v", err)
	}
}

func TestOutputFileAndWriteFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "diff.txt")
	out, code := runScalediff(t, "-alg", "matmul", "-n", "32", "-q", "2", "-o", path)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "scaling diff") {
		t.Fatalf("report file wrong:\n%s", data)
	}

	if _, err := os.Stat("/dev/full"); err == nil {
		out, code := runScalediff(t, "-alg", "matmul", "-n", "32", "-q", "2", "-o", "/dev/full")
		if code == 0 {
			t.Fatalf("ENOSPC write exited 0:\n%s", out)
		}
	}
}
