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

// The test binary re-executes itself with POWERPROFILE_RUN_MAIN=1 so main()
// runs exactly as shipped, flag parsing and exit codes included.
func TestMain(m *testing.M) {
	if os.Getenv("POWERPROFILE_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runPowerprofile(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "POWERPROFILE_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("powerprofile %v did not run: %v\n%s", args, err, out)
		}
		code = ee.ExitCode()
	}
	return string(out), code
}

func TestOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "profile.txt")
	out, code := runPowerprofile(t, "-alg", "matmul", "-n", "48", "-q", "2", "-c", "1", "-o", path)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"simulated T", "utilization:", "Power over time", "peak"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("report misses %q:\n%s", want, data)
		}
	}
}

func TestBadUsageExitsTwo(t *testing.T) {
	// A usage error must not create the -o file.
	path := filepath.Join(t.TempDir(), "out.txt")
	if out, code := runPowerprofile(t, "-alg", "nope", "-o", path); code != 2 {
		t.Fatalf("unknown alg: exit %d, want 2:\n%s", code, out)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("usage error touched the -o file: %v", err)
	}
	if out, code := runPowerprofile(t, "-machine", "nope"); code != 2 {
		t.Fatalf("unknown machine: exit %d, want 2:\n%s", code, out)
	}
}

func TestWriteFailureExitsNonZero(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	out, code := runPowerprofile(t, "-alg", "matmul", "-n", "48", "-q", "2", "-c", "1", "-o", "/dev/full")
	if code == 0 {
		t.Fatalf("write to /dev/full succeeded:\n%s", out)
	}
	if !strings.Contains(out, "powerprofile:") {
		t.Fatalf("no write-failure diagnostic:\n%s", out)
	}
}

// TestGolden pins the whole report at default flags, byte for byte: the
// critical-path table, utilization line, Gantt chart and power profile.
// Rewrite with `go test ./cmd/powerprofile -run TestGolden -update`.
func TestGolden(t *testing.T) {
	for _, alg := range []string{"matmul", "nbody"} {
		t.Run(alg, func(t *testing.T) {
			got, code := runPowerprofile(t, "-alg", alg)
			if code != 0 {
				t.Fatalf("exit %d:\n%s", code, got)
			}
			path := filepath.Join("testdata", alg+".golden")
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
		})
	}
}
