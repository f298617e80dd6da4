package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The test binary re-executes itself with ENERGYMODEL_RUN_MAIN=1 so main()
// runs exactly as shipped, flag parsing and exit codes included.
func TestMain(m *testing.M) {
	if os.Getenv("ENERGYMODEL_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runEnergymodel(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ENERGYMODEL_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("energymodel %v did not run: %v\n%s", args, err, out)
		}
		code = ee.ExitCode()
	}
	return string(out), code
}

func TestOutputFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.txt")
	out, code := runEnergymodel(t, "-alg", "matmul", "-n", "4096", "-p", "16", "-questions", "-o", path)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"T total (s)", "E total (J)", "Section V answers"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("report misses %q:\n%s", want, data)
		}
	}
	if len(out) != 0 {
		t.Fatalf("stdout not empty when -o is set:\n%s", out)
	}
}

func TestBadUsageExitsTwo(t *testing.T) {
	// A usage error must not create the -o file.
	path := filepath.Join(t.TempDir(), "out.txt")
	if out, code := runEnergymodel(t, "-alg", "nope", "-o", path); code != 2 {
		t.Fatalf("unknown alg: exit %d, want 2:\n%s", code, out)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("usage error touched the -o file: %v", err)
	}
	if out, code := runEnergymodel(t, "-machine", "nope"); code != 2 {
		t.Fatalf("unknown machine: exit %d, want 2:\n%s", code, out)
	}
}

func TestWriteFailureExitsNonZero(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	out, code := runEnergymodel(t, "-alg", "nbody", "-o", "/dev/full")
	if code == 0 {
		t.Fatalf("write to /dev/full succeeded:\n%s", out)
	}
	if !strings.Contains(out, "energymodel:") {
		t.Fatalf("no write-failure diagnostic:\n%s", out)
	}
}
