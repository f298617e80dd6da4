package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The test binary re-executes itself with CASESTUDY_RUN_MAIN=1 so main()
// runs exactly as shipped, flag parsing included.
func TestMain(m *testing.M) {
	if os.Getenv("CASESTUDY_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runCasestudy(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CASESTUDY_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("casestudy %v failed: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestDefaultPrintsEverything(t *testing.T) {
	out := runCasestudy(t)
	for _, want := range []string{
		"Table I: Jaketown model parameters",
		"Table II: device survey",
		"Figure 6: GFLOPS/W of 2.5D matmul",
		"Figure 7: GFLOPS/W halving gamma_e, beta_e, delta_e together",
		"75 GFLOPS/W reached after",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("default output missing %q", want)
		}
	}
}

func TestSingleArtifactFlags(t *testing.T) {
	// Each flag selects exactly its artifact.
	t1 := runCasestudy(t, "-table1")
	if !strings.Contains(t1, "Table I") || strings.Contains(t1, "Table II") {
		t.Errorf("-table1 output wrong:\n%s", t1)
	}
	f7 := runCasestudy(t, "-fig7")
	if !strings.Contains(f7, "Figure 7") || strings.Contains(f7, "Figure 6") {
		t.Errorf("-fig7 output wrong:\n%s", f7)
	}
}

func TestCSVMode(t *testing.T) {
	out := runCasestudy(t, "-table2", "-csv")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 {
		t.Fatalf("CSV output too short:\n%s", out)
	}
	header := lines[0]
	if !strings.HasPrefix(header, "device,") {
		t.Errorf("CSV header %q", header)
	}
	cols := strings.Count(header, ",")
	for i, l := range lines[1:] {
		if strings.Count(l, ",") < cols {
			t.Errorf("CSV row %d has fewer columns than the header: %q", i+1, l)
		}
	}
	if strings.Contains(out, "|") || strings.Contains(out, "---") {
		t.Error("CSV mode leaked table rendering")
	}
}

func TestDeterministic(t *testing.T) {
	if runCasestudy(t) != runCasestudy(t) {
		t.Error("two casestudy runs differ")
	}
}

// TestWriteFailureExitsNonZero runs casestudy with stdout on /dev/full: a
// report that cannot be written must fail the command, not pass as empty.
func TestWriteFailureExitsNonZero(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("/dev/full not available")
	}
	defer full.Close()
	var stderr strings.Builder
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CASESTUDY_RUN_MAIN=1")
	cmd.Stdout, cmd.Stderr = full, &stderr
	if err := cmd.Run(); err == nil {
		t.Fatal("write to /dev/full exited 0")
	}
	if !strings.Contains(stderr.String(), "casestudy:") {
		t.Fatalf("no write-failure diagnostic: %q", stderr.String())
	}
}
