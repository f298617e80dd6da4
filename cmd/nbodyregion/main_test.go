package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// The test binary re-executes itself with NBODYREGION_RUN_MAIN=1 so main()
// runs exactly as shipped, flag parsing and exit codes included.
func TestMain(m *testing.M) {
	if os.Getenv("NBODYREGION_RUN_MAIN") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestWriteFailureExitsNonZero runs nbodyregion with stdout on /dev/full: a
// report that cannot be written must fail the command, not pass as empty.
func TestWriteFailureExitsNonZero(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("/dev/full not available")
	}
	defer full.Close()
	for _, args := range [][]string{nil, {"-csv"}, {"-matmul"}} {
		var stderr strings.Builder
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "NBODYREGION_RUN_MAIN=1")
		cmd.Stdout, cmd.Stderr = full, &stderr
		if err := cmd.Run(); err == nil {
			t.Fatalf("nbodyregion %v: write to /dev/full exited 0", args)
		}
		if !strings.Contains(stderr.String(), "nbodyregion:") {
			t.Fatalf("nbodyregion %v: no write-failure diagnostic: %q", args, stderr.String())
		}
	}
}
