package report

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type failAfter struct {
	n int
}

var errSink = errors.New("sink failed")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errSink
	}
	f.n--
	return len(p), nil
}

func TestErrWriterRecordsFirstError(t *testing.T) {
	w := &ErrWriter{w: &failAfter{n: 1}}
	w.Printf("first write: %d\n", 1)
	if w.Err() != nil {
		t.Fatalf("first write errored: %v", w.Err())
	}
	w.Println("second write fails")
	if !errors.Is(w.Err(), errSink) {
		t.Fatalf("error not recorded: %v", w.Err())
	}
	w.Printf("third write is dropped")
	if !errors.Is(w.Err(), errSink) {
		t.Fatalf("first error not sticky: %v", w.Err())
	}
}

func TestErrWriterPassthrough(t *testing.T) {
	var buf bytes.Buffer
	w := &ErrWriter{w: &buf}
	w.Printf("a=%d ", 1)
	w.Println("b")
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	if buf.String() != "a=1 b\n" {
		t.Fatalf("wrote %q", buf.String())
	}
}

// redirect points *f (os.Stdout or os.Stderr) at a fresh temp file for the
// rest of the test and returns a function reading what was written to it.
func redirect(t *testing.T, f **os.File) func() string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "std")
	if err != nil {
		t.Fatal(err)
	}
	saved := *f
	*f = tmp
	t.Cleanup(func() {
		*f = saved
		tmp.Close()
	})
	return func() string {
		data, err := os.ReadFile(tmp.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
}

func hello(w *ErrWriter) int {
	w.Println("hello")
	return 0
}

func TestOutputStdout(t *testing.T) {
	stdout := redirect(t, &os.Stdout)
	if code := Output("cmd", "", hello); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if got := stdout(); got != "hello\n" {
		t.Fatalf("stdout holds %q", got)
	}
}

func TestOutputFile(t *testing.T) {
	stdout := redirect(t, &os.Stdout)
	path := filepath.Join(t.TempDir(), "out.txt")
	if code := Output("cmd", path, hello); code != 0 {
		t.Fatalf("exit %d", code)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "hello\n" {
		t.Fatalf("file holds %q", data)
	}
	if got := stdout(); got != "" {
		t.Fatalf("stdout holds %q", got)
	}
}

func TestOutputBadPath(t *testing.T) {
	stderr := redirect(t, &os.Stderr)
	ran := false
	code := Output("cmd", filepath.Join(t.TempDir(), "no", "such", "dir", "f"), func(*ErrWriter) int {
		ran = true
		return 0
	})
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if ran {
		t.Fatal("body ran without an output")
	}
	if got := stderr(); !strings.HasPrefix(got, "cmd: ") {
		t.Fatalf("diagnostic %q lacks the command name", got)
	}
}

func TestOutputWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	stderr := redirect(t, &os.Stderr)
	if code := Output("cmd", "/dev/full", hello); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if got := stderr(); !strings.HasPrefix(got, "cmd: writing report:") {
		t.Fatalf("diagnostic %q lacks the command name", got)
	}
}

func TestOutputPassesBodyCode(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	for _, want := range []int{0, 1, 2, 130} {
		if code := Output("cmd", path, func(*ErrWriter) int { return want }); code != want {
			t.Fatalf("body returned %d, Output returned %d", want, code)
		}
	}
}

func TestEmit(t *testing.T) {
	tb := NewTable("T", "a", "b")
	tb.AddRow(1, "x")
	var buf bytes.Buffer
	w := &ErrWriter{w: &buf}
	w.Emit(tb, false)
	w.Emit(tb, true)
	if want := tb.Render() + "\n" + tb.CSV(); buf.String() != want {
		t.Fatalf("wrote %q, want %q", buf.String(), want)
	}
}
