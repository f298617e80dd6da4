package report

import (
	"fmt"
	"io"
	"os"
)

// ErrWriter wraps an io.Writer and remembers the first write failure, so
// report-emitting commands can print unconditionally and check once at the
// end instead of threading an error through every Fprintf. A full disk or a
// closed pipe must fail the command (exit non-zero), not silently truncate
// an artifact.
type ErrWriter struct {
	w   io.Writer
	err error
}

// Write implements io.Writer. After the first failure, writes are dropped.
func (e *ErrWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, err
}

// Printf formats to the underlying writer, recording the first error.
func (e *ErrWriter) Printf(format string, args ...any) {
	fmt.Fprintf(e, format, args...)
}

// Println prints a line to the underlying writer, recording the first error.
func (e *ErrWriter) Println(args ...any) {
	fmt.Fprintln(e, args...)
}

// Emit writes t as CSV when csv is set, else as an aligned text table
// followed by a blank line.
func (e *ErrWriter) Emit(t *Table, csv bool) {
	if csv {
		e.Printf("%s", t.CSV())
	} else {
		e.Println(t.Render())
	}
}

// Err reports the first write failure, or nil.
func (e *ErrWriter) Err() error { return e.err }

// Output is the report sink of every command: it runs body against the
// file at path (created or truncated), or against stdout when path is
// empty, and returns the command's exit code. That is body's own code, or
// 1 with a "<cmd>: ..." line on stderr when the file cannot be created, a
// write fails or the close fails (where a buffered ENOSPC surfaces). Call
// it only after the command's flags are validated, so a usage error never
// creates or truncates the file.
func Output(cmd, path string, body func(*ErrWriter) int) int {
	f := os.Stdout
	if path != "" {
		var err error
		if f, err = os.Create(path); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
			return 1
		}
	}
	w := &ErrWriter{w: f}
	code := body(w)
	if err := w.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: writing report: %v\n", cmd, err)
		code = 1
	}
	if path != "" {
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: closing output: %v\n", cmd, err)
			code = 1
		}
	}
	return code
}
