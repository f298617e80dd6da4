// Command perfbench is the repository's benchmark. It drives one named
// workload through the same public functions a library caller or an HTTP
// client uses, checks every output, and prints one JSON result line:
//
//	go run . --workload matmul-shift --seed 1 --seconds 24 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no tracing. With --trace 1 it carries the per-layer metrics, measured in
// a separate run that records spans around every call into a layer and
// writes them to .bench_out/ when the run ends. The line before the result
// is a record stamped with the host it was measured on; see NOTES.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A run sets its workload up several times and reports the median as
// setup_s, so one slow start does not decide it: at least setupMinRuns
// times and for at least setupMinTime, unless the set-ups have already
// taken setupMaxTime (one quick conformance sweep alone takes 8 s, and
// its set-up time is set by the sweep's fixed real-time windows).
const (
	setupMinRuns = 3
	setupMaxRuns = 100
	setupMinTime = time.Second
	setupMaxTime = 5 * time.Second
)

// metric is one named value with its unit, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome counts the operations of one run and whether any returned a
// wrong answer. An operation that fails (an error, a refusal) is counted
// in failed; one that returns a value the checks reject is counted in
// failed and also clears correct.
type outcome struct {
	correct   bool
	attempted int
	failed    int
	// failures keeps the first few failure messages for the record.
	failures []string
}

func newOutcome() *outcome { return &outcome{correct: true, failures: []string{}} }

// fail records a failed operation; wrong marks it as a wrong answer.
func (o *outcome) fail(wrong bool, format string, args ...any) {
	o.failed++
	if wrong {
		o.correct = false
	}
	if len(o.failures) < 8 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// report is what a workload hands back to main: the metrics of the run's
// mode, plus the detail the record carries under its own metric names.
type report struct {
	metrics map[string]metric
	detail  map[string]any
}

// workload is one benchmark workload. setup builds the inputs (and the
// server, where there is one) from the seed and makes one warm-up call;
// it may be called several times and must release what an earlier call
// built. run measures for the given seconds; with tr non-nil it is the
// traced run and reports the per-layer metrics.
type workload interface {
	setup(seed int64, seconds float64) error
	run(seconds float64, tr *tracer, out *outcome) (report, error)
	close()
}

var workloads = map[string]func() workload{
	"matmul-shift":      func() workload { return newMatmulShift() },
	"matmul-kernel":     func() workload { return newMatmulKernel() },
	"serve-mix":         func() workload { return &serveMix{} },
	"conformance-quick": func() workload { return &conformanceQuick{} },
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; every input is derived from it")
	seconds := fs.Int("seconds", 24, "seconds to measure")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	// All load comes from one process on at most two threads, the sizes
	// the workloads were chosen for.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	w := mk()
	defer w.close()
	var setups []float64
	for begin := time.Now(); ; {
		w.close()
		start := time.Now()
		if err := w.setup(*seed, float64(*seconds)); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		spent := time.Since(begin)
		if spent >= setupMaxTime || len(setups) >= setupMaxRuns ||
			(len(setups) >= setupMinRuns && spent >= setupMinTime) {
			break
		}
	}

	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	out := newOutcome()
	rep, err := w.run(float64(*seconds), tr, out)
	if err != nil {
		return err
	}
	if out.attempted == 0 {
		return errors.New("no operation was attempted")
	}
	rep.detail["setup_s"] = summarize(setups)
	rep.detail["failed_frac"] = float64(out.failed) / float64(out.attempted)
	if tr == nil {
		rep.metrics["setup_s"] = metric{median(setups), "s"}
	}
	rec := map[string]any{
		"workload": *name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"host": hostStamp(*seed), "detail": rep.detail, "failures": out.failures,
	}
	if tr != nil {
		path, err := tr.write(*name, *seed, rec)
		if err != nil {
			return err
		}
		rec["trace_file"] = path
	}
	if err := printJSON(stdout, map[string]any{"record": rec}); err != nil {
		return err
	}
	return printJSON(stdout, map[string]any{
		"correct": out.correct, "attempted": out.attempted, "failed": out.failed,
		"metrics": rep.metrics,
	})
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
