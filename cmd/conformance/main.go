// Command conformance runs the model-conformance sweep: every distributed
// algorithm in the repository against the paper's closed forms, checked by
// the differential, metamorphic and replay property families in
// internal/conformance.
//
// Usage:
//
//	conformance -quick               # CI gate: small grids, a few seconds
//	conformance -full                # widened grids
//	conformance -alg fft,matmul-2.5d # restrict to named algorithms
//	conformance -machine jaketown    # price on a named machine or JSON file
//	conformance -out report.json     # machine-readable violation report
//	conformance -v                   # dump every band ratio to stderr
//
// The exit status is 0 when the sweep passes, 1 on violations or when the
// -out report cannot be written, 2 on a harness failure (an algorithm
// refusing to run, bad flags), 130 when interrupted by SIGINT/SIGTERM — in
// which case the -out report is still written, marked "interrupted",
// covering the points reached.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"perfscale/internal/conformance"
	"perfscale/internal/machine"
	"perfscale/internal/report"
)

func main() {
	quick := flag.Bool("quick", false, "quick sweep (the CI gate)")
	full := flag.Bool("full", false, "full sweep (widened grids)")
	algs := flag.String("alg", "", "comma-separated algorithms (default all; see -list)")
	list := flag.Bool("list", false, "list the algorithms the sweep covers and exit")
	machineName := flag.String("machine", "simdefault", "machine preset name or params JSON file")
	out := flag.String("out", "", "write the JSON report to this file (default none)")
	verbose := flag.Bool("v", false, "dump every band-check ratio to stderr")
	flag.Parse()

	if *list {
		for _, name := range conformance.AlgorithmNames() {
			fmt.Println(name)
		}
		return
	}
	if *quick == *full {
		fmt.Fprintln(os.Stderr, "conformance: pick exactly one of -quick or -full")
		os.Exit(2)
	}

	m, err := machine.Resolve(*machineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "conformance:", err)
		os.Exit(2)
	}
	cfg := conformance.Config{Machine: m, Level: conformance.Quick}
	if *full {
		cfg.Level = conformance.Full
	}
	if *algs != "" {
		for _, a := range strings.Split(*algs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				cfg.Algorithms = append(cfg.Algorithms, a)
			}
		}
	}
	if *verbose {
		cfg.Verbose = os.Stderr
	}

	// A first SIGINT/SIGTERM cancels the sweep (a partial report is still
	// written); a second one falls back to the default handler and kills
	// the process outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg.Context = ctx

	start := time.Now()
	rep, err := conformance.Sweep(cfg)
	rep.WallSeconds = time.Since(start).Seconds()
	interrupted := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if err != nil && !interrupted {
		fmt.Fprintln(os.Stderr, "conformance:", err)
		os.Exit(2)
	}

	if *out != "" {
		data, merr := json.MarshalIndent(rep, "", "  ")
		if merr != nil {
			fmt.Fprintln(os.Stderr, "conformance:", merr)
			os.Exit(2)
		}
		if report.Output("conformance", *out, func(w *report.ErrWriter) int {
			w.Printf("%s\n", data)
			return 0
		}) != 0 {
			os.Exit(1)
		}
	}

	status := ""
	if interrupted {
		status = " [interrupted — partial]"
	}
	fmt.Printf("conformance %s on %s: %d points, %d checks, %d violations (%.2fs)%s\n",
		rep.Level, rep.Machine, rep.Points, rep.Checks, len(rep.Violations), rep.WallSeconds, status)
	for _, v := range rep.Violations {
		fmt.Println("  " + v.String())
	}
	if interrupted {
		fmt.Fprintln(os.Stderr, "conformance:", err)
		os.Exit(130)
	}
	if !rep.Ok() {
		os.Exit(1)
	}
}
