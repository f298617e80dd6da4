package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for
// an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank q-quantile of xs, 0 < q ≤ 1.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// summary is how the record reports a timing: the median, and the highest
// percentile that still has at least ten samples beyond it, with the
// sample count. TailPct is 0 when there are too few samples for one.
type summary struct {
	N       int     `json:"n"`
	Median  float64 `json:"median"`
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
}

func summarize(xs []float64) summary {
	s := sorted(xs)
	sm := summary{N: len(s), Median: median(s)}
	if len(s) > 0 {
		sm.Min, sm.Max = s[0], s[len(s)-1]
	}
	if i := len(s) - 11; i >= 0 {
		sm.TailPct = 100 * float64(i+1) / float64(len(s))
		sm.Tail = s[i]
	}
	return sm
}

// resetPeakRSS restarts the kernel's peak-RSS mark at the current RSS, so
// the next peakRSSMB covers only what ran in between. Where the mark
// cannot be reset, peakRSSMB stays the process's lifetime peak.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB is the process's peak resident set in MB, from VmHWM.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuSeconds is the user plus system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostStamp records where a run was measured, so two records can be
// compared only when they come from the same kind of host.
func hostStamp(seed int64) map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"git_rev":    gitRevision(),
		"src_sha256": sourceDigest(),
		"gogc":       gogc,
		"seed":       seed,
		"time_utc":   time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitRevision reads the checkout's own .git (never a parent directory's)
// and returns "unknown" in a source tree that is not a git checkout.
func gitRevision() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return "unknown"
}

// sourceDigest fingerprints the Go sources the benchmark was built from,
// so records from checkouts without git can still be matched to a tree.
func sourceDigest() string {
	h := sha256.New()
	// A file that cannot be read only leaves the fingerprint weaker.
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}
