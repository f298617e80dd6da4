package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Deadlock diagnostics. The event engine knows the exact instant the
// cluster is quiescent — every live rank parked, nothing runnable — and
// the simulation has no external inputs, so at that point nothing except a
// virtual timer (timer.go) can ever release a parked rank. With zero armed
// timers the run is deadlocked, and each parked rank is aborted with a
// DeadlockError naming who waits on whom and a snapshot of the whole
// cluster. A rank parked in a plain send to a peer that already exited can
// never be released either, so that case is aborted at the first
// quiescence after the exit (timed sends handle peer exit themselves).

// DeadlockError is the diagnostic a rank aborted at quiescence reports.
type DeadlockError struct {
	// Rank is the aborted rank; Op is "recv" or "send"; Peer is the rank
	// it was blocked on.
	Rank int
	Op   string
	Peer int
	// PeerExited marks the send-to-exited-rank case: the peer can never
	// drain the pair's queue again.
	PeerExited bool
	// Graph is the cluster-wide wait-for description at detection time
	// (empty for the per-rank send-to-exited case).
	Graph string
	// Snapshot is the cluster-wide state at detection time — what every
	// rank was doing and which wired pairs still held undelivered
	// messages — so the deadlock is debuggable without rerunning under
	// trace. All ranks aborted by one detection share one snapshot.
	Snapshot *ClusterSnapshot
}

// ClusterSnapshot captures the whole cluster at a deadlock detection.
type ClusterSnapshot struct {
	// Ranks has one entry per rank, indexed by rank id.
	Ranks []RankSnapshot
	// Queued lists the wired pairs holding sent-but-undelivered messages,
	// sorted by (src, dst). A blocked receiver whose pair is absent here
	// has genuinely never been sent the message it waits for.
	Queued []QueuedPair
}

// RankSnapshot is one rank's state inside a ClusterSnapshot.
type RankSnapshot struct {
	Rank int
	// State is "running", "blocked-recv", "blocked-send",
	// "blocked-recv-timer", "blocked-send-timer" or "exited".
	State string
	// Peer is the rank waited on; -1 unless blocked.
	Peer int
	// LastSeg is the rank's most recent timeline segment as of its park
	// (nil unless the rank is blocked and emitted a segment). It names the
	// last thing the rank verifiably did.
	LastSeg *Segment
}

// QueuedPair counts undelivered messages buffered on one wired pair.
type QueuedPair struct {
	Src, Dst int
	Count    int
}

// String renders the snapshot compactly, one line per non-idle fact.
func (s *ClusterSnapshot) String() string {
	var b strings.Builder
	b.WriteString("cluster snapshot:")
	for _, r := range s.Ranks {
		if r.State == "running" {
			continue
		}
		fmt.Fprintf(&b, "\n  rank %d: %s", r.Rank, r.State)
		if r.Peer >= 0 {
			fmt.Fprintf(&b, " peer=%d", r.Peer)
		}
		if r.LastSeg != nil {
			fmt.Fprintf(&b, " last=%s[%g,%g]", r.LastSeg.Kind, r.LastSeg.Start, r.LastSeg.End)
		}
	}
	for _, q := range s.Queued {
		fmt.Fprintf(&b, "\n  queued %d->%d: %d msg(s)", q.Src, q.Dst, q.Count)
	}
	return b.String()
}

// queuedPairs counts undelivered messages per wired pair, sorted for
// deterministic reports.
func (c *Cluster) queuedPairs() []QueuedPair {
	var out []QueuedPair
	for dst := range c.mail {
		mb := &c.mail[dst]
		mb.mu.Lock()
		for src, q := range mb.queues {
			if n := q.length(); n > 0 {
				out = append(out, QueuedPair{Src: src, Dst: dst, Count: n})
			}
		}
		mb.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

func (e *DeadlockError) Error() string {
	if e.PeerExited {
		return fmt.Sprintf("sim: rank %d blocked in send to exited rank %d, which can no longer receive", e.Rank, e.Peer)
	}
	msg := fmt.Sprintf("sim: deadlock: rank %d blocked in %s waiting on rank %d", e.Rank, e.Op, e.Peer)
	if e.Graph != "" {
		msg += " (" + e.Graph + ")"
	}
	return msg
}

// abortPanic carries a deadlock abort out of the blocked operation; Run
// recovers it and reports the DeadlockError.
type abortPanic struct{ err *DeadlockError }

func opName(op uint8) string {
	if op == opBlockedSend || op == opBlockedSendTimer {
		return "send"
	}
	return "recv"
}
