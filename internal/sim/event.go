package sim

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// The event engine: the runtime every simulation executes on.
//
// Ranks execute on goroutines — an SPMD function is an opaque closure whose
// stack must live somewhere — but a goroutine only runs while the engine
// has explicitly handed it one of a bounded number of worker slots
// (Cost.Workers). When a rank would block (empty receive queue, full send
// buffer, a collective rendezvous), it parks: it registers what it waits
// for, hands its slot to the next runnable rank, and sleeps on a one-token
// resume channel until the engine wakes it with a reason. Runnable ranks
// wait in per-shard min-heaps ordered by virtual clock (ties by rank id) —
// the sharded virtual-time event queue — so execution tends to proceed in
// causal waves and a wake is delivered exactly when the awaited condition
// holds, never as a poll.
//
// Three properties follow:
//
//   - blocking costs one mutex and one channel token;
//   - quiescence is exact: the engine knows the instant the run queue is
//     empty and every live rank is parked, so deadlock detection and
//     virtual-timer firing (timer.go) are immediate and deterministic —
//     no real-time window decides anything;
//   - collectives can be fast-forwarded: when no fault plan, observer or
//     cancel context can touch a run (see ffOK), a collective's whole
//     message schedule is conducted centrally by its last-arriving member
//     in one pass (comm_ff.go), eliminating the per-round park/resume
//     cycles entirely.
//
// Results are schedule-invariant by construction: virtual clocks and
// counters are pure functions of the program's per-pair FIFO message order
// and the arrival stamps carried in messages, never of which rank happened
// to run when, and fault decisions are keyed on (seed, src, dst, seq,
// clock) alone. The conformance engine family pins this on every registry
// algorithm: fast-forwarded against event-by-event collectives, and one
// worker against the default pool, bitwise.

// Rank wait states, recorded in evRank.op.
const (
	opRunning uint8 = iota
	opBlockedRecv
	opBlockedSend
	opExited
	opBlockedRecvTimer
	opBlockedSendTimer
)

// blockedOp reports whether op is any of the four blocked states.
func blockedOp(op uint8) bool {
	switch op {
	case opBlockedRecv, opBlockedSend, opBlockedRecvTimer, opBlockedSendTimer:
		return true
	}
	return false
}

// evKind is the reason a parked rank was resumed.
type evKind uint8

const (
	// evWake: re-examine your wait — a message arrived, buffer space
	// opened, or the awaited peer exited. The resumed operation re-checks
	// its conditions in a fixed priority order (message, peer exit,
	// expiry), so the outcome depends only on virtual state.
	evWake evKind = iota
	// evTimerFire: the rank's virtual deadline was the earliest armed
	// timer at quiescence (timer.go rules).
	evTimerFire
	// evAbort: the engine filled the rank's abort diagnostic (deadlock,
	// send to exited peer); the rank unwinds with abortPanic.
	evAbort
	// evCancel: the run context was cancelled; the rank unwinds with
	// cancelPanic.
	evCancel
	// evConducted: the rank's collective was conducted by its last
	// arriver; the result is ready (comm_ff.go).
	evConducted
)

// evRank is the engine's per-rank scheduling record. All fields are
// guarded by eventEngine.mu except resume, which carries at most one
// token from the dispatching engine to the parked carrier.
type evRank struct {
	resume chan evKind
	// op/peer/deadline form the wait record while parked (opRunning while
	// executing or runnable, opExited after the carrier returns). deadline
	// is the armed virtual deadline of a timed operation, 0 otherwise.
	op       uint8
	peer     int32
	runnable bool
	started  bool
	kind     evKind
	deadline float64
	// clock is the rank's virtual clock at its last park, the heap key.
	clock float64
	// seg/hasSeg snapshot the rank's last timeline segment at park, so
	// deadlock snapshots can report what it last did.
	seg    Segment
	hasSeg bool
	// abort is the diagnostic an evAbort resume carries.
	abort *DeadlockError
	// watch is the lock-free mirror of the (op, peer) wait record for the
	// notifyEnqueue/notifyDequeue prechecks: peer<<2 | watchRecv/watchSend
	// while this rank is parked on a pair operation, 0 otherwise. park
	// publishes it (sequentially consistent) BEFORE its final queue
	// re-check; a sender reads it AFTER its enqueue. One of the two
	// therefore always observes the other — the classic store/load
	// protocol — so a miss on both sides is impossible and senders skip
	// the engine lock entirely on the overwhelmingly common case of an
	// unwatched pair.
	watch atomic.Uint64
}

// watch classes (low two bits of evRank.watch).
const (
	watchRecv uint64 = 1
	watchSend uint64 = 2
)

// watchWord encodes a park's wait record for the lock-free precheck.
func watchWord(op uint8, peer int) uint64 {
	class := watchRecv
	if op == opBlockedSend || op == opBlockedSendTimer {
		class = watchSend
	}
	return uint64(peer)<<2 | class
}

// evEntry is one runnable rank in a shard heap, ordered by (clock, id).
type evEntry struct {
	clock float64
	id    int32
	// yielded marks a rank that gave up its slot in yieldIfBehind; it
	// sorts after every other rank at the same clock.
	yielded bool
}

// evHeap is a binary min-heap of runnable ranks.
type evHeap []evEntry

func (h *evHeap) push(e evEntry) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !evLess((*h)[i], (*h)[parent]) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *evHeap) pop() evEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && evLess(old[l], old[small]) {
			small = l
		}
		if r < n && evLess(old[r], old[small]) {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

func evLess(a, b evEntry) bool {
	if a.clock != b.clock {
		return a.clock < b.clock
	}
	if a.yielded != b.yielded {
		return b.yielded
	}
	// Remaining ties break toward the HIGHER rank id. Results are
	// schedule-invariant (the conformance engine family pins this), so the
	// tiebreak is purely a throughput decision: the ring and tree
	// collectives receive from higher-indexed peers (Shift(-1) pulls from
	// me+1, reduce trees pull from the high half), so running high ids
	// first means a rank's sources have usually stashed their sends by the
	// time it asks — turning most would-be parks into immediate dequeues.
	return a.id > b.id
}

// eventEngine is the cooperative scheduler. One engine drives one run.
type eventEngine struct {
	c       *Cluster
	fn      func(*Rank) error
	res     *Result
	errs    []error
	workers int

	// ffOK marks the run eligible for fast-forwarded collectives: no
	// fault plan, no observers (including the tracer), no cancel context.
	// Any of those must see the run event by event — faults key decisions
	// on individual sends, observers are owed per-operation callbacks on
	// the owning rank's goroutine, and cancellation must be able to abort
	// inside a collective — so they force the slow path. The predicate is
	// cluster-static: eligibility never changes mid-run, which keeps
	// conducted and event-by-event collectives from deadlocking each
	// other.
	ffOK bool

	mu      sync.Mutex
	ranks   []evRank
	shards  []evHeap
	running int // ranks currently executing on a worker slot
	live    int // ranks that have not exited
	nrun    int // total runnable entries across shards
	rend    map[ffKey]*ffRendezvous
	done    chan struct{}
}

func newEventEngine(c *Cluster, fn func(*Rank) error, res *Result) *eventEngine {
	workers := c.cost.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &eventEngine{
		c:       c,
		fn:      fn,
		res:     res,
		errs:    make([]error, c.p),
		workers: workers,
		ffOK:    c.cost.Faults == nil && len(c.obs) == 0 && c.cost.Context == nil,
		ranks:   make([]evRank, c.p),
		shards:  make([]evHeap, workers),
		live:    c.p,
		rend:    make(map[ffKey]*ffRendezvous),
		done:    make(chan struct{}),
	}
	for i := range e.ranks {
		e.ranks[i].resume = make(chan evKind, 1)
		e.ranks[i].peer = -1
	}
	return e
}

// pushRunnable marks rank id runnable at the given virtual clock. mu held.
func (e *eventEngine) pushRunnable(id int, clock float64, yielded bool) {
	rk := &e.ranks[id]
	rk.runnable = true
	e.shards[id%e.workers].push(evEntry{clock: clock, id: int32(id), yielded: yielded})
	e.nrun++
}

// popNext removes and returns the runnable rank with the smallest
// (clock, id) across shards. mu held.
func (e *eventEngine) popNext() (int, bool) {
	best := -1
	for s := range e.shards {
		if len(e.shards[s]) == 0 {
			continue
		}
		if best < 0 || evLess(e.shards[s][0], e.shards[best][0]) {
			best = s
		}
	}
	if best < 0 {
		return 0, false
	}
	e.nrun--
	return int(e.shards[best].pop().id), true
}

// dispatch fills free worker slots from the run queue, and — when the
// whole cluster has gone quiescent with ranks still live — resolves the
// quiescence (peer-exit releases first, then the earliest armed timer,
// then deadlock). mu held.
func (e *eventEngine) dispatch() {
	for {
		for e.running < e.workers && e.nrun > 0 {
			id, ok := e.popNext()
			if !ok {
				break
			}
			rk := &e.ranks[id]
			rk.runnable = false
			rk.op = opRunning
			rk.peer = -1
			e.running++
			if !rk.started {
				rk.started = true
				go e.carrier(id)
			} else {
				rk.resume <- rk.kind
			}
		}
		if e.running > 0 || e.live == 0 || e.nrun > 0 {
			return
		}
		// Quiescent: every live rank is parked and nothing is runnable.
		e.quiesce()
		if e.nrun == 0 {
			// quiesce wakes at least one rank whenever live ranks remain;
			// defensive: avoid spinning if it could not.
			return
		}
	}
}

// carrier is the goroutine that hosts rank id. It classifies the rank's
// exit, publishes the exit record, and returns its worker slot.
func (e *eventEngine) carrier(id int) {
	c := e.c
	r := &Rank{cluster: c, id: id}
	defer func() {
		status, err := c.classifyRankExit(recover(), id, e.errs[id])
		e.errs[id] = err
		e.res.PerRank[id] = r.Stats()
		// Publish the exit record before the exit flag: a peer that
		// observes the flag (or the engine's opExited under mu) may read
		// exits[id].
		c.exits[id] = exitInfo{status: status, err: err}
		c.exited[id].Store(true)
		e.mu.Lock()
		rk := &e.ranks[id]
		rk.op = opExited
		rk.hasSeg = false
		e.live--
		e.running--
		if e.live == 0 {
			defer close(e.done)
		}
		e.dispatch()
		e.mu.Unlock()
	}()
	e.errs[id] = e.fn(r)
}

// yieldIfBehind reparks the calling rank onto the run queue when another
// runnable rank sits at an earlier or equal virtual clock; at equal clocks
// the yielder queues behind the others. A compute-only loop never parks on
// its own, so on a small worker pool it would starve those ranks
// indefinitely — including ranks whose real-time side effects the program
// is waiting on (an external cancel, a test synchronization), and ranks
// of a zero-cost loop whose clock never advances. Results are
// schedule-invariant, so the repark only affects wall-clock fairness,
// never the virtual outcome.
func (e *eventEngine) yieldIfBehind(r *Rank) {
	e.mu.Lock()
	behind := false
	for s := range e.shards {
		if h := e.shards[s]; len(h) > 0 && h[0].clock <= r.clock {
			behind = true
			break
		}
	}
	if !behind {
		e.mu.Unlock()
		return
	}
	rk := &e.ranks[r.id]
	// The rank stays opRunning: it is runnable, not blocked, so the
	// quiescence scans and cancel sweep must keep ignoring it — it will
	// observe cancellation itself at its next instrumented op.
	rk.kind = evWake
	rk.seg, rk.hasSeg = r.lastSeg, r.hasSeg
	e.pushRunnable(r.id, r.clock, true)
	e.running--
	e.dispatch()
	e.mu.Unlock()
	<-rk.resume
}

// park blocks the calling rank with the given wait record until the
// engine resumes it. avail, checked under mu, lets the caller detect a
// condition that raced with its unlocked pre-check (a message enqueued,
// space opened, the peer exited) — if it reports true the rank never
// parks and evWake is returned immediately. A run already cancelled
// returns evCancel instead of parking: the cancel sweep has passed, and
// nothing would wake the rank for it again.
func (e *eventEngine) park(r *Rank, op uint8, peer int, deadline float64, avail func() bool) evKind {
	rk := &e.ranks[r.id]
	rk.watch.Store(watchWord(op, peer))
	e.mu.Lock()
	if avail != nil && avail() {
		rk.watch.Store(0)
		e.mu.Unlock()
		return evWake
	}
	if e.c.cancelled.Load() {
		rk.watch.Store(0)
		e.mu.Unlock()
		return evCancel
	}
	return e.parkLocked(r, op, peer, deadline)
}

// parkLocked is park's core: record the wait, release the worker slot,
// hand it to the next runnable rank, and sleep. Enters with mu held,
// returns with mu released.
func (e *eventEngine) parkLocked(r *Rank, op uint8, peer int, deadline float64) evKind {
	rk := &e.ranks[r.id]
	rk.op = op
	rk.peer = int32(peer)
	rk.deadline = deadline
	rk.clock = r.clock
	rk.seg = r.lastSeg
	rk.hasSeg = r.hasSeg
	e.running--
	e.dispatch()
	e.mu.Unlock()
	kind := <-rk.resume
	rk.watch.Store(0)
	return kind
}

// wake marks a parked rank runnable with the given resume reason. A rank
// already runnable keeps its pending reason only when the new one is a
// plain evWake: the specific reasons (conducted result ready, timer
// fired, abort, cancel) always replace it, so a racing message enqueue
// can never mask them — the resumed operation re-checks its queues
// anyway. mu held.
func (e *eventEngine) wake(id int, kind evKind) {
	rk := &e.ranks[id]
	if rk.runnable {
		if kind != evWake {
			rk.kind = kind
		}
		return
	}
	if !blockedOp(rk.op) {
		return
	}
	rk.kind = kind
	e.pushRunnable(id, rk.clock, false)
}

// notifyEnqueue wakes dst if it is parked receiving from src. The
// unlocked watch precheck rejects the common case — dst running, or
// parked on some other pair — without touching the engine lock; the
// locked wait record stays authoritative for the actual wake.
func (e *eventEngine) notifyEnqueue(src, dst int) {
	if w := e.ranks[dst].watch.Load(); w&3 != watchRecv || int(w>>2) != src {
		return
	}
	e.mu.Lock()
	rk := &e.ranks[dst]
	if (rk.op == opBlockedRecv || rk.op == opBlockedRecvTimer) && int(rk.peer) == src {
		e.wake(dst, evWake)
		e.dispatch()
	}
	e.mu.Unlock()
}

// notifyDequeue wakes src if it is parked sending to dst (its pair's
// buffer was full; the caller just drained one slot). Prechecked like
// notifyEnqueue.
func (e *eventEngine) notifyDequeue(src, dst int) {
	if w := e.ranks[src].watch.Load(); w&3 != watchSend || int(w>>2) != dst {
		return
	}
	e.mu.Lock()
	rk := &e.ranks[src]
	if (rk.op == opBlockedSend || rk.op == opBlockedSendTimer) && int(rk.peer) == dst {
		e.wake(src, evWake)
		e.dispatch()
	}
	e.mu.Unlock()
}

// notifyDrained wakes a sender parked on a full pair after the receiver
// dequeued from it; the length test skips the engine entirely while the
// buffer still has room to spare.
func (e *eventEngine) notifyDrained(q *pairQ, src, dst int) {
	if q.length() >= int(q.sem)-1 {
		e.notifyDequeue(src, dst)
	}
}

// checkResume unwinds a rank resumed with a terminal reason: evCancel
// aborts it with cancelPanic, evAbort with the diagnostic the engine
// recorded. Every other reason returns to the caller's re-check.
func (e *eventEngine) checkResume(r *Rank, kind evKind) {
	switch kind {
	case evCancel:
		panic(cancelPanic{})
	case evAbort:
		panic(abortPanic{err: e.ranks[r.id].abort})
	}
}

// watchCancel cancels the run once ctx is done: it publishes the cause,
// then wakes every parked rank with evCancel. Running ranks abort at their
// next instrumented op via cancelCheck. The watcher exits when the run
// ends.
func (e *eventEngine) watchCancel(ctx context.Context) {
	select {
	case <-ctx.Done():
	case <-e.done:
		return
	}
	e.c.markCancelled(ctx)
	e.mu.Lock()
	for id := range e.ranks {
		if blockedOp(e.ranks[id].op) {
			e.wake(id, evCancel)
		}
	}
	e.dispatch()
	e.mu.Unlock()
}

// exitedLocked reports whether rank id has exited. mu held; the mutex
// ordering makes the exit record exits[id] safe to read afterwards.
func (e *eventEngine) exitedLocked(id int) bool { return e.ranks[id].op == opExited }

// quiesce resolves an exact quiescence: no rank running, none runnable,
// some still live. Releases that need no virtual-time decision
// (peer-exit notifications, aborts of senders to exited peers) are applied
// before any timer fires, and the single earliest armed timer fires before
// deadlock is declared. mu held.
func (e *eventEngine) quiesce() {
	// (1) Ranks parked on a peer that exited: release them all, and let
	// each re-check (message first, then exit) on resume.
	woke := false
	for id := range e.ranks {
		rk := &e.ranks[id]
		if rk.runnable {
			continue
		}
		switch rk.op {
		case opBlockedRecv, opBlockedRecvTimer, opBlockedSendTimer:
			if e.ranks[rk.peer].op == opExited {
				e.wake(id, evWake)
				woke = true
			}
		}
	}
	if woke {
		return
	}
	// (2) A plain send to an exited peer whose buffer stayed full can
	// never complete. Abort those senders.
	var snap *ClusterSnapshot
	for id := range e.ranks {
		rk := &e.ranks[id]
		if rk.runnable || rk.op != opBlockedSend {
			continue
		}
		peer := int(rk.peer)
		if e.ranks[peer].op != opExited {
			continue
		}
		if e.c.pairOf(id, peer).length() < e.c.bufCap {
			continue // space opened; the send completes by itself
		}
		if snap == nil {
			snap = e.snapshotLocked()
		}
		err := &DeadlockError{Rank: id, Op: "send", Peer: peer, PeerExited: true, Snapshot: snap}
		e.c.emitDeadlock(DeadlockEvent{Err: err})
		rk.abort = err
		e.wake(id, evAbort)
		woke = true
	}
	if woke {
		return
	}
	// (3) Fire the single earliest armed virtual timer (ties to the
	// lowest rank id) — one per quiescence round, the timer.go rule that
	// keeps timeout-driven runs deterministic.
	best, bestD := -1, 0.0
	for id := range e.ranks {
		rk := &e.ranks[id]
		if rk.runnable || (rk.op != opBlockedRecvTimer && rk.op != opBlockedSendTimer) {
			continue
		}
		if best < 0 || rk.deadline < bestD {
			best, bestD = id, rk.deadline
		}
	}
	if best >= 0 {
		e.wake(best, evTimerFire)
		return
	}
	// (4) Deadlock: zero armed timers, nothing deliverable. Abort every
	// blocked rank with the shared wait graph and snapshot.
	graph := e.waitGraphLocked()
	if snap == nil {
		snap = e.snapshotLocked()
	}
	for id := range e.ranks {
		rk := &e.ranks[id]
		if rk.runnable || !blockedOp(rk.op) {
			continue
		}
		err := &DeadlockError{Rank: id, Op: opName(rk.op), Peer: int(rk.peer), Graph: graph, Snapshot: snap}
		e.c.emitDeadlock(DeadlockEvent{Err: err})
		rk.abort = err
		e.wake(id, evAbort)
	}
}

// waitGraphLocked renders the wait-for relation of the blocked ranks,
// e.g. "rank 3 waiting on rank 5, rank 5 waiting on rank 3". mu held.
func (e *eventEngine) waitGraphLocked() string {
	var b strings.Builder
	for id := range e.ranks {
		rk := &e.ranks[id]
		if !blockedOp(rk.op) {
			continue
		}
		if b.Len() > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "rank %d waiting on rank %d", id, rk.peer)
	}
	return "wait-for graph: " + b.String()
}

// snapshotLocked builds the cluster snapshot from the engine's exact wait
// records. mu held.
func (e *eventEngine) snapshotLocked() *ClusterSnapshot {
	snap := &ClusterSnapshot{Ranks: make([]RankSnapshot, e.c.p)}
	for id := range e.ranks {
		rk := &e.ranks[id]
		rs := RankSnapshot{Rank: id, Peer: -1}
		switch rk.op {
		case opBlockedRecv:
			rs.State, rs.Peer = "blocked-recv", int(rk.peer)
		case opBlockedSend:
			rs.State, rs.Peer = "blocked-send", int(rk.peer)
		case opBlockedRecvTimer:
			rs.State, rs.Peer = "blocked-recv-timer", int(rk.peer)
		case opBlockedSendTimer:
			rs.State, rs.Peer = "blocked-send-timer", int(rk.peer)
		case opExited:
			rs.State = "exited"
		default:
			rs.State = "running"
		}
		if rk.hasSeg && blockedOp(rk.op) {
			seg := rk.seg
			rs.LastSeg = &seg
		}
		snap.Ranks[id] = rs
	}
	snap.Queued = e.c.queuedPairs()
	return snap
}

// recvTimeoutEvent is RecvTimeout's blocking path: dequeue from src, parking
// with the armed deadline and resolving in a fixed priority order
// (message, peer exit, expiry). Neither got nor exited means the timer
// fired.
func (e *eventEngine) recvTimeoutEvent(r *Rank, src int, deadline float64) (msg message, got, exited bool) {
	q := r.queueFrom(src)
	fired := false
	for {
		if msg, got = q.pop(); got {
			e.notifyDrained(q, src, r.id)
			return
		}
		if r.cluster.exited[src].Load() {
			// Everything the peer ever sent was enqueued before its exit
			// was published; drain once more before reporting the exit.
			msg, got = q.pop()
			return msg, got, !got
		}
		if fired {
			return
		}
		kind := e.park(r, opBlockedRecvTimer, src, deadline, func() bool {
			return q.length() > 0 || e.exitedLocked(src)
		})
		e.checkResume(r, kind)
		fired = kind == evTimerFire
	}
}

// sendDeadlineEvent is deliverDeadline's blocking path: enqueue with a
// virtual deadline bounding the park, resolving in a fixed priority order
// (enqueue if space opened, then peer exit, then expiry). Neither sent nor
// exited means the timer fired.
func (e *eventEngine) sendDeadlineEvent(r *Rank, dst int, m message, deadline float64) (sent, exited bool) {
	q := r.queueTo(dst)
	fired := false
	for {
		if q.push(m) {
			e.notifyEnqueue(r.id, dst)
			return true, false
		}
		if r.cluster.exited[dst].Load() {
			// The peer's last dequeue happened before its exit was
			// published, so the queue is final: retry once before
			// reporting the exit.
			sent = q.push(m)
			return sent, !sent
		}
		if fired {
			return false, false
		}
		kind := e.park(r, opBlockedSendTimer, dst, deadline, func() bool {
			return q.length() < int(q.sem) || e.exitedLocked(dst)
		})
		e.checkResume(r, kind)
		fired = kind == evTimerFire
	}
}
