package sim

import (
	"sync"
	"sync/atomic"
)

// Pair queues are wired on demand. A dense p×p matrix of queues would cap
// a run at modest p: p = 4096 is ~16.7M queues before the first flop. The
// algorithms in this repository touch only O(log p) distinct peers per
// rank (grid neighbours, tree parents/children, fiber partners), so almost
// all of that matrix would be dead weight. Instead each rank owns a
// mailbox, a small mutex-protected map from sender id to the pair's FIFO
// queue, and both endpoints get-or-create the queue on their first
// Send/Recv across the pair. Memory then scales with the number of
// *active* communication pairs, O(p·log p) for the 2.5D/CAPS/FFT patterns
// here, instead of p².

// pairQ is one ordered src→dst FIFO: a fixed-capacity single-producer
// single-consumer ring. A full or empty queue parks the rank in the engine
// rather than blocking a thread, so the fast path needs no lock: the
// producer owns tail, the consumer owns head, and each side reads the
// other's cursor atomically. Go's atomics are sequentially consistent, so
// the buffer write before tail.Store is visible to a consumer that loads
// the new tail (and symmetrically for slot reuse after head.Store). The
// backing array is sized to the next power of two above the semantic
// capacity and allocated lazily by the producer on first enqueue: pairs
// that only ever carry conducted collective traffic (direct handoff, see
// ffRecv) never materialize a buffer at all.
//
// The SPSC invariant holds because a pair has exactly one sending and one
// receiving rank, a rank executes on one carrier at a time, and conducted
// collectives (comm_ff.go) touch a member's pairs only while that member is
// parked — every ownership handoff goes through the engine lock.
type pairQ struct {
	head atomic.Uint32 // consumer cursor
	tail atomic.Uint32 // producer cursor
	sem  uint32        // semantic capacity (Cost.ChanCap)
	mask uint32        // len(buf)-1
	buf  []message
}

func (q *pairQ) init(bufCap int) {
	n := 1
	for n < bufCap {
		n <<= 1
	}
	q.sem = uint32(bufCap)
	q.mask = uint32(n - 1)
}

// length is safe to call from either side (and from the quiesced engine).
func (q *pairQ) length() int { return int(q.tail.Load() - q.head.Load()) }

// push enqueues m, failing when the semantic capacity is reached.
// Producer side only.
func (q *pairQ) push(m message) bool {
	t := q.tail.Load()
	if t-q.head.Load() >= q.sem {
		return false
	}
	if q.buf == nil {
		q.buf = make([]message, q.mask+1)
	}
	q.buf[t&q.mask] = m
	q.tail.Store(t + 1)
	return true
}

// pop dequeues the head message. Consumer side only. The slot is zeroed so
// the ring does not pin delivered payloads for the GC.
func (q *pairQ) pop() (message, bool) {
	h := q.head.Load()
	if q.tail.Load() == h {
		return message{}, false
	}
	m := q.buf[h&q.mask]
	q.buf[h&q.mask] = message{}
	q.head.Store(h + 1)
	return m, true
}

// mailbox holds one rank's incoming per-pair queues, keyed by sender id.
// Senders and receivers get-or-create a pair's queue under the mutex on
// first contact; after that, both sides use their rank-local cached handle
// and the lock is never touched again for the pair.
type mailbox struct {
	mu     sync.Mutex
	queues map[int]*pairQ
}

// pairOf returns the FIFO queue for the ordered pair src→dst, creating it
// on first use. The map entry itself is the unit the wiring accounting
// (ActivePairs) counts.
func (c *Cluster) pairOf(src, dst int) *pairQ {
	mb := &c.mail[dst]
	mb.mu.Lock()
	q := mb.queues[src]
	if q == nil {
		if mb.queues == nil {
			mb.queues = make(map[int]*pairQ, 8)
		}
		q = &pairQ{}
		q.init(c.bufCap)
		mb.queues[src] = q
	}
	mb.mu.Unlock()
	return q
}

// pairCache is a two-slot MRU cache in front of a rank's out/in map. The
// hot loops of the grid algorithms alternate between exactly two peers
// (row neighbour, column neighbour), so the second slot turns nearly every
// map lookup on the steady-state path into two compares. The zero value is
// empty (nil queue pointers mark unused slots).
type pairCache struct {
	k1, k2 int
	q1, q2 *pairQ
}

func (pc *pairCache) get(k int) *pairQ {
	if pc.k1 == k {
		return pc.q1 // nil when the slot is unused: caller falls through
	}
	if pc.k2 == k && pc.q2 != nil {
		pc.k1, pc.k2 = k, pc.k1
		pc.q1, pc.q2 = pc.q2, pc.q1
		return pc.q1
	}
	return nil
}

func (pc *pairCache) put(k int, q *pairQ) {
	pc.k1, pc.k2 = k, pc.k1
	pc.q1, pc.q2 = q, pc.q1
}

// queueTo returns the rank's outgoing queue towards dst, memoizing the
// lookup so the mailbox lock is taken at most once per peer.
func (r *Rank) queueTo(dst int) *pairQ {
	if q := r.outC.get(dst); q != nil {
		return q
	}
	if q, ok := r.out[dst]; ok {
		r.outC.put(dst, q)
		return q
	}
	if r.out == nil {
		r.out = make(map[int]*pairQ, 16)
	}
	q := r.cluster.pairOf(r.id, dst)
	r.out[dst] = q
	r.outC.put(dst, q)
	return q
}

// queueFrom returns the rank's incoming queue from src, memoized like
// queueTo.
func (r *Rank) queueFrom(src int) *pairQ {
	if q := r.inC.get(src); q != nil {
		return q
	}
	if q, ok := r.in[src]; ok {
		r.inC.put(src, q)
		return q
	}
	if r.in == nil {
		r.in = make(map[int]*pairQ, 16)
	}
	q := r.cluster.pairOf(src, r.id)
	r.in[src] = q
	r.inC.put(src, q)
	return q
}

// ActivePairs reports how many ordered communication pairs were actually
// wired during the run — the quantity the wiring's memory scales with.
// Call it after Run returns.
func (c *Cluster) ActivePairs() int {
	n := 0
	for i := range c.mail {
		mb := &c.mail[i]
		mb.mu.Lock()
		n += len(mb.queues)
		mb.mu.Unlock()
	}
	return n
}
