package resilience

import (
	"fmt"

	"perfscale/internal/sim"
)

// Reliable is a per-rank endpoint adding typed frames, sequence numbers,
// checksums and acknowledgements to the raw simulator channels. It masks
// the message corruption and duplication a sim.FaultPlan injects:
//
//   - every payload travels as a DATA frame [kind, seq, checksum, data...];
//     a receiver that sees a bad checksum answers with a negative
//     acknowledgement and the sender retransmits;
//   - acknowledgements are ACK frames [kind, seq, flag, checksum], equally
//     checksummed: a damaged ack triggers a retransmission, which the
//     receiver recognizes as a duplicate and re-acknowledges;
//   - because a retransmission round can overlap the peer's next transfer
//     on the same pair, each endpoint classifies every incoming frame and
//     buffers data that arrives early while it still waits for an ack.
//
// The protocol is timer-free — virtual time has no timeouts — so it cannot
// retransmit a packet the network silently dropped: both ends stay blocked
// and the runtime reports the hang as a DeadlockError. It
// converges as long as the corruption probability on a link is below one
// (every retransmission rolls fresh deterministic dice).
//
// Each Reliable belongs to one rank; create it inside the SPMD function.
// Both endpoints of a conversation must use Reliable — the framing is not
// compatible with raw Rank.Send/Recv.
type Reliable struct {
	r        *sim.Rank
	nextSend map[int]int
	nextRecv map[int]int
	// pending holds data frames that arrived from a peer while this
	// endpoint was waiting for an ack; Recv drains it before the channel.
	pending map[int][]pendingFrame
}

type pendingFrame struct {
	seq  int
	data []float64
}

// NewReliable wraps a rank with the reliable-channel protocol.
func NewReliable(r *sim.Rank) *Reliable {
	return &Reliable{
		r:        r,
		nextSend: map[int]int{},
		nextRecv: map[int]int{},
		pending:  map[int][]pendingFrame{},
	}
}

// Frame kinds and ack flags. PING/PONG/BEAT are control frames only the
// timer-aware ARQ endpoint emits; classify recognizes them here so the two
// protocol generations share one frame grammar.
const (
	kindData = 1
	kindAck  = 2
	kindPing = 3
	kindPong = 4
	kindBeat = 5
	ackOK    = 1
	ackBad   = 0
)

// frameSum protects a whole frame: any single-word perturbation (the fault
// model's +1.0) shifts the sum.
func frameSum(words []float64) float64 {
	s := 0.0
	for _, v := range words {
		s += v
	}
	return s
}

func dataFrame(seq int, payload []float64) []float64 {
	f := make([]float64, 3+len(payload))
	f[0] = kindData
	f[1] = float64(seq)
	copy(f[3:], payload)
	f[2] = kindData + float64(seq) + frameSum(payload)
	return f
}

func ackFrame(seq, flag int) []float64 {
	return []float64{kindAck, float64(seq), float64(flag), kindAck + float64(seq) + float64(flag)}
}

// Frame classifications.
const (
	frameDamaged = iota
	frameData
	frameAck
	framePing
	framePong
	frameBeat
)

// ctlFrame builds a 4-word control frame (PING/PONG/BEAT) carrying one
// integer argument, checksummed like an ack.
func ctlFrame(kind, arg int) []float64 {
	return []float64{float64(kind), float64(arg), 0, float64(kind) + float64(arg)}
}

// classify validates a frame's checksum and returns its kind. A frame whose
// checksum fails — including one whose kind word was corrupted — is damaged.
func classify(f []float64) int {
	switch {
	case len(f) >= 3 && f[0] == kindData && f[2] == kindData+f[1]+frameSum(f[3:]):
		return frameData
	case len(f) == 4 && f[0] == kindAck && f[3] == kindAck+f[1]+f[2]:
		return frameAck
	case len(f) == 4 && f[3] == f[0]+f[1]+f[2]:
		switch f[0] {
		case kindPing:
			return framePing
		case kindPong:
			return framePong
		case kindBeat:
			return frameBeat
		}
		return frameDamaged
	default:
		return frameDamaged
	}
}

// Send delivers data to dst, retransmitting until the receiver acknowledges
// an uncorrupted copy.
func (rl *Reliable) Send(dst int, data []float64) {
	seq := rl.nextSend[dst]
	rl.nextSend[dst]++
	frame := dataFrame(seq, data)
	rl.r.Send(dst, frame)
	for {
		f := rl.r.Recv(dst)
		switch classify(f) {
		case frameAck:
			ackSeq, flag := int(f[1]), int(f[2])
			switch {
			case ackSeq == seq && flag == ackOK:
				return
			case ackSeq < seq:
				// Stale ack from an earlier exchange: absorb it.
			default:
				// Negative ack, or a crossed nack for a future sequence:
				// retransmitting the outstanding frame is always safe (the
				// receiver de-duplicates).
				rl.r.Send(dst, frame)
			}
		case frameData:
			// The peer concluded the previous transfer and moved on to
			// sending its own data before our ack arrived.
			rl.acceptData(dst, f)
		default:
			// Damaged beyond classification: it may have been our ack or
			// the peer's data. Cover both: retransmit the outstanding
			// frame and ask for a retransmission of whatever the peer may
			// have in flight.
			rl.r.Send(dst, frame)
			rl.r.Send(dst, ackFrame(rl.nextRecv[dst], ackBad))
		}
	}
}

// DefaultMaxPending bounds how many early data frames one peer may park in
// an endpoint's pending buffer. A correct peer alternates data with the
// acks this endpoint is waiting for, so the buffer stays shallow; unbounded
// growth means the peer is streaming without ever consuming — a protocol
// bug that used to manifest as an out-of-memory kill long after the cause.
const DefaultMaxPending = 256

// PendingOverflowError reports a peer that pushed more early data frames
// than the endpoint is willing to buffer. Reliable panics with it (sim.Run
// converts the panic into a per-rank error that errors.As can unwrap); the
// ARQ endpoint returns it.
type PendingOverflowError struct {
	Rank, Peer int
	// Limit is the buffer bound that was exceeded.
	Limit int
}

// Error implements error.
func (e *PendingOverflowError) Error() string {
	return fmt.Sprintf("resilience: rank %d: peer %d overflowed the pending buffer (> %d early data frames; peer streams without consuming)",
		e.Rank, e.Peer, e.Limit)
}

// acceptData handles a valid incoming data frame outside Recv: duplicates
// are re-acknowledged (their ack may have been damaged), in-order data is
// buffered for a later Recv. It does not acknowledge buffered data — the
// matching Recv does, which keeps the peer's ack-wait alive until this
// endpoint has genuinely caught up.
func (rl *Reliable) acceptData(peer int, f []float64) {
	seq := int(f[1])
	switch expected := rl.nextRecv[peer]; {
	case seq < expected:
		rl.r.Send(peer, ackFrame(seq, ackOK))
	case seq == expected:
		if len(rl.pending[peer]) >= DefaultMaxPending {
			panic(&PendingOverflowError{Rank: rl.r.ID(), Peer: peer, Limit: DefaultMaxPending})
		}
		payload := make([]float64, len(f)-3)
		copy(payload, f[3:])
		rl.pending[peer] = append(rl.pending[peer], pendingFrame{seq: seq, data: payload})
		rl.nextRecv[peer] = expected + 1
	default:
		panic(fmt.Sprintf("resilience: rank %d expected seq <= %d from rank %d, got %d (endpoint not using Reliable?)",
			rl.r.ID(), expected, peer, seq))
	}
}

// Recv returns the next in-order uncorrupted payload from src.
func (rl *Reliable) Recv(src int) []float64 {
	if q := rl.pending[src]; len(q) > 0 {
		rl.pending[src] = q[1:]
		rl.r.Send(src, ackFrame(q[0].seq, ackOK))
		return q[0].data
	}
	expected := rl.nextRecv[src]
	for {
		f := rl.r.Recv(src)
		switch classify(f) {
		case frameData:
			seq := int(f[1])
			switch {
			case seq == expected:
				rl.nextRecv[src] = expected + 1
				rl.r.Send(src, ackFrame(seq, ackOK))
				out := make([]float64, len(f)-3)
				copy(out, f[3:])
				return out
			case seq < expected:
				rl.r.Send(src, ackFrame(seq, ackOK))
			default:
				panic(fmt.Sprintf("resilience: rank %d expected seq %d from rank %d, got %d (endpoint not using Reliable?)",
					rl.r.ID(), expected, src, seq))
			}
		case frameAck:
			// A stale or crossed ack from a concluded exchange: absorb.
		default:
			rl.r.Send(src, ackFrame(expected, ackBad))
		}
	}
}

// AllReduceSum combines every rank's equal-length vector elementwise over a
// binomial tree (reduce to rank 0, broadcast back) carried entirely on the
// reliable channel, so a corrupted link cannot silently alter the result —
// the failure detector rides on this, and a detector that can be corrupted
// into seeing phantom crashes would desynchronize the recovery protocol.
// Every rank of the cluster must call it in the same program position.
func (rl *Reliable) AllReduceSum(data []float64) []float64 {
	r := rl.r
	p, me := r.P(), r.ID()
	acc := make([]float64, len(data))
	copy(acc, data)
	parent := -1
	for bit := 1; bit < p; bit <<= 1 {
		if me&bit != 0 {
			parent = me &^ bit
			rl.Send(parent, acc)
			break
		}
		if partner := me | bit; partner < p {
			contrib := rl.Recv(partner)
			r.Compute(float64(len(acc)))
			for i, v := range contrib {
				acc[i] += v
			}
		}
	}
	if parent >= 0 {
		acc = rl.Recv(parent)
	}
	low := me & -me
	if me == 0 {
		low = 1
		for low < p {
			low <<= 1
		}
	}
	for bit := low >> 1; bit > 0; bit >>= 1 {
		if child := me | bit; child != me && child < p {
			rl.Send(child, acc)
		}
	}
	return acc
}
