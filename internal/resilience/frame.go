package resilience

import "fmt"

// The frame grammar of the reliable endpoint (arq.go). A payload travels
// as a DATA frame [kind, seq, checksum, data...]; a bad checksum draws a
// negative ack and a retransmission. ACK frames [kind, seq, flag, checksum]
// are checksummed too: a damaged ack triggers a retransmission, which the
// receiver recognizes as a duplicate and re-acknowledges. PING/PONG/BEAT
// are 4-word control frames that carry liveness.

// pendingFrame is a data frame that arrived early, while its endpoint was
// still waiting for an ack; a later Recv consumes it.
type pendingFrame struct {
	seq  int
	data []float64
}

// Frame kinds and ack flags.
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

// DefaultMaxPending bounds how many early data frames one peer may park in
// an endpoint's pending buffer. A correct peer alternates data with the
// acks this endpoint is waiting for, so the buffer stays shallow; unbounded
// growth means the peer is streaming without ever consuming — a protocol
// bug that used to manifest as an out-of-memory kill long after the cause.
const DefaultMaxPending = 256

// PendingOverflowError reports a peer that pushed more early data frames
// than the endpoint is willing to buffer; ARQ's Send and Recv return it.
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
