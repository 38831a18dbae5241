// Package dist implements the paper's declared future-work extension
// (Sect. 7): distribution support. An asynchronous binding can span
// two deployed systems — the client side exports its interface onto a
// transport, the server side imports the transport into a component's
// dataplane. Messages are serialized at Send so no reference ever
// crosses the system boundary, which makes distribution a natural
// extension of the deep-copy pattern: the same discipline that keeps
// scoped references from escaping also keeps them node-local. The
// wire envelope (wire.go) is a fixed binary layout: interface,
// operation and span context, then the argument, natively for int and
// int64 and as gob for any other (registered) payload type, sealed by
// a CRC-32C that a receiver checks before it reads anything.
//
// The design follows the DiSCo space-oriented middleware the paper
// relates to (Sect. 6): components keep their local RTSJ disciplines;
// only value messages travel.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"soleil/internal/qos"
)

// ErrClosed is returned by transport operations after Close.
var ErrClosed = errors.New("dist: transport closed")

// ErrFrameTooLarge is returned when a frame exceeds MaxFrame — on
// Send for oversized payloads, on Receive for oversized (or corrupt)
// length prefixes. After a Receive failure the stream is no longer
// framed; the caller must close the transport.
var ErrFrameTooLarge = errors.New("dist: frame exceeds size limit")

// ErrBackpressure is returned by a bounded-wait Send when the peer
// has not drained the pipe within the send deadline: the receiver is
// stalled and the message was not accepted. It is the framework-wide
// qos.ErrBackpressure sentinel, so errors.Is recognizes a stalled
// transport, a shedding admission gate and a full buffer alike.
var ErrBackpressure = qos.ErrBackpressure

// MaxFrame is the largest frame a transport accepts (16 MiB). A
// length prefix above it is treated as corrupt, so a malformed or
// hostile peer cannot make Receive allocate unboundedly.
const MaxFrame = 1 << 24

// DefaultSendWait is how long a pipe Send waits on a full buffer
// before failing with ErrBackpressure.
const DefaultSendWait = 2 * time.Second

// Transport carries opaque serialized messages between two systems.
type Transport interface {
	// Send transmits one message.
	Send(payload []byte) error
	// Receive blocks until a message arrives; it returns ErrClosed
	// when the transport has shut down.
	Receive() ([]byte, error)
	// Close shuts the transport down, unblocking Receive on both
	// sides.
	Close() error
}

// --- in-process pipe ---------------------------------------------------------------

type pipeEnd struct {
	out      chan []byte
	in       chan []byte
	mu       sync.Mutex
	closed   chan struct{}
	once     sync.Once
	peer     *pipeEnd
	sendWait time.Duration
}

// NewPipe creates a connected in-process transport pair, useful for
// tests and single-process multi-system deployments. Sends on a full
// pipe wait at most DefaultSendWait before failing with
// ErrBackpressure.
func NewPipe() (Transport, Transport) {
	return NewBoundedPipe(64, DefaultSendWait)
}

// NewBoundedPipe creates a pipe pair with an explicit per-direction
// buffer capacity and send deadline: a Send finding the buffer full
// waits at most sendWait for the receiver to drain it, then fails
// with ErrBackpressure instead of wedging the sender forever.
func NewBoundedPipe(capacity int, sendWait time.Duration) (Transport, Transport) {
	if capacity <= 0 {
		capacity = 1
	}
	if sendWait <= 0 {
		sendWait = DefaultSendWait
	}
	ab := make(chan []byte, capacity)
	ba := make(chan []byte, capacity)
	a := &pipeEnd{out: ab, in: ba, closed: make(chan struct{}), sendWait: sendWait}
	b := &pipeEnd{out: ba, in: ab, closed: make(chan struct{}), sendWait: sendWait}
	a.peer, b.peer = b, a
	return a, b
}

func (p *pipeEnd) Send(payload []byte) error {
	cp := make([]byte, len(payload))
	copy(cp, payload)
	// The closed check takes priority over an available buffer slot.
	select {
	case <-p.closed:
		return ErrClosed
	case <-p.peer.closed:
		return ErrClosed
	default:
	}
	// Fast path: buffer slot available without arming a timer.
	select {
	case <-p.closed:
		return ErrClosed
	case <-p.peer.closed:
		return ErrClosed
	case p.out <- cp:
		return nil
	default:
	}
	timer := time.NewTimer(p.sendWait)
	defer timer.Stop()
	select {
	case <-p.closed:
		return ErrClosed
	case <-p.peer.closed:
		return ErrClosed
	case p.out <- cp:
		return nil
	case <-timer.C:
		return fmt.Errorf("%w (after %v)", ErrBackpressure, p.sendWait)
	}
}

func (p *pipeEnd) Receive() ([]byte, error) {
	select {
	case msg := <-p.in:
		return msg, nil
	case <-p.closed:
		// Drain messages queued before close.
		select {
		case msg := <-p.in:
			return msg, nil
		default:
			return nil, ErrClosed
		}
	case <-p.peer.closed:
		select {
		case msg := <-p.in:
			return msg, nil
		default:
			return nil, ErrClosed
		}
	}
}

func (p *pipeEnd) Close() error {
	p.once.Do(func() { close(p.closed) })
	return nil
}

// --- net.Conn framing ----------------------------------------------------------------

type connTransport struct {
	conn net.Conn
	rmu  sync.Mutex
	wmu  sync.Mutex
	wbuf []byte // length prefix + payload of the frame being written; guarded by wmu
}

// NewConn wraps a stream connection (e.g. TCP) with length-prefixed
// message framing.
func NewConn(conn net.Conn) Transport {
	return &connTransport{conn: conn}
}

// Send writes the length prefix and the payload with one Write, so a
// frame costs one syscall.
func (t *connTransport) Send(payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: sending %d bytes (limit %d)", ErrFrameTooLarge, len(payload), MaxFrame)
	}
	t.wmu.Lock()
	defer t.wmu.Unlock()
	t.wbuf = binary.BigEndian.AppendUint32(t.wbuf[:0], uint32(len(payload)))
	t.wbuf = append(t.wbuf, payload...)
	_, err := t.conn.Write(t.wbuf)
	return mapClosed(err)
}

func (t *connTransport) Receive() ([]byte, error) {
	t.rmu.Lock()
	defer t.rmu.Unlock()
	var hdr [4]byte
	if _, err := io.ReadFull(t.conn, hdr[:]); err != nil {
		return nil, mapClosed(err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		// An oversized prefix is indistinguishable from a corrupt
		// one; refuse before allocating n bytes on a peer's say-so.
		return nil, fmt.Errorf("%w: length prefix claims %d bytes (limit %d)", ErrFrameTooLarge, n, MaxFrame)
	}
	// Read the payload into a buffer that starts at one chunk and
	// doubles only when it is full, so what a frame holds is bounded
	// by the bytes that arrived, not by what the prefix claims.
	payload := make([]byte, min(int(n), frameChunk))
	got := 0
	for {
		k, err := io.ReadFull(t.conn, payload[got:])
		got += k
		if err != nil {
			return nil, mapClosed(err)
		}
		if got == int(n) {
			return payload, nil
		}
		payload = append(payload, make([]byte, min(int(n), 2*got)-got)...)
	}
}

// frameChunk is the most a Receive holds for a frame before that
// frame's bytes arrive.
const frameChunk = 64 << 10

func (t *connTransport) Close() error { return t.conn.Close() }

func mapClosed(err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
		return ErrClosed
	}
	return err
}
