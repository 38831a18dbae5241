package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"soleil/internal/dist"
)

// Frame types of the cluster session protocol, carried as the first
// byte of every dist frame. A connection opens with one hello (the
// dialing node names itself and the link it is carrying), then
// alternates data and heartbeat frames in both directions.
const (
	frameHello = 'H'
	frameData  = 'D'
	frameBeat  = 'B'
	// frameStats is a heartbeat that carries an obs latency digest:
	// the server side of a link piggybacks its component's histogram
	// (and breach state) onto the beat cadence, so the client can
	// evaluate a cross-node SLO without scraping anything.
	frameStats = 'S'
)

// DefaultBeat is the heartbeat interval of a session; a session that
// hears nothing from its peer for staleFactor beats closes itself so
// a silently dead peer cannot wedge a link forever.
const (
	DefaultBeat = 250 * time.Millisecond
	staleFactor = 8
)

// hello is the handshake a dialing node sends first on a link
// connection: frameHello, then the node and link names as the
// envelope's uvarint-length strings (dist.AppendString).
type hello struct {
	Node string
	Link string
}

func appendHello(dst []byte, h hello) []byte {
	return dist.AppendString(dist.AppendString(append(dst, frameHello), h.Node), h.Link)
}

// decodeHello parses a hello frame. A frame that is truncated, has
// trailing bytes or names an empty node or link is refused.
func decodeHello(frame []byte) (hello, error) {
	if frameByte(frame) != frameHello {
		return hello{}, fmt.Errorf("cluster: expected hello, got frame type %q", frameByte(frame))
	}
	node, rest, nodeOK := dist.ReadString(frame[1:])
	link, rest, linkOK := dist.ReadString(rest)
	if !nodeOK || !linkOK || len(rest) != 0 {
		return hello{}, fmt.Errorf("cluster: malformed hello")
	}
	if node == "" || link == "" {
		return hello{}, fmt.Errorf("cluster: hello missing node or link")
	}
	return hello{Node: node, Link: link}, nil
}

func sendHello(tr dist.Transport, h hello) error {
	return tr.Send(appendHello(nil, h))
}

func readHello(tr dist.Transport) (hello, error) {
	frame, err := tr.Receive()
	if err != nil {
		return hello{}, err
	}
	return decodeHello(frame)
}

func frameByte(frame []byte) byte {
	if len(frame) == 0 {
		return 0
	}
	return frame[0]
}

// sessionHooks customizes a session's heartbeat plane. All hooks are
// optional; the zero value is a plain beat/stale session.
type sessionHooks struct {
	// stats, when set, is polled once per beat tick; a non-empty
	// payload is sent as a frameStats heartbeat in place of the plain
	// beat. The returned slice is only read until the send returns, so
	// providers may reuse a buffer across calls.
	stats func() []byte
	// onStats receives the payload of every inbound frameStats frame.
	// It runs on the Receive goroutine; keep it quick.
	onStats func(payload []byte)
	// onStale fires once, just before the session closes itself
	// because the peer went silent for staleFactor beats.
	onStale func()
}

// session wraps a transport with the framed cluster protocol: Send
// prefixes data frames, sendFrame transmits a data frame its caller
// built whole, Receive strips inbound heartbeats (handing
// stats-bearing ones to the hooks), and a background beater keeps the
// connection warm in both directions and closes it when the peer has
// gone stale. A session is itself a dist.Transport, so an Importer
// pumps it unchanged.
type session struct {
	tr     dist.Transport
	beat   time.Duration
	hooks  sessionHooks
	lastIn atomic.Int64 // unix nanos of the last inbound frame

	once sync.Once
	stop chan struct{}
}

var _ dist.Transport = (*session)(nil)

func newSession(tr dist.Transport, beat time.Duration, hooks sessionHooks) *session {
	if beat <= 0 {
		beat = DefaultBeat
	}
	s := &session{tr: tr, beat: beat, hooks: hooks, stop: make(chan struct{})}
	s.lastIn.Store(time.Now().UnixNano())
	go s.beater()
	return s
}

// beater emits one heartbeat per interval and enforces staleness: a
// peer that has sent nothing (neither data nor beats) for staleFactor
// intervals is presumed dead and the session closes, unblocking the
// local reader so the owner can reconnect. When a stats provider is
// installed its digest rides the beat frame, so cross-node SLO
// telemetry costs no extra connections and no extra wakeups.
func (s *session) beater() {
	ticker := time.NewTicker(s.beat)
	defer ticker.Stop()
	var frame []byte // reused across ticks; beats stay allocation-free
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			if time.Since(time.Unix(0, s.lastIn.Load())) > time.Duration(staleFactor)*s.beat {
				if s.hooks.onStale != nil {
					s.hooks.onStale()
				}
				_ = s.Close()
				return
			}
			frame = append(frame[:0], frameBeat)
			if s.hooks.stats != nil {
				if p := s.hooks.stats(); len(p) > 0 {
					frame = append(frame[:0], frameStats)
					frame = append(frame, p...)
				}
			}
			if err := s.tr.Send(frame); err != nil {
				_ = s.Close()
				return
			}
		}
	}
}

// Send transmits one data payload.
func (s *session) Send(payload []byte) error {
	return s.sendFrame(append([]byte{frameData}, payload...))
}

// sendFrame transmits a data frame that already begins with frameData,
// as outLink.Send encodes each message behind it, so the link's writer
// sends every frame without a second allocation or copy.
func (s *session) sendFrame(frame []byte) error { return s.tr.Send(frame) }

// Receive blocks until the next data payload, absorbing heartbeats.
func (s *session) Receive() ([]byte, error) {
	for {
		frame, err := s.tr.Receive()
		if err != nil {
			return nil, err
		}
		s.lastIn.Store(time.Now().UnixNano())
		switch frameByte(frame) {
		case frameBeat:
			continue
		case frameStats:
			if s.hooks.onStats != nil {
				s.hooks.onStats(frame[1:])
			}
			continue
		case frameData:
			return frame[1:], nil
		default:
			return nil, fmt.Errorf("cluster: unexpected frame type %q", frameByte(frame))
		}
	}
}

// Close shuts the session and its transport down.
func (s *session) Close() error {
	var err error
	s.once.Do(func() {
		close(s.stop)
		err = s.tr.Close()
	})
	return err
}
