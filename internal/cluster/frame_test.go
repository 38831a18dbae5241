package cluster

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"soleil/internal/adl"
	"soleil/internal/dist"
	"soleil/internal/obs"
)

func TestHelloRoundTripAndRejects(t *testing.T) {
	h := hello{Node: "alpha", Link: "Sensor.out->Worker.in"}
	frame := appendHello(nil, h)
	got, err := decodeHello(frame)
	if err != nil || got != h {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	for n := 0; n < len(frame); n++ {
		if _, err := decodeHello(frame[:n]); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte hello accepted", n, len(frame))
		}
	}
	if _, err := decodeHello(append(frame, 0)); err == nil {
		t.Fatal("hello with a trailing byte accepted")
	}
	for _, empty := range []hello{{Node: "alpha"}, {Link: "l"}, {}} {
		if _, err := decodeHello(appendHello(nil, empty)); err == nil {
			t.Fatalf("hello %+v with an empty field accepted", empty)
		}
	}
}

// TestSessionSendReceiveSymmetric: a session is a dist.Transport, so a
// payload one side Sends is the payload the other side Receives, and a
// frame the link writer built whole arrives the same way.
func TestSessionSendReceiveSymmetric(t *testing.T) {
	a, b := dist.NewPipe()
	tx := newSession(a, time.Hour, sessionHooks{})
	rx := newSession(b, time.Hour, sessionHooks{})
	defer tx.Close()
	defer rx.Close()
	if err := tx.Send([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := tx.sendFrame([]byte{frameData, 4, 5}); err != nil {
		t.Fatal(err)
	}
	for _, want := range [][]byte{{1, 2, 3}, {4, 5}} {
		got, err := rx.Receive()
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Receive = %v, %v; want %v", got, err, want)
		}
	}
}

// exampleHellos are the hellos the dialing nodes of examples/cluster
// send, one per link of its plan.
func exampleHellos(tb testing.TB) [][]byte {
	tb.Helper()
	arch, err := adl.DecodeFile(filepath.Join("..", "..", "examples", "cluster", "cluster.xml"))
	if err != nil {
		tb.Fatal(err)
	}
	dep, err := adl.DecodeDeploymentFile(filepath.Join("..", "..", "examples", "cluster", "deploy.xml"))
	if err != nil {
		tb.Fatal(err)
	}
	plan, err := Compute(arch, dep)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, l := range plan.Links {
		out = append(out, appendHello(nil, hello{Node: l.ClientNode, Link: l.ID}))
	}
	return out
}

// FuzzReadHello feeds arbitrary first frames to the handshake decoder
// readHello applies. It must never panic, and a hello that decodes
// must decode to the same names once re-encoded.
func FuzzReadHello(f *testing.F) {
	for _, frame := range exampleHellos(f) {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		h, err := decodeHello(frame)
		if err != nil {
			return
		}
		back, err := decodeHello(appendHello(nil, h))
		if err != nil || back != h {
			t.Fatalf("re-encoded hello %+v decodes to %+v, %v", h, back, err)
		}
	})
}

// streamConn is a net.Conn that reads one byte stream and discards
// what is written to it: the inbound half of a link, without a socket.
// Only Read, Write and Close are implemented.
type streamConn struct {
	net.Conn
	r io.Reader
}

func (c *streamConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *streamConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *streamConn) Close() error                { return nil }

// sessionEvent is one frame a session hands on: a data payload that
// Receive returns, or a stats payload that reaches onStats.
type sessionEvent struct {
	kind    byte
	payload []byte
}

// expectedEvents is what a session must make of a stream of
// length-prefixed frames: the data and stats payloads in stream order,
// up to the first frame that ends the session (truncated, oversized,
// empty or of an unknown type, or the end of the stream).
func expectedEvents(stream []byte) []sessionEvent {
	var out []sessionEvent
	for len(stream) >= 4 {
		n := uint64(binary.BigEndian.Uint32(stream))
		if n > dist.MaxFrame || n > uint64(len(stream)-4) {
			break
		}
		frame := stream[4 : 4+n]
		stream = stream[4+n:]
		if len(frame) == 0 {
			break
		}
		switch frame[0] {
		case frameBeat:
		case frameStats, frameData:
			out = append(out, sessionEvent{frame[0], frame[1:]})
		default:
			return out
		}
	}
	return out
}

// appendFrame appends one length-prefixed frame of type typ.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(1+len(payload)))
	return append(append(dst, typ), payload...)
}

// sessionStreams are the fuzz seeds: a link's usual traffic and the
// ways a stream can end.
func sessionStreams(tb testing.TB) [][]byte {
	tb.Helper()
	env, err := dist.AppendMessage(nil, "in", "put", int64(42), obs.SpanContext{TraceID: 1, SpanID: 2})
	if err != nil {
		tb.Fatal(err)
	}
	traffic := appendFrame(nil, frameBeat, nil)
	traffic = appendFrame(traffic, frameStats, []byte{1, 2, 3, 4})
	traffic = appendFrame(traffic, frameData, env)
	traffic = appendFrame(traffic, frameBeat, nil)
	traffic = appendFrame(traffic, frameData, env)
	huge := binary.BigEndian.AppendUint32(nil, dist.MaxFrame+1)
	claim := append(binary.BigEndian.AppendUint32(nil, dist.MaxFrame), frameData, 1, 2)
	return [][]byte{
		traffic,
		appendFrame(traffic[:len(traffic):len(traffic)], 'X', []byte("unknown")),
		append(traffic[:len(traffic):len(traffic)], 0, 0, 0, 0),
		append(traffic[:len(traffic):len(traffic)], huge...),
		append(traffic[:len(traffic):len(traffic)], claim...),
		traffic[:len(traffic)-3],
	}
}

// FuzzSessionReceive feeds a byte stream of length-prefixed frames
// (beats, stats, data, unknown types, truncated and oversized ones)
// through a connection transport and a session, as an import link
// reads its peer. It must never panic. Every data payload must come
// out of Receive and every stats payload reach onStats unchanged, in
// stream order, and the first frame that cannot be read must end the
// session with an error. Receiving may allocate one read chunk plus a
// constant times the stream's length, whatever the prefixes claim.
func FuzzSessionReceive(f *testing.F) {
	for _, s := range sessionStreams(f) {
		f.Add(s)
	}
	const readChunk = 64 << 10 // the most dist holds for a frame before its bytes arrive
	f.Fuzz(func(t *testing.T, stream []byte) {
		var got []sessionEvent
		s := newSession(dist.NewConn(&streamConn{r: bytes.NewReader(stream)}), time.Hour, sessionHooks{
			onStats: func(p []byte) { got = append(got, sessionEvent{frameStats, bytes.Clone(p)}) },
		})
		defer s.Close()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for {
			p, err := s.Receive()
			if err != nil {
				break
			}
			got = append(got, sessionEvent{frameData, p})
		}
		runtime.ReadMemStats(&ms)
		if used, limit := ms.TotalAlloc-before, uint64(readChunk+16*len(stream)+16<<10); used > limit {
			t.Fatalf("receiving a %d-byte stream allocated %d bytes, limit %d", len(stream), used, limit)
		}
		want := expectedEvents(stream)
		if len(got) != len(want) {
			t.Fatalf("session handed on %d frames, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].kind != want[i].kind || !bytes.Equal(got[i].payload, want[i].payload) {
				t.Fatalf("frame %d = %q %x, want %q %x", i, got[i].kind, got[i].payload, want[i].kind, want[i].payload)
			}
		}
	})
}
