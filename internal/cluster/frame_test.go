package cluster

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"soleil/internal/adl"
	"soleil/internal/dist"
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
