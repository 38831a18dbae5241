package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConnReceiveRefusesOversizedPrefix: a corrupt or hostile length
// prefix must fail with a typed error before any allocation, not make
// Receive allocate gigabytes on the peer's say-so.
func TestConnReceiveRefusesOversizedPrefix(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
		_, _ = client.Write(hdr[:])
	}()
	_, err := NewConn(server).Receive()
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("receive: %v", err)
	}
}

// TestConnReceiveHoldsWhatArrived: a prefix may claim up to MaxFrame
// and then send nothing. A Receive blocked on such a frame must hold
// memory for the bytes that came, not for the claim: eight stalled
// connections, each claiming MaxFrame, hold less than 1 MiB together.
func TestConnReceiveHoldsWhatArrived(t *testing.T) {
	const conns = 8
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	var wg sync.WaitGroup
	writers := make([]net.Conn, 0, conns)
	for i := 0; i < conns; i++ {
		client, server := net.Pipe()
		writers = append(writers, client)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer server.Close()
			if _, err := NewConn(server).Receive(); err == nil {
				t.Error("a truncated frame was received")
			}
		}()
		var hdr [5]byte
		binary.BigEndian.PutUint32(hdr[:4], MaxFrame)
		// A pipe write returns once the reader has taken every byte,
		// so after it the receiver holds its payload buffer.
		if _, err := client.Write(hdr[:]); err != nil {
			t.Fatal(err)
		}
	}
	held := int64(heap()) - int64(before)
	for _, c := range writers {
		c.Close()
	}
	wg.Wait()
	if held >= 1<<20 {
		t.Fatalf("%d receives stalled on MaxFrame claims hold %d KiB, want < 1024", conns, held>>10)
	}
}

// TestConnReceiveGrowsWithArrivingBytes: a frame larger than the read
// chunk, written in small pieces, arrives whole and unchanged.
func TestConnReceiveGrowsWithArrivingBytes(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	want := make([]byte, 5*frameChunk/2+3)
	for i := range want {
		want[i] = byte(i * 7)
	}
	go func() {
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(want)))
		frame = append(frame, want...)
		for len(frame) > 0 {
			k := min(len(frame), 1000)
			if _, err := client.Write(frame[:k]); err != nil {
				return
			}
			frame = frame[k:]
		}
	}()
	got, err := NewConn(server).Receive()
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("received %d bytes, %v; want the %d sent", len(got), err, len(want))
	}
}

func TestConnSendRefusesOversizedPayload(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	err := NewConn(client).Send(make([]byte, MaxFrame+1))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("send: %v", err)
	}
	// Nothing was written: the connection is still cleanly framed.
	go func() { _ = NewConn(client).Send([]byte("ok")) }()
	msg, err := NewConn(server).Receive()
	if err != nil || string(msg) != "ok" {
		t.Fatalf("after refusal: %q, %v", msg, err)
	}
}

// TestBoundedPipeBackpressure: a stalled receiver turns Send into a
// typed ErrBackpressure after the deadline instead of wedging the
// sender forever.
func TestBoundedPipeBackpressure(t *testing.T) {
	a, b := NewBoundedPipe(1, 20*time.Millisecond)
	if err := a.Send([]byte("1")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := a.Send([]byte("2"))
	if !errors.Is(err, ErrBackpressure) {
		t.Fatalf("send on full pipe: %v", err)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("failed after %v, before the deadline", waited)
	}
	// Draining unblocks further sends.
	if msg, err := b.Receive(); err != nil || string(msg) != "1" {
		t.Fatalf("drain: %q, %v", msg, err)
	}
	if err := a.Send([]byte("3")); err != nil {
		t.Fatalf("send after drain: %v", err)
	}
}

// TestPipeConcurrentSendReceiveClose hammers both pipe ends from many
// goroutines while a closer races them; run under -race this verifies
// the transport's synchronization.
func TestPipeConcurrentSendReceiveClose(t *testing.T) {
	a, b := NewBoundedPipe(4, 5*time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := a.Send([]byte{byte(i)}); err != nil {
					if errors.Is(err, ErrClosed) {
						return
					}
					if errors.Is(err, ErrBackpressure) {
						continue
					}
					t.Errorf("send: %v", err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for {
				if _, err := b.Receive(); err != nil {
					if errors.Is(err, ErrClosed) {
						return
					}
					t.Errorf("receive: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestImporterAbsorbsCorruptFrames: with an error handler installed,
// a corrupt frame is counted and dropped while the binding keeps
// serving; without one, Serve terminates with the decode error.
func TestImporterAbsorbsCorruptFrames(t *testing.T) {
	RegisterPayload(tick{})
	src := &sourceContent{}
	snk := &sinkContent{}
	producer := producerSystem(t, src)
	consumer := consumerSystem(t, snk)

	a, b := NewPipe()
	if err := Export(producer, "Source", "out", "in", a); err != nil {
		t.Fatal(err)
	}
	imp, err := Import(consumer, "Sink", b)
	if err != nil {
		t.Fatal(err)
	}
	var absorbed []error
	imp.SetErrorHandler(func(err error) bool { absorbed = append(absorbed, err); return true })
	if err := producer.Start(); err != nil {
		t.Fatal(err)
	}
	if err := consumer.Start(); err != nil {
		t.Fatal(err)
	}

	env, closeEnv, err := producer.NewEnv(false)
	if err != nil {
		t.Fatal(err)
	}
	defer closeEnv()
	node, _ := producer.Node("Source")
	// A valid frame, then garbage straight onto the wire, then
	// another valid frame.
	if err := node.Activate(env); err != nil {
		t.Fatal(err)
	}
	if err := a.Send([]byte("not a gob stream")); err != nil {
		t.Fatal(err)
	}
	if err := node.Activate(env); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	imp.Serve() // runs to completion on the closed transport
	if err := imp.Err(); err != nil {
		t.Fatalf("serve died despite the handler: %v", err)
	}
	if imp.Delivered() != 2 || imp.Dropped() != 1 {
		t.Fatalf("delivered=%d dropped=%d", imp.Delivered(), imp.Dropped())
	}
	if len(absorbed) != 1 || !strings.Contains(absorbed[0].Error(), "decode") {
		t.Fatalf("absorbed = %v", absorbed)
	}
	if len(snk.got) != 2 {
		t.Fatalf("sink got %v", snk.got)
	}
}

func TestImporterStopsOnErrorWithoutHandler(t *testing.T) {
	RegisterPayload(tick{})
	snk := &sinkContent{}
	consumer := consumerSystem(t, snk)
	a, b := NewPipe()
	imp, err := Import(consumer, "Sink", b)
	if err != nil {
		t.Fatal(err)
	}
	if err := consumer.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send([]byte("not a gob stream")); err != nil {
		t.Fatal(err)
	}
	imp.Serve()
	if err := imp.Err(); err == nil || !strings.Contains(err.Error(), "decode") {
		t.Fatalf("serve error = %v", err)
	}
}

// unregisteredPayload is deliberately never passed to RegisterPayload.
type unregisteredPayload struct {
	X int
}

// TestUnregisteredPayloadFailsAtEncode: gob refuses a concrete type
// that was never registered at the sending side, with a clear error —
// the failure surfaces at the exporter, not as a mystery on the peer.
func TestUnregisteredPayloadFailsAtEncode(t *testing.T) {
	a, _ := NewPipe()
	p, err := NewRemotePort(a, "in")
	if err != nil {
		t.Fatal(err)
	}
	err = p.Send(nil, "tick", unregisteredPayload{X: 1})
	if err == nil || !strings.Contains(err.Error(), "encode") {
		t.Fatalf("send unregistered payload: %v", err)
	}
}
