package assembly

import (
	"testing"
	"time"

	"soleil/internal/membrane"
	"soleil/internal/model"
	"soleil/internal/obs"
	"soleil/internal/rtsj/thread"
)

// hop deploys the pacer tests' Source → Sink pair as a serving node
// does (SOLEIL, resilient, metered) and returns the Source's "out"
// port, the Sink's node and an environment to drive both from.
func hop(tb testing.TB) (membrane.Port, Node, *thread.Env) {
	tb.Helper()
	sys := deployPaced(tb, &pacerSource{}, &pacerSink{},
		model.Activation{Kind: model.PeriodicActivation, Period: time.Millisecond}, sporadicSink, obs.NewRegistry())
	if err := sys.Start(); err != nil {
		tb.Fatal(err)
	}
	src, _ := sys.Node("Source")
	sink, _ := sys.Node("Sink")
	port, err := src.Port("out")
	if err != nil {
		tb.Fatal(err)
	}
	env, closeEnv, err := sys.NewEnv(false)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(closeEnv)
	return port, sink, env
}

// hopOnce sends one message through port and drains it into sink.
func hopOnce(tb testing.TB, port membrane.Port, sink Node, env *thread.Env, arg any) {
	if err := port.Send(env, "put", arg); err != nil {
		tb.Fatal(err)
	}
	if n, err := sink.Deliver(env); err != nil || n != 1 {
		tb.Fatalf("Deliver = %d, %v; want 1 message", n, err)
	}
}

// TestAsyncHopAllocs: once a binding's buffer has held a message, a
// local asynchronous hop (send, enqueue, drain, metered dispatch)
// allocates nothing.
func TestAsyncHopAllocs(t *testing.T) {
	port, sink, env := hop(t)
	var arg any = 1 << 20 // boxed once, as a forwarded argument is
	hopOnce(t, port, sink, env, arg)
	if allocs := testing.AllocsPerRun(200, func() { hopOnce(t, port, sink, env, arg) }); allocs != 0 {
		t.Fatalf("an asynchronous hop makes %v allocations, want 0", allocs)
	}
}

// BenchmarkAsyncHopHotPath is one local asynchronous hop as a serving
// node makes it, on one goroutine: a send through the client node's
// port (notify port, stub, buffer) and the server node's Deliver
// (skeleton, metered membrane dispatch). make benchcheck holds it at
// 0 allocs/op.
func BenchmarkAsyncHopHotPath(b *testing.B) {
	port, sink, env := hop(b)
	var arg any = 1 << 20
	hopOnce(b, port, sink, env, arg) // the buffer's box and the metric series
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hopOnce(b, port, sink, env, arg)
	}
}
