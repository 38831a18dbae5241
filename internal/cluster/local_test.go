package cluster

import (
	"runtime"
	"testing"
	"time"
)

// TestStartLocal checks the in-process bring-up: no link has had to
// reconnect once every node is up, a restarted node comes back on a
// new port with traffic flowing through it again, and Close leaves no
// goroutine behind.
func TestStartLocal(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c := newTestCluster(t)
	c.start(t, false)

	waitFor(t, "traffic", 10*time.Second, func() bool { return c.sink.got.Load() >= 10 })
	agents := c.local.Agents()
	if len(agents) != len(c.plan.Nodes()) {
		t.Fatalf("agents = %d, want one per node", len(agents))
	}
	for i, ag := range agents {
		if ag.Node() != c.plan.Nodes()[i].Name {
			t.Fatalf("agent %d is %s, want plan order", i, ag.Node())
		}
		if n := ag.Reconnects(); n != 0 {
			t.Fatalf("%s reconnected %d time(s) during bring-up", ag.Node(), n)
		}
	}

	old := c.local.Agent("beta")
	beta := c.restart(t, "beta")
	if beta == old || c.local.Agent("beta") != beta {
		t.Fatal("Agent does not return the restarted incarnation")
	}
	if beta.Addr() == old.Addr() {
		t.Fatalf("beta restarted on its old address %s", old.Addr())
	}
	at := c.sink.got.Load()
	waitFor(t, "traffic after restart", 10*time.Second, func() bool { return c.sink.got.Load() >= at+10 })

	c.local.Close()
	c.local.Close() // idempotent
	deadline := time.After(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		select {
		case <-deadline:
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
}
