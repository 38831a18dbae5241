package cluster

import (
	"runtime"
	"testing"
	"time"
)

// TestSoakClusterReconvergence is the cluster acceptance scenario: a
// three-node pipeline under continuous load, the middle node killed
// and restarted mid-run (on a new port, as a rescheduled node would
// be), plus a worker that panics every Nth message so node-level
// supervision restarts it in place. The cluster must reconverge —
// traffic flowing end to end again, export links reconnected — and
// tear down without leaking a single goroutine.
func TestSoakClusterReconvergence(t *testing.T) {
	baseline := runtime.NumGoroutine()

	c := newTestCluster(t)
	c.worker.panicEvery = 17

	// On failure, archive the merged cross-node flight-recorder
	// timeline: CI uploads flightrecorder-*.json as a workflow
	// artifact, so a flaky soak leaves its last 4096 events per node
	// behind for post-mortem.
	t.Cleanup(func() {
		if t.Failed() {
			dumpTimeline(t, "reconvergence-failure", c.mergedTimeline())
		}
	})

	c.start(t, false)
	alpha := c.local.Agent("alpha")

	// Phase 1: converge under load, with the worker periodically
	// panicking and being restarted by beta's supervisor.
	waitFor(t, "initial convergence", 15*time.Second, func() bool { return c.sink.got.Load() >= 60 })
	if c.worker.inits.Load() < 2 {
		t.Fatalf("worker inits = %d: supervision never restarted the panicking worker", c.worker.inits.Load())
	}

	// Phase 2: kill the middle node mid-run. Producers keep running
	// and shed load via backpressure; nothing may crash.
	c.local.Agent("beta").Close()
	killedAt := c.sink.got.Load()
	time.Sleep(150 * time.Millisecond)

	// Phase 3: restart beta. It binds a fresh port; the resolver
	// hands the new address to alpha's reconnecting link writer.
	c.restart(t, "beta")
	waitFor(t, "reconvergence after node restart", 20*time.Second,
		func() bool { return c.sink.got.Load() >= killedAt+60 })
	if alpha.Reconnects() == 0 {
		t.Fatal("alpha's export link never reconnected")
	}

	// Phase 4: clean teardown, zero goroutine leaks.
	c.local.Close()
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
	t.Logf("soak: delivered=%d workerInits=%d reconnects=%d",
		c.sink.got.Load(), c.worker.inits.Load(), alpha.Reconnects())
}
