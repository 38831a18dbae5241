package cluster

import (
	"os"
	"runtime"
	"testing"
	"time"

	"soleil/internal/model"
	"soleil/internal/obs"
)

// dumpTimeline writes a merged flight-recorder timeline as
// flightrecorder-<name>.json in the working directory so CI can
// archive it as a workflow artifact. Best-effort: a dump failure is
// reported but never fails the soak itself.
func dumpTimeline(t *testing.T, name string, evs []obs.Event) {
	t.Helper()
	path := "flightrecorder-" + name + ".json"
	f, err := os.Create(path)
	if err != nil {
		t.Logf("flight-recorder dump skipped: %v", err)
		return
	}
	defer f.Close()
	if err := obs.WriteEventsJSON(f, evs); err != nil {
		t.Logf("flight-recorder dump failed: %v", err)
		return
	}
	t.Logf("soak-overload: wrote %d merged flight-recorder events to %s", len(evs), path)
}

// TestSoakOverloadCrossNodeDegrade is the cluster half of the overload
// soak: a degrade contract on the cross-node Sensor->Worker link, a
// Worker on beta that overshoots the latency budget on every message,
// and a Sensor on alpha offering ~5x the contracted rate. The breach
// must propagate to alpha via heartbeat digests — no scraping — flip
// alpha's export gate to shedding, and the merged cross-node
// flight-recorder timeline must show the whole causal chain: beta's
// supervised faults, alpha's remote-breach transition, and the gate
// degrading in response.
func TestSoakOverloadCrossNodeDegrade(t *testing.T) {
	baseline := runtime.NumGoroutine()

	budget := 2 * time.Millisecond
	c := newTestCluster(t, &model.Contract{
		LatencyBudget: budget,
		MaxRate:       200, // sensor offers ~1000/s: 5x overload
		Burst:         10,
		Policy:        model.Degrade,
	})
	// Every message overshoots the 2ms budget; every 25th panics so
	// beta's supervisor contributes lifecycle events to the timeline.
	c.worker.delay.Store(int64(4 * time.Millisecond))
	c.worker.panicEvery = 25

	c.start(t, false)
	alpha := c.local.Agent("alpha")

	// On failure, archive whatever the recorders captured: CI uploads
	// flightrecorder-*.json as a workflow artifact.
	t.Cleanup(func() {
		if t.Failed() {
			dumpTimeline(t, "crossnode-degrade-failure", c.mergedTimeline())
		}
	})

	linkName := "link Sensor.out->Worker.in"
	stats, ok := alpha.Registry().Link(linkName)
	if !ok {
		t.Fatalf("alpha registry has no %q; links: %v", linkName, alpha.Registry().LinkNames())
	}
	gate, ok := alpha.Registry().Gate(linkName)
	if !ok {
		t.Fatalf("alpha registry has no gate %q", linkName)
	}

	// Phase 1: the server-side breach crosses the node boundary. The
	// gate must flip on the *propagated* digest — beta is never
	// scraped.
	waitFor(t, "digests to reach alpha", 15*time.Second, func() bool {
		return stats().DigestsReceived > 0
	})
	waitFor(t, "remote breach to propagate", 15*time.Second, func() bool {
		return stats().RemoteBreached
	})
	waitFor(t, "gate to observe the breach", 15*time.Second, func() bool {
		return gate().Breached
	})

	// Phase 2: sustained overload while breached. The degrade policy
	// now sheds over-rate messages instead of admitting them, so the
	// shed counter must climb under continuous offered load.
	shedAt := gate().Shed
	waitFor(t, "breach-driven shedding", 15*time.Second, func() bool {
		return gate().Shed > shedAt
	})
	waitFor(t, "shedding to sustain", 15*time.Second, func() bool {
		return gate().Shed >= shedAt+50
	})
	gs := gate()
	if gs.Admitted == 0 {
		t.Fatal("degrade must keep admitting the contracted rate while shedding the excess")
	}
	if gs.Breaches == 0 {
		t.Fatal("gate counted no met->breached transitions")
	}
	if c.worker.inits.Load() < 2 {
		t.Fatalf("worker inits = %d: supervision never restarted the panicking worker", c.worker.inits.Load())
	}

	// Phase 3: the merged cross-node timeline shows the remote-breach
	// -driven degrade transition, in causal order, spanning both nodes.
	evs := c.mergedTimeline()
	dumpTimeline(t, "crossnode-degrade", evs)
	nodes := make(map[string]bool)
	remoteBreachAt, gateReactAt := -1, -1
	for i, ev := range evs {
		nodes[ev.Node] = true
		switch ev.Kind {
		case obs.EvRemoteBreach:
			if ev.Node == "alpha" && remoteBreachAt < 0 {
				remoteBreachAt = i
			}
		case obs.EvGateBreach, obs.EvGateShed:
			if ev.Node == "alpha" && remoteBreachAt >= 0 && gateReactAt < 0 {
				gateReactAt = i
			}
		}
	}
	if remoteBreachAt < 0 {
		t.Fatal("merged timeline has no EvRemoteBreach on alpha")
	}
	if gateReactAt < 0 {
		t.Fatal("merged timeline shows no gate reaction after the remote breach")
	}
	if !nodes["alpha"] || !nodes["beta"] {
		t.Fatalf("timeline is not cross-node: nodes seen = %v", nodes)
	}

	st := stats()
	t.Logf("soak-overload: cluster degrade admitted=%d shed=%d breaches=%d remoteP99=%v digests=%d timeline=%d events across %d nodes",
		gs.Admitted, gs.Shed, gs.Breaches, st.RemoteP99, st.DigestsReceived, len(evs), len(nodes))

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
}
