package cluster

import (
	"testing"
	"time"

	"soleil/internal/model"
	"soleil/internal/obs"
)

func digestOf(t *testing.T, d time.Duration, n int, flags byte) []byte {
	t.Helper()
	var h obs.Histogram
	for i := 0; i < n; i++ {
		h.Observe(d)
	}
	snap := h.Snapshot()
	return obs.AppendDigest(nil, &snap, flags)
}

func TestRemoteSLOIngestAndProbe(t *testing.T) {
	rec := obs.NewRecorder("client", 64)
	defer rec.Close()
	// budget 10ms -> threshold 8ms; staleAfter = 16 * 10ms.
	r := newRemoteSLO("link L", 10*time.Millisecond, 10*time.Millisecond, rec)

	// A fast server: p99 ~1ms, no breach.
	r.ingest(digestOf(t, time.Millisecond, 100, 0))
	if r.breached.Load() || r.probe() {
		t.Fatal("1ms p99 against an 8ms threshold must not breach")
	}
	if got := r.digests.Load(); got != 1 {
		t.Fatalf("digests = %d, want 1", got)
	}

	// A slow server: p99 ~20ms crosses the threshold.
	r.ingest(digestOf(t, 20*time.Millisecond, 100, obs.DigestFlagBreached))
	if !r.breached.Load() || !r.probe() {
		t.Fatalf("20ms p99 must breach (p99=%v)", time.Duration(r.p99.Load()))
	}
	if !r.serverBreached.Load() {
		t.Fatal("server-side verdict in the flags byte was dropped")
	}

	// Corrupt payloads are dropped without disturbing the state.
	r.ingest([]byte{0xFF, 0x01, 0x02})
	if got := r.digests.Load(); got != 2 {
		t.Fatalf("corrupt digest counted: digests = %d, want 2", got)
	}
	if !r.breached.Load() {
		t.Fatal("corrupt digest cleared the breach state")
	}

	// A stale observation reads as healthy: the probe must not shed
	// on history after the link has gone quiet.
	r.lastAt.Store(time.Now().Add(-time.Second).UnixNano())
	if r.probe() {
		t.Fatal("stale digest must read permissive")
	}

	// Recovery transitions back.
	r.lastAt.Store(time.Now().UnixNano())
	r.ingest(digestOf(t, time.Millisecond, 1000, 0))
	if r.breached.Load() || r.probe() {
		t.Fatal("recovered digest must clear the breach")
	}

	// Both transitions landed in the flight recorder.
	var sawBreach, sawRecover bool
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case obs.EvRemoteBreach:
			sawBreach = true
		case obs.EvRemoteRecovered:
			sawRecover = true
		}
	}
	if !sawBreach || !sawRecover {
		t.Fatalf("recorder missed transitions: breach=%v recover=%v", sawBreach, sawRecover)
	}
}

func TestRemoteSLONoContract(t *testing.T) {
	r := newRemoteSLO("link L", 0, 10*time.Millisecond, nil)
	r.ingest(digestOf(t, time.Hour, 10, 0))
	if r.probe() {
		t.Fatal("a link without a latency budget never breaches")
	}
	if r.p99.Load() == 0 {
		t.Fatal("digest telemetry must still flow for link stats")
	}
}

// TestCrossNodeBreachPropagation is the tentpole's end-to-end check:
// a degrade contract on the alpha->beta link, a slow Worker on beta,
// and the breach must appear on *alpha* — carried by heartbeat
// digests, not scraped — flipping the export gate and landing in the
// flight recorder.
func TestCrossNodeBreachPropagation(t *testing.T) {
	budget := 2 * time.Millisecond
	c := newTestCluster(t, &model.Contract{
		LatencyBudget: budget,
		MaxRate:       200,
		Burst:         10,
		Policy:        model.Degrade,
	})

	// The worker overshoots the budget on every message: p99 >> 80%
	// of 2ms.
	c.worker.delay.Store(int64(4 * time.Millisecond))

	c.start(t, false)
	alpha := c.local.Agent("alpha")

	linkName := "link Sensor.out->Worker.in"
	stats, ok := alpha.Registry().Link(linkName)
	if !ok {
		t.Fatalf("alpha registry has no %q; links: %v", linkName, alpha.Registry().LinkNames())
	}
	waitFor(t, "digests to reach alpha", 10*time.Second, func() bool {
		return stats().DigestsReceived > 0
	})
	waitFor(t, "remote breach on alpha", 10*time.Second, func() bool {
		return stats().RemoteBreached
	})
	if p99 := stats().RemoteP99; p99 < 4*budget/5 {
		t.Fatalf("propagated p99 = %v, want >= %v", p99, 4*budget/5)
	}

	// The export gate turns the propagated breach into local shedding.
	gate, ok := alpha.Registry().Gate(linkName)
	if !ok {
		t.Fatalf("alpha registry has no gate %q", linkName)
	}
	waitFor(t, "gate to observe the breach", 10*time.Second, func() bool {
		return gate().Breached
	})

	// The breach transition is on alpha's flight recorder — the node
	// that never ran the slow code.
	waitFor(t, "EvRemoteBreach on alpha's recorder", 10*time.Second, func() bool {
		for _, ev := range alpha.FlightRecorder().Events() {
			if ev.Kind == obs.EvRemoteBreach && ev.Node == "alpha" {
				return true
			}
		}
		return false
	})

	// The import side counted what it sent.
	beta := c.local.Agent("beta")
	bstats, ok := beta.Registry().Link(linkName)
	if !ok {
		t.Fatalf("beta registry has no %q", linkName)
	}
	if st := bstats(); st.Dir != "import" || st.DigestsSent == 0 {
		t.Fatalf("beta import stats = %+v", st)
	}
}
