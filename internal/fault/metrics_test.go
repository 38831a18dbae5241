package fault

import (
	"testing"
	"time"

	"soleil/internal/obs"
)

// TestSupervisorMirrorsIntoRegistry drives a panic → restart →
// quarantine sequence through a supervisor wired to a metrics
// registry and checks every decision lands in the shared numbers that
// /metrics and /healthz expose.
func TestSupervisorMirrorsIntoRegistry(t *testing.T) {
	r := &fakeRestarter{}
	reg := obs.NewRegistry()
	now := time.Unix(0, 0)
	sup, err := NewSupervisor(r, WithRegistry(reg), WithClock(func() time.Time { return now }))
	if err != nil {
		t.Fatal(err)
	}
	var c faultSignal
	sup.Watch("C", Policy{Directive: RestartOneForOne, MaxRestarts: 2, Window: time.Minute}, c.probe)

	cm := reg.Component("C")
	for i := 0; i < 2; i++ {
		c.raise()
		if acted := sup.Poll(); len(acted) != 1 || acted[0].Kind != "restart" {
			t.Fatalf("round %d: %+v", i, acted)
		}
		now = now.Add(time.Second)
	}
	if got := cm.Restarts.Load(); got != 2 {
		t.Errorf("restarts = %d, want 2", got)
	}
	if !reg.Healthy() {
		t.Error("registry unhealthy while restarts succeed")
	}

	// Budget exhausted: the quarantine flips the component's health,
	// which is what turns /healthz to 503.
	c.raise()
	if acted := sup.Poll(); len(acted) != 1 || acted[0].Kind != "quarantine" {
		t.Fatalf("exhausted budget: %+v", acted)
	}
	if cm.Healthy() || reg.Healthy() {
		t.Error("quarantine not reflected in registry health")
	}
	if got := cm.Restarts.Load(); got != 2 {
		t.Errorf("quarantine counted as restart: %d", got)
	}
}

func TestMetricsLatencyProbe(t *testing.T) {
	reg := obs.NewRegistry()
	s := reg.Component("C").Series("i", "op")
	p := MetricsLatencyProbe(s, 10*time.Millisecond)
	if h := p(); !h.Healthy {
		t.Fatalf("empty series flagged: %+v", h)
	}
	for i := 0; i < 100; i++ {
		s.Latency.Observe(time.Millisecond)
	}
	if h := p(); !h.Healthy {
		t.Fatalf("fast series flagged: %+v", h)
	}
	for i := 0; i < 100; i++ {
		s.Latency.Observe(time.Second)
	}
	if h := p(); h.Healthy {
		t.Fatal("slow p99 not flagged")
	}
	if h := MetricsLatencyProbe(nil, time.Millisecond)(); !h.Healthy {
		t.Fatalf("nil series flagged: %+v", h)
	}
}

func TestMetricsMissProbe(t *testing.T) {
	cm := obs.NewRegistry().Component("C")
	p := MetricsMissProbe(cm, 1)
	if h := p(); !h.Healthy {
		t.Fatalf("no misses flagged: %+v", h)
	}
	cm.Misses.Add(5)
	if h := p(); h.Healthy {
		t.Fatal("5 new misses not flagged")
	}
	cm.Misses.Inc() // one new miss since last poll: within budget
	if h := p(); !h.Healthy {
		t.Fatalf("in-budget misses flagged: %+v", h)
	}
}

func TestMetricsOverflowProbe(t *testing.T) {
	reg := obs.NewRegistry()
	p := MetricsOverflowProbe(reg, "buf", 0.05)
	if h := p(); !h.Healthy { // queue not registered yet
		t.Fatalf("unregistered queue flagged: %+v", h)
	}
	stats := obs.QueueStats{Enqueued: 100}
	reg.RegisterQueue("buf", func() obs.QueueStats { return stats })
	if h := p(); !h.Healthy { // first window: no drops
		t.Fatalf("clean window flagged: %+v", h)
	}
	stats.Enqueued, stats.Dropped = 150, 20
	if h := p(); h.Healthy {
		t.Fatal("overflow window not flagged")
	}
	stats.Enqueued = 250 // clean again
	if h := p(); !h.Healthy {
		t.Fatalf("recovered window flagged: %+v", h)
	}
}
