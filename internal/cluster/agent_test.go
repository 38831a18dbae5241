package cluster

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"soleil/internal/assembly"
	"soleil/internal/dist"
	"soleil/internal/membrane"
	"soleil/internal/model"
	"soleil/internal/obs"
	"soleil/internal/rtsj/thread"
)

// --- pipeline contents -------------------------------------------------------------

type clSensor struct {
	svc  *membrane.Services
	sent atomic.Int64
	// payload, when set, makes the message numbered n; without it the
	// message is n itself, an int.
	payload func(n int) any
}

func (s *clSensor) Init(svc *membrane.Services) error { s.svc = svc; return nil }

func (s *clSensor) Invoke(*thread.Env, string, string, any) (any, error) {
	return nil, errors.New("sensor serves nothing")
}

func (s *clSensor) Activate(env *thread.Env) error {
	port, err := s.svc.Port("out")
	if err != nil {
		return err
	}
	var msg any = int(s.sent.Load())
	if s.payload != nil {
		msg = s.payload(int(s.sent.Load()))
	}
	if err := port.Send(env, "put", msg); err != nil {
		// Backpressure while a peer is down is expected load shedding,
		// not a component failure.
		if errors.Is(err, dist.ErrBackpressure) {
			return nil
		}
		return err
	}
	s.sent.Add(1)
	return nil
}

type clWorker struct {
	svc        *membrane.Services
	seen       atomic.Int64
	inits      atomic.Int64
	panicEvery int64
	delay      atomic.Int64 // artificial per-message latency, ns
}

func (w *clWorker) Init(svc *membrane.Services) error { w.svc = svc; w.inits.Add(1); return nil }

func (w *clWorker) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	n := w.seen.Add(1)
	if w.panicEvery > 0 && n%w.panicEvery == 0 {
		panic(fmt.Sprintf("worker fault on message %d", n))
	}
	if d := w.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	cache, err := w.svc.Port("cache")
	if err != nil {
		return nil, err
	}
	if _, err := cache.Call(env, "get", arg); err != nil {
		return nil, err
	}
	out, err := w.svc.Port("out")
	if err != nil {
		return nil, err
	}
	if err := out.Send(env, "put", arg); err != nil && !errors.Is(err, dist.ErrBackpressure) {
		return nil, err
	}
	return nil, nil
}

func (w *clWorker) Activate(*thread.Env) error { return nil }

type clCache struct {
	hits atomic.Int64
}

func (c *clCache) Init(*membrane.Services) error { return nil }

func (c *clCache) Invoke(_ *thread.Env, _, _ string, arg any) (any, error) {
	c.hits.Add(1)
	return arg, nil
}

func (c *clCache) Activate(*thread.Env) error { return nil }

type clSink struct {
	got  atomic.Int64
	last atomic.Pointer[any] // the last argument received
}

func (s *clSink) Init(*membrane.Services) error { return nil }

func (s *clSink) Invoke(_ *thread.Env, _, _ string, arg any) (any, error) {
	s.last.Store(&arg)
	s.got.Add(1)
	return nil, nil
}

func (s *clSink) Activate(*thread.Env) error { return nil }

// --- harness -----------------------------------------------------------------------

// testCluster runs the pipeline plan in-process through StartLocal.
type testCluster struct {
	plan *Plan
	reg  *assembly.Registry

	sensor *clSensor
	worker *clWorker
	cache  *clCache
	sink   *clSink

	local     *Local
	recorders []*obs.Recorder // every agent ever started, restarts included
}

func newTestCluster(t *testing.T, contract ...*model.Contract) *testCluster {
	t.Helper()
	a := pipelineArch(t, model.Asynchronous, contract...)
	d := pipelineDeployment(t, a)
	plan, err := Compute(a, d)
	if err != nil {
		t.Fatal(err)
	}
	c := &testCluster{
		plan:   plan,
		reg:    assembly.NewRegistry(),
		sensor: &clSensor{},
		worker: &clWorker{},
		cache:  &clCache{},
		sink:   &clSink{},
	}
	must(t, c.reg.Register("SensorImpl", func() membrane.Content { return c.sensor }))
	must(t, c.reg.Register("WorkerImpl", func() membrane.Content { return c.worker }))
	must(t, c.reg.Register("CacheImpl", func() membrane.Content { return c.cache }))
	must(t, c.reg.Register("SinkImpl", func() membrane.Content { return c.sink }))
	return c
}

// start brings every node up; metrics serves each node's
// observability endpoint on an ephemeral port. The cluster closes
// when the test ends.
func (c *testCluster) start(t *testing.T, metrics bool) {
	t.Helper()
	cfg := AgentConfig{
		Registry: c.reg,
		Beat:     20 * time.Millisecond,
		Dial:     dist.DialConfig{Timeout: 2 * time.Second, Base: 2 * time.Millisecond, Max: 50 * time.Millisecond},
		Logf:     t.Logf,
	}
	if metrics {
		cfg.MetricsAddr = "127.0.0.1:0"
	}
	lc, err := StartLocal(c.plan, cfg)
	if err != nil {
		t.Fatalf("start cluster: %v", err)
	}
	t.Cleanup(lc.Close)
	c.local = lc
	for _, ag := range lc.Agents() {
		c.recorders = append(c.recorders, ag.FlightRecorder())
	}
}

// restart brings a node back on a fresh port, keeping the flight
// recorder of the incarnation it replaces for the merged timeline.
func (c *testCluster) restart(t *testing.T, node string) *Agent {
	t.Helper()
	ag, err := c.local.Restart(node)
	if err != nil {
		t.Fatalf("restart %s: %v", node, err)
	}
	c.recorders = append(c.recorders, ag.FlightRecorder())
	return ag
}

// mergedTimeline stitches the flight-recorder rings of every agent
// the cluster ever started (restarted incarnations included) into one
// cross-node timeline. Rings stay readable after Close, so this works
// in failure cleanups too.
func (c *testCluster) mergedTimeline() []obs.Event {
	batches := make([][]obs.Event, 0, len(c.recorders))
	for _, r := range c.recorders {
		batches = append(batches, r.Events())
	}
	return obs.MergeEvents(batches...)
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// --- tests -------------------------------------------------------------------------

func TestClusterThreeNodePipeline(t *testing.T) {
	c := newTestCluster(t)
	c.start(t, true)
	alpha, beta, gamma := c.local.Agent("alpha"), c.local.Agent("beta"), c.local.Agent("gamma")

	waitFor(t, "sink to see 20 messages", 10*time.Second, func() bool { return c.sink.got.Load() >= 20 })
	if c.cache.hits.Load() == 0 {
		t.Fatal("worker never reached its co-located cache")
	}
	if beta.Delivered() == 0 || gamma.Delivered() == 0 {
		t.Fatalf("import counters flat: beta=%d gamma=%d", beta.Delivered(), gamma.Delivered())
	}
	if alpha.Delivered() != 0 {
		t.Fatalf("alpha imports nothing but delivered %d", alpha.Delivered())
	}

	// The node observability endpoint shows the link queue.
	resp, err := http.Get("http://" + beta.MetricsAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "queue") {
		t.Fatalf("beta /metrics has no queue series:\n%s", body)
	}
	hz, err := http.Get("http://" + beta.MetricsAddr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("beta /healthz = %d", hz.StatusCode)
	}
}

// clReading is a registered struct payload: it crosses links as gob,
// the envelope's fallback for arguments that are not int or int64.
type clReading struct {
	Seq   int
	Value float64
}

func TestClusterCarriesRegisteredStruct(t *testing.T) {
	dist.RegisterPayload(clReading{})
	c := newTestCluster(t)
	c.sensor.payload = func(n int) any { return clReading{Seq: n, Value: float64(n) / 2} }
	c.start(t, false)

	waitFor(t, "sink to see 10 readings", 10*time.Second, func() bool { return c.sink.got.Load() >= 10 })
	last := *c.sink.last.Load()
	r, ok := last.(clReading)
	if !ok {
		t.Fatalf("sink got %T, want clReading", last)
	}
	if r.Seq <= 0 || r.Value != float64(r.Seq)/2 {
		t.Fatalf("reading arrived altered: %+v", r)
	}
}

func TestAgentRejectsUnknownLink(t *testing.T) {
	c := newTestCluster(t)
	c.start(t, false)
	gamma := c.local.Agent("gamma")

	tr, err := dist.Dial(gamma.Addr(), dist.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if err := sendHello(tr, hello{Node: "mallory", Link: "no-such-link"}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := tr.Receive()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("agent accepted an unknown link")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("agent left the unknown-link connection open")
	}
}

// TestAgentClosesOnGarbageHello: a connection whose first frame is not
// a well-formed hello is closed without a session.
func TestAgentClosesOnGarbageHello(t *testing.T) {
	c := newTestCluster(t)
	c.start(t, false)
	gamma := c.local.Agent("gamma")
	valid := appendHello(nil, hello{Node: "beta", Link: c.plan.Links[0].ID})
	for _, garbage := range [][]byte{
		{frameHello, 0xff},        // a length with no bytes behind it
		append(valid, 'x'),        // trailing bytes
		appendHello(nil, hello{}), // empty node and link
		{frameData, 1, 2, 3},      // not a hello at all
	} {
		tr, err := dist.Dial(gamma.Addr(), dist.DialConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Send(garbage); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := tr.Receive()
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("agent answered hello %q", garbage)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("agent left the connection open after hello %q", garbage)
		}
		_ = tr.Close()
	}
}

func TestStartUnknownNode(t *testing.T) {
	c := newTestCluster(t)
	if _, err := Start(AgentConfig{Node: "nope", Plan: c.plan, Registry: c.reg}); err == nil {
		t.Fatal("unknown node must be refused")
	}
}
