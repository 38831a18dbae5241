package assembly

import (
	"errors"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soleil/internal/membrane"
	"soleil/internal/model"
	"soleil/internal/obs"
	"soleil/internal/rtsj/clock"
	"soleil/internal/rtsj/thread"
)

// pacerSource emits one message per activation.
type pacerSource struct {
	svc  *membrane.Services
	fail atomic.Bool
	sent atomic.Int64
}

func (s *pacerSource) Init(svc *membrane.Services) error { s.svc = svc; return nil }

func (s *pacerSource) Invoke(*thread.Env, string, string, any) (any, error) {
	return nil, errors.New("source serves nothing")
}

func (s *pacerSource) Activate(env *thread.Env) error {
	if s.fail.Load() {
		return errors.New("injected activation failure")
	}
	port, err := s.svc.Port("out")
	if err != nil {
		return err
	}
	if err := port.Send(env, "put", int(s.sent.Load())); err != nil {
		return err
	}
	s.sent.Add(1)
	return nil
}

// pacerSink counts deliveries.
type pacerSink struct {
	got      atomic.Int64
	failNext atomic.Bool
}

func (s *pacerSink) Init(*membrane.Services) error { return nil }

func (s *pacerSink) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	if s.failNext.CompareAndSwap(true, false) {
		return nil, errors.New("injected delivery failure")
	}
	s.got.Add(1)
	return nil, nil
}

func (s *pacerSink) Activate(*thread.Env) error { return nil }

// pacedSystem deploys a 1ms periodic Source sending to Sink over an
// asynchronous binding.
func pacedSystem(t *testing.T, src *pacerSource, snk *pacerSink, sinkAct model.Activation) *System {
	t.Helper()
	return pacedSystemWith(t, src, snk, model.Activation{Kind: model.PeriodicActivation, Period: time.Millisecond}, sinkAct)
}

func pacedSystemWith(t *testing.T, src *pacerSource, snk *pacerSink, srcAct, sinkAct model.Activation) *System {
	t.Helper()
	return deployPaced(t, src, snk, srcAct, sinkAct, nil)
}

// deployPaced deploys the Source → Sink architecture in SOLEIL mode,
// resilient, instrumented when metrics is not nil.
func deployPaced(t testing.TB, src *pacerSource, snk *pacerSink, srcAct, sinkAct model.Activation, metrics *obs.Registry) *System {
	t.Helper()
	a := model.NewArchitecture("paced")
	source, err := a.NewActive("Source", srcAct)
	if err != nil {
		t.Fatal(err)
	}
	if err := source.AddInterface(model.Interface{Name: "out", Role: model.ClientRole, Signature: "IPut"}); err != nil {
		t.Fatal(err)
	}
	if err := source.SetContent("SourceImpl"); err != nil {
		t.Fatal(err)
	}
	sink, err := a.NewActive("Sink", sinkAct)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.AddInterface(model.Interface{Name: "in", Role: model.ServerRole, Signature: "IPut"}); err != nil {
		t.Fatal(err)
	}
	if err := sink.SetContent("SinkImpl"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Bind(model.Binding{
		Client:     model.Endpoint{Component: "Source", Interface: "out"},
		Server:     model.Endpoint{Component: "Sink", Interface: "in"},
		Protocol:   model.Asynchronous,
		BufferSize: 64,
	}); err != nil {
		t.Fatal(err)
	}
	td, _ := a.NewThreadDomain("rt", model.DomainDesc{Kind: model.RealtimeThread, Priority: 20})
	imm, _ := a.NewMemoryArea("imm", model.AreaDesc{Kind: model.ImmortalMemory})
	if err := a.AddChild(imm, td); err != nil {
		t.Fatal(err)
	}
	if err := a.AddChild(td, source); err != nil {
		t.Fatal(err)
	}
	if err := a.AddChild(td, sink); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	_ = reg.Register("SourceImpl", func() membrane.Content { return src })
	_ = reg.Register("SinkImpl", func() membrane.Content { return snk })
	sys, err := Deploy(a, Config{Mode: Soleil, Registry: reg, Resilient: true, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// sporadicSink is the sink's activation unless a test says otherwise: a
// sporadic server with no minimum interarrival time.
var sporadicSink = model.Activation{Kind: model.SporadicActivation}

// sendFrom sends one message through a deployed component's client
// port, from the test's goroutine rather than the component's driver.
func sendFrom(t *testing.T, sys *System, component, itf string) {
	t.Helper()
	node, ok := sys.Node(component)
	if !ok {
		t.Fatalf("no node %q", component)
	}
	port, err := node.Port(itf)
	if err != nil {
		t.Fatal(err)
	}
	env, closeEnv, err := sys.NewEnv(false)
	if err != nil {
		t.Fatal(err)
	}
	defer closeEnv()
	if err := port.Send(env, "put", 0); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds or the timeout passes, and
// reports whether it held.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

func TestPacerDrivesPipelineInRealTime(t *testing.T) {
	src := &pacerSource{}
	snk := &pacerSink{}
	sys := pacedSystem(t, src, snk, sporadicSink)
	p, err := NewPacer(sys, PacerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	deadline := time.Now().Add(5 * time.Second)
	for snk.got.Load() < 5 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := snk.got.Load(); got < 5 {
		t.Fatalf("sink saw %d messages, want >= 5 (activations=%d deliveries=%d errors=%d)",
			got, p.Activations(), p.Deliveries(), p.Errors())
	}
	if p.Activations() == 0 || p.Deliveries() == 0 {
		t.Fatalf("pacer counters flat: activations=%d deliveries=%d", p.Activations(), p.Deliveries())
	}
}

func TestPacerAbsorbsActivationErrors(t *testing.T) {
	src := &pacerSource{}
	snk := &pacerSink{}
	sys := pacedSystem(t, src, snk, sporadicSink)
	p, err := NewPacer(sys, PacerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	src.fail.Store(true)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	deadline := time.Now().Add(5 * time.Second)
	for p.Errors() < 3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if p.Errors() < 3 {
		t.Fatalf("pacer absorbed %d errors, want >= 3", p.Errors())
	}
	// Every absorbed error is also in the system's error ring.
	if n := len(sys.Errors()); n < 3 {
		t.Fatalf("system error ring holds %d errors, want >= 3", n)
	}
	// The driver survived the failures: un-fail and verify flow.
	src.fail.Store(false)
	before := snk.got.Load()
	for snk.got.Load() < before+3 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if snk.got.Load() < before+3 {
		t.Fatal("pipeline did not resume after absorbed failures")
	}
}

func TestPacerCloseJoinsDrivers(t *testing.T) {
	src := &pacerSource{}
	snk := &pacerSink{}
	sys := pacedSystem(t, src, snk, sporadicSink)
	p, err := NewPacer(sys, PacerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	p.Close()
	sent := src.sent.Load()
	time.Sleep(20 * time.Millisecond)
	if src.sent.Load() != sent {
		t.Fatal("driver still activating after Close")
	}
	// Close is idempotent and Run can restart.
	p.Close()
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	p.Close()
}

// Two running pacers on one system would share each component's
// release slot and wake channel and drain each skeleton from two
// goroutines, so a second Run is refused until the first pacer closes.
func TestPacerRefusesASecondRunningPacer(t *testing.T) {
	sys := pacedSystem(t, &pacerSource{}, &pacerSink{}, sporadicSink)
	first, err := NewPacer(sys, PacerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewPacer(sys, PacerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Run(); err != nil {
		t.Fatal(err)
	}
	if err := first.Run(); err != nil {
		t.Fatalf("running pacer's second Run: %v", err)
	}
	if err := second.Run(); err == nil {
		second.Close()
		first.Close()
		t.Fatal("a second pacer ran a system that a running pacer drives")
	}
	first.Close()
	if err := second.Run(); err != nil {
		t.Fatalf("pacer after the first closed: %v", err)
	}
	if err := first.Run(); err == nil {
		first.Close()
		second.Close()
		t.Fatal("a closed pacer ran again beside the running one")
	}
	second.Close()
	if err := first.Run(); err != nil {
		t.Fatalf("first pacer after the second closed: %v", err)
	}
	first.Close()

	// Raced from two goroutines, exactly one Run wins.
	var wg sync.WaitGroup
	var won atomic.Int32
	for _, p := range []*Pacer{first, second} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p.Run() == nil {
				won.Add(1)
			}
		}()
	}
	wg.Wait()
	first.Close()
	second.Close()
	if n := won.Load(); n != 1 {
		t.Fatalf("%d of two racing pacers ran the system, want 1", n)
	}
}

func TestPacerRequiresSoleilMode(t *testing.T) {
	src := &pacerSource{}
	snk := &pacerSink{}
	a := pacedSystem(t, src, snk, sporadicSink).Architecture()
	reg := NewRegistry()
	_ = reg.Register("SourceImpl", func() membrane.Content { return &pacerSource{} })
	_ = reg.Register("SinkImpl", func() membrane.Content { return &pacerSink{} })
	sys, err := Deploy(a, Config{Mode: UltraMerge, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPacer(sys, PacerOptions{}); err == nil {
		t.Fatal("pacer must refuse non-SOLEIL modes")
	}
}

// A simulated send to a periodic server is delivered at the server's
// next period and must report success: only a sporadic server is
// released by arrivals (RT10), and a send reported as failed after
// its message was queued would be sent twice by a retrying client.
func TestSimulatedSendToPeriodicServer(t *testing.T) {
	src := &pacerSource{}
	snk := &pacerSink{}
	sys := pacedSystem(t, src, snk, model.Activation{Kind: model.PeriodicActivation, Period: 5 * time.Millisecond})
	if err := sys.RunFor(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if errs := sys.Errors(); len(errs) > 0 {
		t.Fatalf("%d send errors, first: %v", len(errs), errs[0])
	}
	if got, sent := snk.got.Load(), src.sent.Load(); got == 0 || got > sent {
		t.Fatalf("sink received %d messages, source sent %d", got, sent)
	}
}

// The pacer's first release of a sporadic server drains what was
// queued before it started; the next arrival is not released before
// the minimum interarrival time has passed, and Close does not wait
// it out.
func TestPacerReleasesSporadicOnArrivalAfterMIT(t *testing.T) {
	src := &pacerSource{}
	snk := &pacerSink{}
	sys := pacedSystem(t, src, snk, model.Activation{Kind: model.SporadicActivation, Period: time.Hour})
	src.fail.Store(true) // the test sends; the source stays silent
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	sendFrom(t, sys, "Source", "out")
	p, err := NewPacer(sys, PacerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	closing := false
	defer func() {
		if !closing {
			p.Close()
		}
	}()

	if !waitFor(2*time.Second, func() bool { return snk.got.Load() == 1 }) {
		t.Fatalf("first message not delivered within 2s (sink saw %d)", snk.got.Load())
	}
	sendFrom(t, sys, "Source", "out")
	time.Sleep(50 * time.Millisecond)
	if got := snk.got.Load(); got != 1 {
		t.Fatalf("sink saw %d messages within its 1h minimum interarrival time, want 1", got)
	}

	closing = true
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close waited out the minimum interarrival time")
	}
}

// A release whose drain stops on an error leaves the messages behind
// the failure queued; the pacer releases again without waiting for a
// new arrival.
func TestPacerRetriesFailedDrain(t *testing.T) {
	src := &pacerSource{}
	snk := &pacerSink{}
	sys := pacedSystem(t, src, snk, sporadicSink)
	src.fail.Store(true) // the test sends; the source stays silent
	snk.failNext.Store(true)
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	// Queued before the driver starts, so no send signals it: only
	// the first release and the retry can deliver them.
	for i := 0; i < 3; i++ {
		sendFrom(t, sys, "Source", "out")
	}
	p, err := NewPacer(sys, PacerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !waitFor(2*time.Second, func() bool { return snk.got.Load() == 2 }) {
		t.Fatalf("sink saw %d of the 2 messages behind the failed one within 2s", snk.got.Load())
	}
}

// stampNode wraps a deployed node and records when the pacer releases
// it: the start of each drain and of each activation. A drain that
// delivered something is signalled on drained, once it has returned.
type stampNode struct {
	Node
	mu                  sync.Mutex
	delivers, activates []clock.Time
	drained             chan struct{}
}

// stamp starts sys, so that its membranes are started before their
// nodes are wrapped, and replaces the named node with a stampNode. Call
// it before the pacer is created.
func stamp(t *testing.T, sys *System, name string) *stampNode {
	t.Helper()
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	n, ok := sys.nodes[name]
	if !ok {
		t.Fatalf("no node %q", name)
	}
	sn := &stampNode{Node: n, drained: make(chan struct{}, 1)}
	sys.nodes[name] = sn
	return sn
}

func (n *stampNode) Deliver(env *thread.Env) (int, error) {
	n.mu.Lock()
	n.delivers = append(n.delivers, clock.Mono())
	n.mu.Unlock()
	got, err := n.Node.Deliver(env)
	if got > 0 {
		select {
		case n.drained <- struct{}{}:
		default:
		}
	}
	return got, err
}

func (n *stampNode) Activate(env *thread.Env) error {
	n.mu.Lock()
	n.activates = append(n.activates, clock.Mono())
	n.mu.Unlock()
	return n.Node.Activate(env)
}

// gaps returns the sorted differences between consecutive stamps.
func (n *stampNode) gaps(stamps *[]clock.Time) []time.Duration {
	n.mu.Lock()
	defer n.mu.Unlock()
	var gaps []time.Duration
	for i := 1; i < len(*stamps); i++ {
		gaps = append(gaps, (*stamps)[i].Sub((*stamps)[i-1]))
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i] < gaps[j] })
	return gaps
}

// A sporadic server whose next message arrives as soon as the release
// that delivered the previous one has returned is released once per
// minimum interarrival time: never sooner, and not a coarse timer tick
// later.
func TestPacerReleasesSporadicAtItsMIT(t *testing.T) {
	const mit = 200 * time.Microsecond
	src := &pacerSource{}
	snk := &pacerSink{}
	sys := pacedSystem(t, src, snk, model.Activation{Kind: model.SporadicActivation, Period: mit})
	src.fail.Store(true) // the test sends; the source stays silent
	sink := stamp(t, sys, "Sink")
	p, err := NewPacer(sys, PacerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 50; i++ {
		sendFrom(t, sys, "Source", "out")
		select {
		case <-sink.drained:
		case <-time.After(2 * time.Second):
			t.Fatalf("message %d not delivered within 2s", i)
		}
	}
	gaps := sink.gaps(&sink.delivers)
	if len(gaps) < 49 {
		t.Fatalf("%d release gaps for 50 deliveries, want >= 49", len(gaps))
	}
	if gaps[0] < mit {
		t.Fatalf("releases %v apart, inside the %v minimum interarrival time", gaps[0], mit)
	}
	if med := gaps[len(gaps)/2]; med >= mit+300*time.Microsecond {
		t.Fatalf("median release gap %v, want < MIT + 300µs = %v (gaps %v .. %v)", med, mit+300*time.Microsecond, gaps[0], gaps[len(gaps)-1])
	}
}

// A sub-millisecond period is kept: the releases do not fall back to
// the coarse rate of a Go ticker on an idle process.
func TestPacerKeepsSubMillisecondPeriod(t *testing.T) {
	const period = 250 * time.Microsecond
	src := &pacerSource{}
	snk := &pacerSink{}
	sys := pacedSystemWith(t, src, snk, model.Activation{Kind: model.PeriodicActivation, Period: period}, sporadicSink)
	source := stamp(t, sys, "Source")
	p, err := NewPacer(sys, PacerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	p.Close()
	gaps := source.gaps(&source.activates)
	if len(gaps) < 10 {
		t.Fatalf("%d activations in 100ms at a %v period", len(gaps)+1, period)
	}
	if med := gaps[len(gaps)/2]; med >= 2*period {
		t.Fatalf("median activation gap %v over %d activations, want < %v", med, len(gaps)+1, 2*period)
	}
}

// openFDs counts the process's open descriptors, or returns -1 where
// /proc/self/fd does not exist.
func openFDs(t *testing.T) int {
	t.Helper()
	if runtime.GOOS != "linux" {
		return -1
	}
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// Each Run opens the release clock's alarm (the periodic source arms it
// at once, the sink's MIT on its second arrival) and each Close must
// release it: its goroutine and its descriptor.
func TestPacerRunCloseCyclesLeakNothing(t *testing.T) {
	src := &pacerSource{}
	snk := &pacerSink{}
	sys := pacedSystem(t, src, snk, model.Activation{Kind: model.SporadicActivation, Period: 2 * time.Millisecond})
	p, err := NewPacer(sys, PacerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cycle := func(i int) {
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		got := snk.got.Load()
		if !waitFor(2*time.Second, func() bool { return snk.got.Load() >= got+2 }) {
			t.Fatalf("cycle %d: sink saw %d of 2 messages within 2s", i, snk.got.Load()-got)
		}
		p.Close()
	}
	cycle(0) // lets the runtime open its own poller descriptors
	goroutines, fds := runtime.NumGoroutine(), openFDs(t)
	for i := 1; i <= 100; i++ {
		cycle(i)
	}
	if !waitFor(2*time.Second, func() bool { return runtime.NumGoroutine() <= goroutines }) {
		t.Fatalf("%d goroutines after 100 Run/Close cycles, %d before", runtime.NumGoroutine(), goroutines)
	}
	if n := openFDs(t); n > fds {
		t.Fatalf("%d open descriptors after 100 Run/Close cycles, %d before", n, fds)
	}
}
