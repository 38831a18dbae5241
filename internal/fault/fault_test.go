package fault

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soleil/internal/membrane"
	"soleil/internal/rtsj/thread"
)

// --- spec parsing ------------------------------------------------------------------

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("drop=0.02,delay=0.01,dup=0.03,corrupt=0.04,panic=0.05,seed=42,delayfor=5ms")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Drop: 0.02, Delay: 0.01, Duplicate: 0.03, Corrupt: 0.04, Panic: 0.05, Seed: 42, DelayFor: 5 * time.Millisecond}
	if spec != want {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}
	if empty, err := ParseSpec(""); err != nil || !empty.Zero() {
		t.Fatalf("empty spec = %+v, %v", empty, err)
	}
	for _, bad := range []string{
		"drop",           // no value
		"drop=2",         // rate outside [0,1]
		"drop=-0.1",      // negative rate
		"warp=0.5",       // unknown key
		"seed=x",         // malformed seed
		"delayfor=fast",  // malformed duration
		"drop=one-in-10", // malformed rate
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// --- injector ----------------------------------------------------------------------

// memTransport collects sent payloads; a minimal dist.Transport.
type memTransport struct {
	mu   sync.Mutex
	sent [][]byte
}

func (m *memTransport) Send(p []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := make([]byte, len(p))
	copy(cp, p)
	m.sent = append(m.sent, cp)
	return nil
}

func (m *memTransport) Receive() ([]byte, error) { return nil, nil }
func (m *memTransport) Close() error             { return nil }

func (m *memTransport) payloads() [][]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([][]byte, len(m.sent))
	copy(out, m.sent)
	return out
}

func runInjector(t *testing.T, spec Spec, n int) (*Injector, *memTransport) {
	t.Helper()
	inner := &memTransport{}
	inj, err := InjectTransport(inner, spec)
	if err != nil {
		t.Fatal(err)
	}
	inj.sleep = func(time.Duration) {} // no real waiting in tests
	for i := 0; i < n; i++ {
		if err := inj.Send([]byte{byte(i), byte(i >> 8), 0xAA}); err != nil {
			t.Fatal(err)
		}
	}
	return inj, inner
}

func TestInjectorReplaysFromSeed(t *testing.T) {
	spec := Spec{Drop: 0.1, Delay: 0.1, Duplicate: 0.1, Corrupt: 0.1, Seed: 42}
	inj1, mem1 := runInjector(t, spec, 300)
	inj2, mem2 := runInjector(t, spec, 300)
	if inj1.Stats() != inj2.Stats() {
		t.Fatalf("same seed, different stats: %+v vs %+v", inj1.Stats(), inj2.Stats())
	}
	p1, p2 := mem1.payloads(), mem2.payloads()
	if len(p1) != len(p2) {
		t.Fatalf("same seed, different delivery counts: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if !bytes.Equal(p1[i], p2[i]) {
			t.Fatalf("payload %d differs between replays", i)
		}
	}
	st := inj1.Stats()
	if st.Sent != 300 || st.Dropped == 0 || st.Duplicated == 0 || st.Corrupted == 0 || st.Delayed == 0 {
		t.Fatalf("expected every fault kind at 10%% over 300 sends: %+v", st)
	}
	// A different seed must produce a different fault sequence.
	spec.Seed = 43
	inj3, _ := runInjector(t, spec, 300)
	if inj3.Stats() == inj1.Stats() {
		t.Fatalf("different seeds, identical stats: %+v", inj3.Stats())
	}
}

func TestInjectorFaultKinds(t *testing.T) {
	// Drop everything: nothing reaches the inner transport.
	inj, mem := runInjector(t, Spec{Drop: 1}, 10)
	if got := len(mem.payloads()); got != 0 {
		t.Fatalf("drop=1 delivered %d messages", got)
	}
	if inj.Stats().Dropped != 10 {
		t.Fatalf("dropped = %d", inj.Stats().Dropped)
	}
	// Duplicate everything: twice the messages.
	_, mem = runInjector(t, Spec{Duplicate: 1}, 10)
	if got := len(mem.payloads()); got != 20 {
		t.Fatalf("dup=1 delivered %d messages", got)
	}
	// Corrupt everything: payloads differ from the original.
	_, mem = runInjector(t, Spec{Corrupt: 1}, 1)
	if got := mem.payloads(); len(got) != 1 || bytes.Equal(got[0], []byte{0, 0, 0xAA}) {
		t.Fatalf("corrupt=1 delivered pristine payload %v", got)
	}
	// Rates outside [0,1] are refused.
	if _, err := InjectTransport(&memTransport{}, Spec{Drop: 1.5}); err == nil {
		t.Fatal("invalid spec accepted")
	}
	if _, err := InjectTransport(nil, Spec{}); err == nil {
		t.Fatal("nil transport accepted")
	}
}

// --- circuit breaker ---------------------------------------------------------------

func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	br := NewBreaker(2, 100*time.Millisecond)
	br.SetClock(func() time.Time { return now })

	boom := errors.New("boom")
	if br.State() != Closed || !br.Allow() {
		t.Fatal("breaker not closed initially")
	}
	br.Observe(boom)
	if br.State() != Closed {
		t.Fatal("opened below threshold")
	}
	br.Observe(boom)
	if br.State() != Open || br.Allow() {
		t.Fatalf("state after threshold = %v", br.State())
	}
	if br.Trips() != 1 {
		t.Fatalf("trips = %d", br.Trips())
	}
	// Cooldown elapses: half-open admits a trial.
	now = now.Add(101 * time.Millisecond)
	if br.State() != HalfOpen || !br.Allow() {
		t.Fatalf("state after cooldown = %v", br.State())
	}
	// Failed trial re-opens immediately.
	br.Observe(boom)
	if br.State() != Open || br.Trips() != 2 {
		t.Fatalf("failed trial: state=%v trips=%d", br.State(), br.Trips())
	}
	// Successful trial closes.
	now = now.Add(101 * time.Millisecond)
	br.Observe(nil)
	if br.State() != Closed || !br.Allow() {
		t.Fatalf("successful trial: state=%v", br.State())
	}
	// A success between failures resets the consecutive count.
	br.Observe(boom)
	br.Observe(nil)
	br.Observe(boom)
	if br.State() != Closed {
		t.Fatal("non-consecutive failures opened the breaker")
	}
}

// --- port wrappers -----------------------------------------------------------------

// scriptedPort fails the first n operations, then succeeds. It is
// concurrency-safe: TimeoutPort runs operations on their own
// goroutines.
type scriptedPort struct {
	failures int
	err      error
	block    chan struct{} // when non-nil, operations block until closed

	mu    sync.Mutex
	calls int
}

func (p *scriptedPort) op() error {
	if p.block != nil {
		<-p.block
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	if p.calls <= p.failures {
		return p.err
	}
	return nil
}

func (p *scriptedPort) callCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

func (p *scriptedPort) Send(*thread.Env, string, any) error { return p.op() }

func (p *scriptedPort) Call(*thread.Env, string, any) (any, error) {
	if err := p.op(); err != nil {
		return nil, err
	}
	return "ok", nil
}

func TestRetryPortBacksOffExponentially(t *testing.T) {
	inner := &scriptedPort{failures: 2, err: errors.New("flaky")}
	var slept []time.Duration
	rp, err := NewRetryPort(inner, Backoff{
		Attempts: 4, Base: time.Millisecond, Max: 100 * time.Millisecond,
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Send(nil, "op", nil); err != nil {
		t.Fatalf("send after retries: %v", err)
	}
	if rp.Retries() != 2 || inner.callCount() != 3 {
		t.Fatalf("retries=%d calls=%d", rp.Retries(), inner.callCount())
	}
	if len(slept) != 2 || slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Fatalf("backoff sequence = %v", slept)
	}
}

func TestRetryPortExhaustsAttempts(t *testing.T) {
	inner := &scriptedPort{failures: 100, err: errors.New("down")}
	rp, err := NewRetryPort(inner, Backoff{Attempts: 3, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rp.Call(nil, "op", nil); err == nil || !strings.Contains(err.Error(), "3 attempts") {
		t.Fatalf("exhausted call: %v", err)
	}
	if inner.callCount() != 3 {
		t.Fatalf("calls = %d", inner.callCount())
	}
}

func TestRetryPortRespectsNonRetryable(t *testing.T) {
	inner := &scriptedPort{failures: 100, err: fmt.Errorf("wrapped: %w", ErrCircuitOpen)}
	rp, err := NewRetryPort(inner, Backoff{Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Send(nil, "op", nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("send: %v", err)
	}
	if inner.callCount() != 1 {
		t.Fatalf("retried a non-retryable error %d times", inner.callCount()-1)
	}
}

func TestTimeoutPortReleasesCaller(t *testing.T) {
	block := make(chan struct{})
	inner := &scriptedPort{block: block}
	tp, err := NewTimeoutPort(inner, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tp.Call(nil, "op", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("call: %v", err)
	}
	if tp.Timeouts() != 1 {
		t.Fatalf("timeouts = %d", tp.Timeouts())
	}
	close(block) // release the stray goroutine
	if err := tp.Send(nil, "op", nil); err != nil {
		t.Fatalf("send after release: %v", err)
	}
	if _, err := NewTimeoutPort(inner, 0); err == nil {
		t.Fatal("zero deadline accepted")
	}
}

func TestBreakerPortFailsFast(t *testing.T) {
	inner := &scriptedPort{failures: 2, err: errors.New("down")}
	br := NewBreaker(2, time.Hour)
	bp, err := NewBreakerPort(inner, br)
	if err != nil {
		t.Fatal(err)
	}
	_ = bp.Send(nil, "op", nil)
	_ = bp.Send(nil, "op", nil)
	if br.State() != Open {
		t.Fatalf("state = %v", br.State())
	}
	// The circuit is open: the inner port is no longer hammered.
	if err := bp.Send(nil, "op", nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("send while open: %v", err)
	}
	if _, err := bp.Call(nil, "op", nil); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("call while open: %v", err)
	}
	if inner.callCount() != 2 {
		t.Fatalf("inner called %d times while open", inner.callCount())
	}
}

func TestHardenLayersWrappers(t *testing.T) {
	inner := &scriptedPort{}
	p, err := Harden(inner, HardenOptions{
		Timeout: time.Second,
		Breaker: NewBreaker(0, 0),
		Retry:   &Backoff{},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Retry is outermost so backoff spans breaker verdicts and timeouts.
	if _, ok := p.(*RetryPort); !ok {
		t.Fatalf("outermost wrapper is %T, want *RetryPort", p)
	}
	if err := p.Send(nil, "op", nil); err != nil {
		t.Fatal(err)
	}
	// No options: the port passes through untouched.
	if q, err := Harden(inner, HardenOptions{}); err != nil || q != membrane.Port(inner) {
		t.Fatalf("empty options: %T, %v", q, err)
	}
}

// --- panic isolation ---------------------------------------------------------------

// bombContent panics on the "boom" op, succeeds otherwise.
type bombContent struct {
	inits int
	calls int
}

func (b *bombContent) Init(*membrane.Services) error { b.inits++; return nil }

func (b *bombContent) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	if op == "boom" {
		panic("kaboom")
	}
	b.calls++
	return "ok", nil
}

func TestPanicInterceptorIsolatesComponent(t *testing.T) {
	pi := NewPanicInterceptor("C")
	content := &bombContent{}
	m, err := membrane.New("C", content, pi)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Lifecycle().Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Dispatch(&membrane.Invocation{Interface: "in", Op: "work"}); err != nil {
		t.Fatal(err)
	}
	// The panic is converted, not propagated.
	_, err = m.Dispatch(&membrane.Invocation{Interface: "in", Op: "boom"})
	if !errors.Is(err, ErrPanic) || !strings.Contains(err.Error(), "C on in.boom: kaboom") {
		t.Fatalf("panic dispatch: %v", err)
	}
	if pi.Recovered() != 1 {
		t.Fatalf("recovered = %d", pi.Recovered())
	}
	// The component is FAILED: further invocations are refused with the cause.
	if failed, cause := m.Lifecycle().Failure(); !failed || !errors.Is(cause, ErrPanic) {
		t.Fatalf("failure = %v, %v", failed, cause)
	}
	_, err = m.Dispatch(&membrane.Invocation{Interface: "in", Op: "work"})
	if !errors.Is(err, membrane.ErrFailed) {
		t.Fatalf("dispatch while failed: %v", err)
	}
	// Restart (the supervisor's path) clears the failure.
	if err := m.Lifecycle().Start(); err != nil {
		t.Fatal(err)
	}
	if failed, _ := m.Lifecycle().Failure(); failed {
		t.Fatal("failure survives restart")
	}
	if _, err := m.Dispatch(&membrane.Invocation{Interface: "in", Op: "work"}); err != nil {
		t.Fatalf("dispatch after restart: %v", err)
	}
	if content.inits != 2 {
		t.Fatalf("inits = %d, want re-init on restart", content.inits)
	}
}

func TestChaosInterceptorIsDeterministic(t *testing.T) {
	count := func(seed int64) int64 {
		ci := NewChaosInterceptor(0.3, seed)
		next := func(*membrane.Invocation) (any, error) { return nil, nil }
		for i := 0; i < 200; i++ {
			func() {
				defer func() { _ = recover() }()
				_, _ = ci.Invoke(&membrane.Invocation{Interface: "in", Op: "op"}, next)
			}()
		}
		return ci.Panics()
	}
	a, b := count(9), count(9)
	if a != b {
		t.Fatalf("same seed: %d vs %d panics", a, b)
	}
	if a == 0 || a == 200 {
		t.Fatalf("rate 0.3 produced %d/200 panics", a)
	}
}

// --- supervisor --------------------------------------------------------------------

// fakeRestarter records lifecycle requests.
type fakeRestarter struct {
	mu       sync.Mutex
	restarts []string
	stops    []string
	err      error
}

func (f *fakeRestarter) Restart(c string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.restarts = append(f.restarts, c)
	return f.err
}

func (f *fakeRestarter) Stop(c string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stops = append(f.stops, c)
	return f.err
}

// faultSignal is a probe the test raises by hand: the next poll sees
// the component unhealthy once, as after a fresh failure.
type faultSignal struct{ raised atomic.Bool }

func (f *faultSignal) raise() { f.raised.Store(true) }

func (f *faultSignal) probe() Health {
	if f.raised.Swap(false) {
		return Health{Reason: "kaboom"}
	}
	return healthyState
}

func TestSupervisorRestartsOnProbe(t *testing.T) {
	r := &fakeRestarter{}
	sup, err := NewSupervisor(r)
	if err != nil {
		t.Fatal(err)
	}
	var c faultSignal
	sup.Watch("C", Policy{Directive: RestartOneForOne}, c.probe)
	c.raise()
	acted := sup.Poll()
	if len(acted) != 1 || acted[0].Kind != "restart" || acted[0].Component != "C" || acted[0].Reason != "kaboom" {
		t.Fatalf("actions = %+v", acted)
	}
	if len(r.restarts) != 1 {
		t.Fatalf("restarts = %v", r.restarts)
	}
	// Healthy again: the next poll is quiet.
	if acted := sup.Poll(); len(acted) != 0 {
		t.Fatalf("quiet poll acted: %+v", acted)
	}
}

func TestSupervisorQuarantinesAfterBudget(t *testing.T) {
	r := &fakeRestarter{}
	now := time.Unix(0, 0)
	var escalated []string
	sup, err := NewSupervisor(r,
		WithClock(func() time.Time { return now }),
		WithEscalationHandler(func(component, reason string) { escalated = append(escalated, component) }))
	if err != nil {
		t.Fatal(err)
	}
	var c faultSignal
	sup.Watch("C", Policy{Directive: RestartOneForOne, MaxRestarts: 2, Window: time.Minute}, c.probe)
	for i := 0; i < 2; i++ {
		c.raise()
		if acted := sup.Poll(); acted[0].Kind != "restart" {
			t.Fatalf("round %d: %+v", i, acted)
		}
		now = now.Add(time.Second)
	}
	// Budget exhausted within the window: quarantine + escalate.
	c.raise()
	acted := sup.Poll()
	if len(acted) != 1 || acted[0].Kind != "quarantine" {
		t.Fatalf("exhausted budget: %+v", acted)
	}
	if !sup.Quarantined("C") || len(r.stops) != 1 || len(escalated) != 1 {
		t.Fatalf("quarantined=%v stops=%v escalated=%v", sup.Quarantined("C"), r.stops, escalated)
	}
	// Quarantined components are left alone.
	c.raise()
	if acted := sup.Poll(); len(acted) != 0 {
		t.Fatalf("acted on quarantined component: %+v", acted)
	}
	// Outside the window the budget would have been available again:
	// restart history pruning is per-window.
	sup2, _ := NewSupervisor(r, WithClock(func() time.Time { return now }))
	var d faultSignal
	sup2.Watch("D", Policy{Directive: RestartOneForOne, MaxRestarts: 1, Window: time.Second}, d.probe)
	d.raise()
	sup2.Poll()
	now = now.Add(2 * time.Second) // first restart ages out
	d.raise()
	if acted := sup2.Poll(); len(acted) != 1 || acted[0].Kind != "restart" {
		t.Fatalf("aged-out budget: %+v", acted)
	}
}

func TestSupervisorDirectives(t *testing.T) {
	r := &fakeRestarter{}
	var escalated []string
	sup, err := NewSupervisor(r, WithEscalationHandler(func(c, _ string) { escalated = append(escalated, c) }))
	if err != nil {
		t.Fatal(err)
	}
	var q, e faultSignal
	sup.Watch("Q", Policy{Directive: Quarantine}, q.probe)
	sup.Watch("E", Policy{Directive: Escalate}, e.probe)
	q.raise()
	e.raise()
	acted := sup.Poll()
	if len(acted) != 2 {
		t.Fatalf("actions = %+v", acted)
	}
	kinds := map[string]string{}
	for _, a := range acted {
		kinds[a.Component] = a.Kind
	}
	if kinds["Q"] != "quarantine" || kinds["E"] != "escalate" {
		t.Fatalf("kinds = %v", kinds)
	}
	if !sup.Quarantined("Q") || len(r.stops) != 1 || len(r.restarts) != 0 {
		t.Fatalf("quarantine effect: stops=%v restarts=%v", r.stops, r.restarts)
	}
	if len(escalated) != 1 || escalated[0] != "E" {
		t.Fatalf("escalated = %v", escalated)
	}
	if _, err := NewSupervisor(nil); err == nil {
		t.Fatal("nil restarter accepted")
	}
}

func TestSupervisorBackgroundLoop(t *testing.T) {
	r := &fakeRestarter{}
	sup, err := NewSupervisor(r)
	if err != nil {
		t.Fatal(err)
	}
	var c faultSignal
	sup.Watch("C", Policy{Directive: RestartOneForOne, MaxRestarts: 100}, c.probe)
	sup.Start(time.Millisecond)
	defer sup.Close()
	c.raise()
	deadline := time.After(2 * time.Second)
	for {
		r.mu.Lock()
		n := len(r.restarts)
		r.mu.Unlock()
		if n >= 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("background loop never acted")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	sup.Close()
	sup.Close() // idempotent
}

// --- probes ------------------------------------------------------------------------

func TestFailureProbe(t *testing.T) {
	failed, cause := false, error(nil)
	p := FailureProbe(func() (bool, error) { return failed, cause })
	if h := p(); !h.Healthy {
		t.Fatalf("healthy component flagged: %+v", h)
	}
	failed, cause = true, errors.New("kaboom")
	if h := p(); h.Healthy || !strings.Contains(h.Reason, "kaboom") {
		t.Fatalf("failed component not flagged: %+v", h)
	}
}

func TestMissProbeWatchesDeltas(t *testing.T) {
	var misses int64
	p := MissProbe(func() int64 { return misses }, 0)
	if h := p(); !h.Healthy {
		t.Fatalf("no misses flagged: %+v", h)
	}
	misses = 3
	if h := p(); h.Healthy {
		t.Fatal("3 new misses not flagged")
	}
	if h := p(); !h.Healthy { // no new misses since last poll
		t.Fatalf("stale misses flagged: %+v", h)
	}
}
