package fault

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"soleil/internal/assembly"
	"soleil/internal/dist"
	"soleil/internal/membrane"
	"soleil/internal/model"
	"soleil/internal/reconfig"
	"soleil/internal/rtsj/thread"
)

// soakTick is the distributed payload of the soak scenario.
type soakTick struct {
	Seq int
}

// soakSource emits ticks through its "out" port.
type soakSource struct {
	svc *membrane.Services
	seq int
}

func (s *soakSource) Init(svc *membrane.Services) error { s.svc = svc; return nil }

func (s *soakSource) Invoke(*thread.Env, string, string, any) (any, error) {
	return nil, errors.New("source serves nothing")
}

func (s *soakSource) Activate(env *thread.Env) error {
	s.seq++
	port, err := s.svc.Port("out")
	if err != nil {
		return err
	}
	return port.Send(env, "tick", soakTick{Seq: s.seq})
}

// soakSink counts ticks but panics on every panicEvery-th delivery.
type soakSink struct {
	panicEvery int
	received   int64
	inits      int64
}

func (s *soakSink) Init(*membrane.Services) error { atomic.AddInt64(&s.inits, 1); return nil }

func (s *soakSink) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	t, ok := arg.(soakTick)
	if !ok {
		return nil, errors.New("sink received a foreign payload")
	}
	if s.panicEvery > 0 && t.Seq%s.panicEvery == 0 {
		panic("soak: sink firmware bug")
	}
	atomic.AddInt64(&s.received, 1)
	return nil, nil
}

func soakProducer(t *testing.T, content membrane.Content) *assembly.System {
	t.Helper()
	a := model.NewArchitecture("soak-producer")
	src, err := a.NewActive("Source", model.Activation{Kind: model.SporadicActivation})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.AddInterface(model.Interface{Name: "out", Role: model.ClientRole, Signature: "ITick"}); err != nil {
		t.Fatal(err)
	}
	if err := src.SetContent("SourceImpl"); err != nil {
		t.Fatal(err)
	}
	td, _ := a.NewThreadDomain("rt", model.DomainDesc{Kind: model.RealtimeThread, Priority: 20})
	imm, _ := a.NewMemoryArea("imm", model.AreaDesc{Kind: model.ImmortalMemory})
	if err := a.AddChild(imm, td); err != nil {
		t.Fatal(err)
	}
	if err := a.AddChild(td, src); err != nil {
		t.Fatal(err)
	}
	reg := assembly.NewRegistry()
	if err := reg.Register("SourceImpl", func() membrane.Content { return content }); err != nil {
		t.Fatal(err)
	}
	sys, err := assembly.Deploy(a, assembly.Config{Mode: assembly.Soleil, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// soakConsumer deploys a passive sink guarded by the returned
// PanicInterceptor.
func soakConsumer(t *testing.T, content membrane.Content) (*assembly.System, *PanicInterceptor) {
	t.Helper()
	a := model.NewArchitecture("soak-consumer")
	snk, err := a.NewPassive("Sink")
	if err != nil {
		t.Fatal(err)
	}
	if err := snk.AddInterface(model.Interface{Name: "in", Role: model.ServerRole, Signature: "ITick"}); err != nil {
		t.Fatal(err)
	}
	if err := snk.SetContent("SinkImpl"); err != nil {
		t.Fatal(err)
	}
	imm, _ := a.NewMemoryArea("imm", model.AreaDesc{Kind: model.ImmortalMemory})
	if err := a.AddChild(imm, snk); err != nil {
		t.Fatal(err)
	}
	reg := assembly.NewRegistry()
	if err := reg.Register("SinkImpl", func() membrane.Content { return content }); err != nil {
		t.Fatal(err)
	}
	guard := NewPanicInterceptor("Sink")
	sys, err := assembly.Deploy(a, assembly.Config{
		Mode:     assembly.Soleil,
		Registry: reg,
		Interceptors: func(component string) []membrane.Interceptor {
			return []membrane.Interceptor{guard}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys, guard
}

// TestSoakDistributedSupervision is the acceptance scenario: two
// systems joined over a lossy transport (2% drops, duplicates,
// corruption), a sink that panics on ~8% of deliveries, a hardened
// export, a self-healing importer and a supervisor restarting the sink
// — the run must complete with restarts, zero crashes and no goroutine
// leaks.
func TestSoakDistributedSupervision(t *testing.T) {
	dist.RegisterPayload(soakTick{})
	baseline := runtime.NumGoroutine()

	const frames = 400
	src := &soakSource{}
	snk := &soakSink{panicEvery: 13}
	producer := soakProducer(t, src)
	consumer, guard := soakConsumer(t, snk)

	a, b := dist.NewPipe()
	inj, err := InjectTransport(a, Spec{Drop: 0.02, Duplicate: 0.02, Corrupt: 0.02, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExportHardened(producer, "Source", "out", "in", inj, HardenOptions{
		Timeout: time.Second,
		Breaker: NewBreaker(8, 10*time.Millisecond),
		Retry:   &Backoff{Attempts: 2, Sleep: func(time.Duration) {}},
	}); err != nil {
		t.Fatal(err)
	}
	imp, err := dist.Import(consumer, "Sink", b)
	if err != nil {
		t.Fatal(err)
	}
	var absorbed int64
	imp.SetErrorHandler(func(error) bool { atomic.AddInt64(&absorbed, 1); return true })

	mgr, err := reconfig.NewManager(consumer)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(mgr)
	if err != nil {
		t.Fatal(err)
	}
	sup.Watch("Sink", Policy{Directive: RestartOneForOne, MaxRestarts: 1000, Window: time.Hour},
		FailureProbe(func() (bool, error) { return consumer.ComponentFailed("Sink") }))
	sup.Start(time.Millisecond)

	if err := producer.Start(); err != nil {
		t.Fatal(err)
	}
	if err := consumer.Start(); err != nil {
		t.Fatal(err)
	}
	go imp.Serve()

	env, closeEnv, err := producer.NewEnv(false)
	if err != nil {
		t.Fatal(err)
	}
	node, _ := producer.Node("Source")
	processed := func() int64 { return imp.Delivered() + imp.Dropped() }
	for i := 0; i < frames; i++ {
		before := processed()
		if err := node.Activate(env); err != nil {
			// The breaker may fail fast while the sink is down; that is
			// the hardening working, not a crash.
			if errors.Is(err, ErrCircuitOpen) {
				continue
			}
			t.Fatalf("frame %d: %v", i, err)
		}
		for wait := 0; processed() == before && wait < 200; wait++ {
			time.Sleep(50 * time.Microsecond)
		}
	}
	if err := inj.Close(); err != nil {
		t.Fatal(err)
	}
	imp.Wait()
	closeEnv()
	sup.Close()
	sup.Poll()

	if err := imp.Err(); err != nil {
		t.Fatalf("importer died: %v", err)
	}
	restarts := 0
	for _, action := range sup.Actions() {
		if action.Kind == "restart" && action.Err == nil {
			restarts++
		}
	}
	if restarts == 0 {
		t.Fatal("supervisor never restarted the sink")
	}
	if got := atomic.LoadInt64(&snk.received); got < frames/2 {
		t.Fatalf("sink received only %d/%d frames", got, frames)
	}
	if atomic.LoadInt64(&snk.inits) < 2 {
		t.Fatal("sink was never re-initialized by a restart")
	}
	if guard.Recovered() == 0 || inj.Stats().Dropped == 0 {
		t.Fatalf("scenario did not exercise faults: %+v, panics=%d", inj.Stats(), guard.Recovered())
	}
	if sup.Quarantined("Sink") {
		t.Fatal("sink quarantined despite a generous budget")
	}

	// No goroutine leaks: everything we started has wound down.
	deadline := time.After(5 * time.Second)
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
	t.Logf("soak: received=%d absorbed=%d restarts=%d injected=%+v",
		snk.received, absorbed, restarts, inj.Stats())
}

// TestSupervisorHealsDeployedComponent walks the full restart path on
// a real deployment: panic -> FAILED -> supervisor poll -> audited
// reconfig restart -> component serving again.
func TestSupervisorHealsDeployedComponent(t *testing.T) {
	snk := &soakSink{panicEvery: 13} // panics on tick 13 below
	sys, guard := soakConsumer(t, snk)
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	mgr, err := reconfig.NewManager(sys)
	if err != nil {
		t.Fatal(err)
	}
	sup, err := NewSupervisor(mgr)
	if err != nil {
		t.Fatal(err)
	}
	sup.Watch("Sink", Policy{Directive: RestartOneForOne},
		FailureProbe(func() (bool, error) { return sys.ComponentFailed("Sink") }))

	env, closeEnv, err := sys.NewEnv(false)
	if err != nil {
		t.Fatal(err)
	}
	defer closeEnv()
	node, _ := sys.Node("Sink")
	if _, err := node.Invoke(env, "in", "tick", soakTick{Seq: 13}); !errors.Is(err, ErrPanic) {
		t.Fatalf("panic invoke: %v", err)
	}
	if failed, cause := sys.ComponentFailed("Sink"); !failed || !errors.Is(cause, ErrPanic) || guard.Recovered() != 1 {
		t.Fatalf("component not FAILED: %v, %v (recovered %d)", failed, cause, guard.Recovered())
	}
	// While FAILED, invocations are refused with the recorded cause.
	if _, err := node.Invoke(env, "in", "tick", soakTick{Seq: 2}); !errors.Is(err, membrane.ErrFailed) {
		t.Fatalf("invoke while failed: %v", err)
	}
	// The supervisor notices and restarts through the audited manager.
	acted := sup.Poll()
	if len(acted) != 1 || acted[0].Kind != "restart" || acted[0].Err != nil {
		t.Fatalf("poll: %+v", acted)
	}
	if failed, _ := sys.ComponentFailed("Sink"); failed {
		t.Fatal("restart did not clear FAILED")
	}
	if _, err := node.Invoke(env, "in", "tick", soakTick{Seq: 2}); err != nil {
		t.Fatalf("invoke after restart: %v", err)
	}
	// The restart shows up in the reconfiguration audit trail and the
	// introspection snapshot no longer reports a failure.
	hist := mgr.History()
	if len(hist) != 1 || hist[0].Kind != "restart" || hist[0].Detail != "Sink" {
		t.Fatalf("history = %+v", hist)
	}
	for _, cs := range mgr.Introspect().Components {
		if cs.Name == "Sink" && (cs.Failed || !cs.Started) {
			t.Fatalf("snapshot after restart: %+v", cs)
		}
	}
}

// TestResilientRunAbsorbsActivationPanics exercises the resilient
// execution mode: a periodic component whose activation panics does
// not terminate its thread or fail the run; the errors stay
// inspectable.
func TestResilientRunAbsorbsActivationPanics(t *testing.T) {
	a := model.NewArchitecture("resilient")
	act, err := a.NewActive("Crashy", model.Activation{
		Kind: model.PeriodicActivation, Period: 5 * time.Millisecond, Cost: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := act.SetContent("CrashyImpl"); err != nil {
		t.Fatal(err)
	}
	td, _ := a.NewThreadDomain("rt", model.DomainDesc{Kind: model.RealtimeThread, Priority: 20})
	imm, _ := a.NewMemoryArea("imm", model.AreaDesc{Kind: model.ImmortalMemory})
	if err := a.AddChild(imm, td); err != nil {
		t.Fatal(err)
	}
	if err := a.AddChild(td, act); err != nil {
		t.Fatal(err)
	}
	reg := assembly.NewRegistry()
	if err := reg.Register("CrashyImpl", func() membrane.Content { return &panickyActive{} }); err != nil {
		t.Fatal(err)
	}
	sys, err := assembly.Deploy(a, assembly.Config{Mode: assembly.Soleil, Registry: reg, Resilient: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(50 * time.Millisecond); err != nil {
		t.Fatalf("resilient run failed: %v", err)
	}
	errs := sys.Errors()
	if len(errs) == 0 {
		t.Fatal("no absorbed errors recorded")
	}
	for _, e := range errs {
		if !strings.Contains(e.Error(), "panic") {
			t.Fatalf("unexpected error: %v", e)
		}
	}
	// The same architecture with erroring (not panicking) content and
	// without Resilient fails the run — absorption is opt-in.
	reg2 := assembly.NewRegistry()
	if err := reg2.Register("CrashyImpl", func() membrane.Content { return &erroringActive{} }); err != nil {
		t.Fatal(err)
	}
	sys2, err := assembly.Deploy(a, assembly.Config{Mode: assembly.Soleil, Registry: reg2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys2.RunFor(50 * time.Millisecond); err == nil {
		t.Fatal("non-resilient run absorbed an activation error")
	}
	// Resilient mode absorbs plain errors the same way.
	sys3, err := assembly.Deploy(a, assembly.Config{Mode: assembly.Soleil, Registry: reg2, Resilient: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys3.RunFor(50 * time.Millisecond); err != nil {
		t.Fatalf("resilient run failed on plain errors: %v", err)
	}
	if len(sys3.Errors()) == 0 {
		t.Fatal("no absorbed errors recorded for erroring content")
	}
}

// erroringActive fails (with an error, not a panic) on every
// activation.
type erroringActive struct{}

func (e *erroringActive) Init(*membrane.Services) error { return nil }

func (e *erroringActive) Invoke(*thread.Env, string, string, any) (any, error) {
	return nil, errors.New("serves nothing")
}

func (e *erroringActive) Activate(*thread.Env) error { return errors.New("activation failure") }

// panickyActive panics on every activation.
type panickyActive struct{}

func (p *panickyActive) Init(*membrane.Services) error { return nil }

func (p *panickyActive) Invoke(*thread.Env, string, string, any) (any, error) {
	return nil, errors.New("serves nothing")
}

func (p *panickyActive) Activate(*thread.Env) error { panic("activation bug") }
