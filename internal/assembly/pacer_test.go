package assembly

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"soleil/internal/membrane"
	"soleil/internal/model"
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
	got atomic.Int64
}

func (s *pacerSink) Init(*membrane.Services) error { return nil }

func (s *pacerSink) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	s.got.Add(1)
	return nil, nil
}

func (s *pacerSink) Activate(*thread.Env) error { return nil }

func pacedSystem(t *testing.T, src *pacerSource, snk *pacerSink) *System {
	t.Helper()
	a := model.NewArchitecture("paced")
	source, err := a.NewActive("Source", model.Activation{Kind: model.PeriodicActivation, Period: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := source.AddInterface(model.Interface{Name: "out", Role: model.ClientRole, Signature: "IPut"}); err != nil {
		t.Fatal(err)
	}
	if err := source.SetContent("SourceImpl"); err != nil {
		t.Fatal(err)
	}
	sink, err := a.NewActive("Sink", model.Activation{Kind: model.SporadicActivation})
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
	sys, err := Deploy(a, Config{Mode: Soleil, Registry: reg, Resilient: true})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestPacerDrivesPipelineInRealTime(t *testing.T) {
	src := &pacerSource{}
	snk := &pacerSink{}
	sys := pacedSystem(t, src, snk)
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
	sys := pacedSystem(t, src, snk)
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
	sys := pacedSystem(t, src, snk)
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

func TestPacerRequiresSoleilMode(t *testing.T) {
	src := &pacerSource{}
	snk := &pacerSink{}
	a := pacedSystem(t, src, snk).Architecture()
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
