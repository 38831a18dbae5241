package assembly

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"soleil/internal/membrane"
	"soleil/internal/model"
	"soleil/internal/obs"
	"soleil/internal/qos"
	"soleil/internal/rtsj/thread"
)

// burstySource sends sendsPerCycle messages per activation — an
// overloading producer. Backpressure from the contract gate is
// absorbed and counted: graceful shedding at the source.
type burstySource struct {
	svc           *membrane.Services
	sendsPerCycle int
	sent          atomic.Int64
	shed          atomic.Int64
	lastShedName  atomic.Value // string
}

func (s *burstySource) Init(svc *membrane.Services) error { s.svc = svc; return nil }

func (s *burstySource) Invoke(*thread.Env, string, string, any) (any, error) {
	return nil, errors.New("source serves nothing")
}

func (s *burstySource) Activate(env *thread.Env) error {
	port, err := s.svc.Port("out")
	if err != nil {
		return err
	}
	for i := 0; i < s.sendsPerCycle; i++ {
		switch err := port.Send(env, "tick", i); {
		case err == nil:
			s.sent.Add(1)
		case errors.Is(err, qos.ErrBackpressure):
			s.shed.Add(1)
			if name, ok := qos.BindingName(err); ok {
				s.lastShedName.Store(name)
			}
		default:
			return err
		}
	}
	return nil
}

// countingSink counts deliveries.
type countingSink struct {
	received atomic.Int64
}

func (s *countingSink) Init(*membrane.Services) error { return nil }

func (s *countingSink) Invoke(*thread.Env, string, string, any) (any, error) {
	s.received.Add(1)
	return nil, nil
}

// contractedArch builds Source -> Sink over an asynchronous binding
// carrying the given contract.
func contractedArch(t *testing.T, c *model.Contract) *model.Architecture {
	t.Helper()
	a := model.NewArchitecture("contracted")
	src, err := a.NewActive("Source", model.Activation{
		Kind: model.PeriodicActivation, Period: ms, Deadline: ms, Cost: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.AddInterface(model.Interface{Name: "out", Role: model.ClientRole, Signature: "ITick"}); err != nil {
		t.Fatal(err)
	}
	if err := src.SetContent("SourceImpl"); err != nil {
		t.Fatal(err)
	}
	snk, err := a.NewActive("Sink", model.Activation{
		Kind: model.SporadicActivation, Period: ms, Deadline: ms, Cost: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := snk.AddInterface(model.Interface{Name: "in", Role: model.ServerRole, Signature: "ITick"}); err != nil {
		t.Fatal(err)
	}
	if err := snk.SetContent("SinkImpl"); err != nil {
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
	if err := a.AddChild(td, snk); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Bind(model.Binding{
		Client:     model.Endpoint{Component: "Source", Interface: "out"},
		Server:     model.Endpoint{Component: "Sink", Interface: "in"},
		Protocol:   model.Asynchronous,
		BufferSize: 8,
		Contract:   c,
	}); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestSheddingBindingProtectsDownstreamDeadlines is the contract
// plane's end-to-end property: a producer offering far over the
// contracted rate is shed at the membrane, the overflow surfaces at
// the sender as typed backpressure, and the downstream component's
// deadline-miss count stays zero because only the contracted burst
// ever releases it. Run under -race via make check.
func TestSheddingBindingProtectsDownstreamDeadlines(t *testing.T) {
	// 1 msg/s contract, burst 3. The simulated scheduler runs in
	// virtual time while the gate refills in wall-clock time, one
	// token a second: far longer than the run's few wall-clock
	// milliseconds, so the run admits just the initial burst.
	arch := contractedArch(t, &model.Contract{MaxRate: 1, Burst: 3, Policy: model.Shed})
	src := &burstySource{sendsPerCycle: 10}
	snk := &countingSink{}
	reg := NewRegistry()
	if err := reg.Register("SourceImpl", func() membrane.Content { return src }); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("SinkImpl", func() membrane.Content { return snk }); err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewRegistry()
	sys, err := Deploy(arch, Config{Mode: Soleil, Registry: reg, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(50 * ms); err != nil {
		t.Fatal(err)
	}

	sent, shed := src.sent.Load(), src.shed.Load()
	if sent != 3 {
		t.Errorf("sent = %d, want the burst of 3", sent)
	}
	if shed < 400 {
		t.Errorf("shed = %d, want ~497 (50 cycles x 10 offered - burst)", shed)
	}
	bindingName := arch.Bindings()[0].String()
	if got, _ := src.lastShedName.Load().(string); got != bindingName {
		t.Errorf("backpressure attributed to %q, want %q", got, bindingName)
	}
	if got := snk.received.Load(); got != sent {
		t.Errorf("sink received %d, admitted %d", got, sent)
	}

	// The protected component met every deadline: overload never
	// reached it.
	th, _ := sys.Thread("Sink")
	if misses := th.Task().Stats().Misses; misses != 0 {
		t.Errorf("downstream misses = %d, want 0 behind a shedding gate", misses)
	}
	if cm := metrics.Component("Sink"); cm.Misses.Load() != 0 {
		t.Errorf("metered misses = %d", cm.Misses.Load())
	}

	// The buffer never overflowed — shedding happened before it.
	for _, b := range sys.Buffers() {
		if st := b.Stats(); st.Dropped != 0 {
			t.Errorf("buffer %s dropped %d despite the gate", b.Name(), st.Dropped)
		}
	}

	// The gate is observable: registered under the binding name, with
	// its counters in the Prometheus exposition.
	stats, ok := metrics.Gate(bindingName)
	if !ok {
		t.Fatalf("gate %q not registered; gates = %v", bindingName, metrics.GateNames())
	}
	gs := stats()
	if gs.Admitted != sent || gs.Shed != shed || gs.Policy != "shed" {
		t.Errorf("gate stats = %+v (sent %d, shed %d)", gs, sent, shed)
	}
	var sb strings.Builder
	if err := metrics.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if expo := sb.String(); !strings.Contains(expo, "soleil_gate_shed_total") ||
		!strings.Contains(expo, `policy="shed"`) {
		t.Error("gate counters missing from the Prometheus exposition")
	}
}

// TestUncontractedBindingUnchanged pins the zero-cost default: without
// a Contract element nothing is gated and nothing is registered.
func TestUncontractedBindingUnchanged(t *testing.T) {
	arch := contractedArch(t, nil)
	src := &burstySource{sendsPerCycle: 1}
	snk := &countingSink{}
	reg := NewRegistry()
	if err := reg.Register("SourceImpl", func() membrane.Content { return src }); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("SinkImpl", func() membrane.Content { return snk }); err != nil {
		t.Fatal(err)
	}
	metrics := obs.NewRegistry()
	sys, err := Deploy(arch, Config{Mode: Soleil, Registry: reg, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.RunFor(50 * ms); err != nil {
		t.Fatal(err)
	}
	if shed := src.shed.Load(); shed != 0 {
		t.Errorf("uncontracted binding shed %d", shed)
	}
	if src.sent.Load() == 0 || snk.received.Load() != src.sent.Load() {
		t.Errorf("delivery broken: sent %d received %d", src.sent.Load(), snk.received.Load())
	}
	if names := metrics.GateNames(); len(names) != 0 {
		t.Errorf("phantom gates registered: %v", names)
	}
}

// TestContractGatesMergedModes checks the merged generation modes
// enforce contracts through port wrappers (no membrane to intercept
// in).
func TestContractGatesMergedModes(t *testing.T) {
	for _, mode := range []Mode{MergeAll, UltraMerge} {
		t.Run(mode.String(), func(t *testing.T) {
			arch := contractedArch(t, &model.Contract{MaxRate: 100, Burst: 2, Policy: model.Shed})
			src := &burstySource{sendsPerCycle: 10}
			snk := &countingSink{}
			reg := NewRegistry()
			if err := reg.Register("SourceImpl", func() membrane.Content { return src }); err != nil {
				t.Fatal(err)
			}
			if err := reg.Register("SinkImpl", func() membrane.Content { return snk }); err != nil {
				t.Fatal(err)
			}
			sys, err := Deploy(arch, Config{Mode: mode, Registry: reg})
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.RunFor(20 * ms); err != nil {
				t.Fatal(err)
			}
			if sent := src.sent.Load(); sent != 2 {
				t.Errorf("%v sent = %d, want burst 2", mode, sent)
			}
			if src.shed.Load() == 0 {
				t.Errorf("%v never shed", mode)
			}
		})
	}
}
