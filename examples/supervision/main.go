// Supervision: a two-system distributed deployment surviving both a
// lossy transport and a crashing component.
//
// A telemetry producer feeds a ground station over an in-process
// transport wrapped with deterministic fault injection (drops,
// duplicates, corruption — replayable from a seed). The station's
// content panics on every 7th frame; a panic interceptor in its
// membrane recovers the panic and flips the component's lifecycle to
// FAILED, and a supervisor restarts it through the reconfiguration
// manager. The producer side is hardened with retry + circuit breaker
// + per-call timeout, and the importer absorbs delivery errors instead
// of dying — so the run completes with zero process crashes.
//
//	go run ./examples/supervision
package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"soleil"
	"soleil/internal/fault"
	"soleil/internal/membrane"
)

// telemetry is the value message crossing the node boundary.
type telemetry struct {
	Seq     int
	Reading float64
}

type producer struct {
	svc *soleil.Services
	seq int
}

func (p *producer) Init(svc *soleil.Services) error { p.svc = svc; return nil }

func (p *producer) Invoke(*soleil.Env, string, string, any) (any, error) {
	return nil, fmt.Errorf("producer serves nothing")
}

func (p *producer) Activate(env *soleil.Env) error {
	p.seq++
	port, err := p.svc.Port("downlink")
	if err != nil {
		return err
	}
	return port.Send(env, "telemetry", telemetry{Seq: p.seq, Reading: float64(p.seq) * 1.5})
}

// flakyStation receives frames but panics on every 7th one — the
// misbehaving component the membrane must contain.
type flakyStation struct {
	received []telemetry
	inits    int
}

func (g *flakyStation) Init(*soleil.Services) error { g.inits++; return nil }

func (g *flakyStation) Invoke(env *soleil.Env, itf, op string, arg any) (any, error) {
	t, ok := arg.(telemetry)
	if !ok {
		return nil, fmt.Errorf("ground station received %T", arg)
	}
	if t.Seq%7 == 0 {
		panic(fmt.Sprintf("station firmware bug on frame %d", t.Seq))
	}
	g.received = append(g.received, t)
	return nil, nil
}

func buildProducerSystem(content soleil.Content) (*soleil.System, error) {
	arch := soleil.NewArchitecture("spacecraft")
	src, err := arch.NewActive("Telemetry", soleil.Activation{Kind: soleil.SporadicActivation})
	if err != nil {
		return nil, err
	}
	if err := src.AddInterface(soleil.Interface{Name: "downlink", Role: soleil.ClientRole, Signature: "ITelemetry"}); err != nil {
		return nil, err
	}
	if err := src.SetContent("TelemetryImpl"); err != nil {
		return nil, err
	}
	td, err := arch.NewThreadDomain("rt", soleil.DomainDesc{Kind: soleil.RealtimeThread, Priority: 28})
	if err != nil {
		return nil, err
	}
	imm, err := arch.NewMemoryArea("imm", soleil.AreaDesc{Kind: soleil.ImmortalMemory, Size: 64 << 10})
	if err != nil {
		return nil, err
	}
	if err := arch.AddChild(imm, td); err != nil {
		return nil, err
	}
	if err := arch.AddChild(td, src); err != nil {
		return nil, err
	}
	fw := soleil.New()
	if err := fw.Register("TelemetryImpl", func() soleil.Content { return content }); err != nil {
		return nil, err
	}
	return fw.Deploy(arch, soleil.Soleil)
}

func buildConsumerSystem(content soleil.Content, guard *fault.PanicInterceptor) (*soleil.System, error) {
	arch := soleil.NewArchitecture("ground")
	snk, err := arch.NewPassive("Station")
	if err != nil {
		return nil, err
	}
	if err := snk.AddInterface(soleil.Interface{Name: "uplink", Role: soleil.ServerRole, Signature: "ITelemetry"}); err != nil {
		return nil, err
	}
	if err := snk.SetContent("StationImpl"); err != nil {
		return nil, err
	}
	heap, err := arch.NewMemoryArea("heap", soleil.AreaDesc{Kind: soleil.HeapMemory})
	if err != nil {
		return nil, err
	}
	if err := arch.AddChild(heap, snk); err != nil {
		return nil, err
	}
	fw := soleil.New()
	if err := fw.Register("StationImpl", func() soleil.Content { return content }); err != nil {
		return nil, err
	}
	// The panic guard rides on the station's membrane.
	return fw.DeployConfig(arch, soleil.DeployOptions{
		Mode: soleil.Soleil,
		Interceptors: func(component string) []membrane.Interceptor {
			return []membrane.Interceptor{guard}
		},
	})
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	soleil.RegisterPayload(telemetry{})

	prodContent := &producer{}
	station := &flakyStation{}
	producerSys, err := buildProducerSystem(prodContent)
	if err != nil {
		return err
	}
	guard := soleil.NewPanicInterceptor("Station")
	consumerSys, err := buildConsumerSystem(station, guard)
	if err != nil {
		return err
	}

	// Join the systems over a pipe wrapped with seeded fault
	// injection: the same seed replays the same drops/duplicates.
	a, b := soleil.NewPipeTransport()
	spec := soleil.FaultSpec{Drop: 0.08, Duplicate: 0.05, Corrupt: 0.03, Seed: 7}
	lossy, err := soleil.InjectFaults(a, spec)
	if err != nil {
		return err
	}

	// Producer side: hardened remote port (retry + breaker + timeout).
	breaker := fault.NewBreaker(5, 50*time.Millisecond)
	if _, err := soleil.ExportHardened(producerSys, "Telemetry", "downlink", "uplink", lossy,
		soleil.HardenOptions{
			Timeout: 250 * time.Millisecond,
			Breaker: breaker,
			Retry:   &fault.Backoff{Attempts: 3},
		}); err != nil {
		return err
	}

	// Consumer side: self-healing importer + restarting supervisor.
	importer, err := soleil.Import(consumerSys, "Station", b)
	if err != nil {
		return err
	}
	deliveryErrs := 0
	importer.SetErrorHandler(func(err error) bool {
		deliveryErrs++
		return true // absorb: drop the message, keep serving
	})

	adapter, err := soleil.New().Adapt(consumerSys)
	if err != nil {
		return err
	}
	sup, err := soleil.NewSupervisor(adapter)
	if err != nil {
		return err
	}
	sup.Watch("Station",
		soleil.SupervisionPolicy{Directive: soleil.RestartOneForOne, MaxRestarts: 20},
		fault.FailureProbe(func() (bool, error) { return consumerSys.ComponentFailed("Station") }))

	if err := producerSys.Start(); err != nil {
		return err
	}
	if err := consumerSys.Start(); err != nil {
		return err
	}
	go importer.Serve()

	// Drive 60 telemetry frames; after each send, wait for the
	// importer to catch up, then let the supervisor take one pass —
	// the deterministic stand-in for its background polling loop.
	env, closeEnv, err := producerSys.NewEnv(false)
	if err != nil {
		return err
	}
	defer closeEnv()
	node, _ := producerSys.Node("Telemetry")
	sendFailures := 0
	processed := func() int64 { return importer.Delivered() + importer.Dropped() }
	for i := 0; i < 60; i++ {
		before := processed()
		if err := node.Activate(env); err != nil {
			if errors.Is(err, fault.ErrCircuitOpen) {
				sendFailures++
				continue
			}
			return err
		}
		// Dropped frames never reach the importer; give the rest a
		// short window to land before supervising.
		for wait := 0; processed() == before && wait < 50; wait++ {
			time.Sleep(100 * time.Microsecond)
		}
		sup.Poll()
	}
	if err := lossy.Close(); err != nil {
		return err
	}
	importer.Wait()
	sup.Poll()

	fmt.Printf("station received %d/60 frames (inits=%d)\n", len(station.received), station.inits)
	st := lossy.(*fault.Injector).Stats()
	fmt.Printf("injected faults: dropped=%d duplicated=%d corrupted=%d (seed %d)\n",
		st.Dropped, st.Duplicated, st.Corrupted, spec.Seed)
	fmt.Printf("panics recovered: %d; delivery errors absorbed: %d\n", guard.Recovered(), deliveryErrs)
	restarts := 0
	for _, a := range sup.Actions() {
		if a.Kind == "restart" && a.Err == nil {
			restarts++
		}
	}
	fmt.Printf("breaker: state=%v trips=%d; sends refused while open: %d\n",
		breaker.State(), breaker.Trips(), sendFailures)
	fmt.Printf("supervisor: %d restart(s) of Station; quarantined=%v\n", restarts, sup.Quarantined("Station"))
	for _, op := range adapter.History() {
		fmt.Printf("  reconfig %s %s err=%v\n", op.Kind, op.Detail, op.Err)
	}
	return nil
}
