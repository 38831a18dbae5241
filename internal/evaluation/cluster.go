package evaluation

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"soleil/internal/assembly"
	"soleil/internal/cluster"
	"soleil/internal/dist"
	"soleil/internal/membrane"
	"soleil/internal/model"
	"soleil/internal/rtsj/thread"
)

// Panel (d) extends the paper's evaluation to the cluster deployment
// plane: the same ping-pong architecture measured once deployed on a
// single node (asynchronous bindings over in-process RTBuffers, whose
// sporadic servers the pacer releases on arrival) and once partitioned
// across two nodes over loopback TCP (the planner's dist links). The
// comparison prices a node boundary against an in-process buffer under
// identical pacing.

// ClusterScenarios names the panel-(d) variants in report order.
var ClusterScenarios = []string{"in-process", "cluster-loopback"}

// ClusterResult is one scenario's measurement.
type ClusterResult struct {
	Scenario string `json:"scenario"`
	// Messages is the number of round trips measured.
	Messages int `json:"messages"`
	// Inflight is the closed-loop window (pings circulating at once).
	Inflight int `json:"inflight"`
	// RTTMedian/RTTP99 summarize the ping->echo->ack round trip.
	RTTMedian time.Duration `json:"rttMedian"`
	RTTP99    time.Duration `json:"rttP99"`
	// Throughput is achieved round trips per second.
	Throughput float64 `json:"throughputPerSec"`
}

// pingerContent closes the loop: every ack triggers the next ping, so
// exactly `inflight` messages circulate. Payloads are send timestamps
// (unix nanos); a zero payload is a seed and contributes no sample.
type pingerContent struct {
	svc *membrane.Services

	mu      sync.Mutex
	rtts    []time.Duration
	target  int
	done    chan struct{}
	doneSig sync.Once
}

func (p *pingerContent) Init(svc *membrane.Services) error { p.svc = svc; return nil }

func (p *pingerContent) Activate(*thread.Env) error { return nil }

func (p *pingerContent) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	if sent, ok := arg.(int64); ok && sent > 0 {
		rtt := time.Duration(time.Now().UnixNano() - sent)
		p.mu.Lock()
		p.rtts = append(p.rtts, rtt)
		finished := len(p.rtts) >= p.target
		p.mu.Unlock()
		if finished {
			p.doneSig.Do(func() { close(p.done) })
			return nil, nil
		}
	}
	out, err := p.svc.Port("out")
	if err != nil {
		return nil, err
	}
	if err := out.Send(env, "put", time.Now().UnixNano()); err != nil &&
		!errors.Is(err, dist.ErrBackpressure) {
		return nil, err
	}
	return nil, nil
}

func (p *pingerContent) samples() []time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]time.Duration, len(p.rtts))
	copy(out, p.rtts)
	return out
}

// echoContent reflects every ping back to the pinger.
type echoContent struct {
	svc *membrane.Services
}

func (e *echoContent) Init(svc *membrane.Services) error { e.svc = svc; return nil }

func (e *echoContent) Activate(*thread.Env) error { return nil }

func (e *echoContent) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	back, err := e.svc.Port("back")
	if err != nil {
		return nil, err
	}
	if err := back.Send(env, "put", arg); err != nil && !errors.Is(err, dist.ErrBackpressure) {
		return nil, err
	}
	return nil, nil
}

// pingPongArch is the panel-(d) architecture: two sporadic actives,
// each in its own immortal area + RT domain so the deployment may
// split them, bound asynchronously in both directions.
func pingPongArch() (*model.Architecture, error) {
	a := model.NewArchitecture("pingpong")
	pinger, err := a.NewActive("Pinger", model.Activation{Kind: model.SporadicActivation})
	if err != nil {
		return nil, err
	}
	echo, err := a.NewActive("Echo", model.Activation{Kind: model.SporadicActivation})
	if err != nil {
		return nil, err
	}
	steps := []error{
		pinger.AddInterface(model.Interface{Name: "out", Role: model.ClientRole, Signature: "IPing"}),
		pinger.AddInterface(model.Interface{Name: "ack", Role: model.ServerRole, Signature: "IPong"}),
		pinger.SetContent("PingerImpl"),
		echo.AddInterface(model.Interface{Name: "in", Role: model.ServerRole, Signature: "IPing"}),
		echo.AddInterface(model.Interface{Name: "back", Role: model.ClientRole, Signature: "IPong"}),
		echo.SetContent("EchoImpl"),
	}
	for _, comp := range []struct {
		c      *model.Component
		suffix string
	}{{pinger, "ping"}, {echo, "echo"}} {
		imm, err := a.NewMemoryArea("imm_"+comp.suffix, model.AreaDesc{Kind: model.ImmortalMemory})
		if err != nil {
			return nil, err
		}
		td, err := a.NewThreadDomain("td_"+comp.suffix, model.DomainDesc{Kind: model.RealtimeThread, Priority: 20})
		if err != nil {
			return nil, err
		}
		steps = append(steps, a.AddChild(imm, td), a.AddChild(td, comp.c))
	}
	for _, b := range []model.Binding{
		{Client: model.Endpoint{Component: "Pinger", Interface: "out"},
			Server:   model.Endpoint{Component: "Echo", Interface: "in"},
			Protocol: model.Asynchronous, BufferSize: 128, Pattern: "deep-copy"},
		{Client: model.Endpoint{Component: "Echo", Interface: "back"},
			Server:   model.Endpoint{Component: "Pinger", Interface: "ack"},
			Protocol: model.Asynchronous, BufferSize: 128, Pattern: "deep-copy"},
	} {
		if _, err := a.Bind(b); err != nil {
			return nil, err
		}
	}
	for _, err := range steps {
		if err != nil {
			return nil, err
		}
	}
	return a, nil
}

func pingPongDeployment(arch string, nodes int) (*model.Deployment, error) {
	d := model.NewDeployment(arch)
	if nodes == 1 {
		return d, d.AddNode(&model.DeployNode{Name: "solo", Addr: "127.0.0.1:0",
			Assigned: []string{"Pinger", "Echo"}})
	}
	if err := d.AddNode(&model.DeployNode{Name: "ping", Addr: "127.0.0.1:0",
		Assigned: []string{"Pinger"}}); err != nil {
		return nil, err
	}
	return d, d.AddNode(&model.DeployNode{Name: "echo", Addr: "127.0.0.1:0",
		Assigned: []string{"Echo"}})
}

// MeasureClusterScenario runs one panel-(d) scenario: messages round
// trips with `inflight` pings circulating.
func MeasureClusterScenario(scenario string, messages, inflight int) (ClusterResult, error) {
	nodes := 1
	if scenario == "cluster-loopback" {
		nodes = 2
	}
	arch, err := pingPongArch()
	if err != nil {
		return ClusterResult{}, err
	}
	dep, err := pingPongDeployment(arch.Name(), nodes)
	if err != nil {
		return ClusterResult{}, err
	}
	plan, err := cluster.Compute(arch, dep)
	if err != nil {
		return ClusterResult{}, err
	}

	pinger := &pingerContent{target: messages, done: make(chan struct{})}
	echo := &echoContent{}
	reg := assembly.NewRegistry()
	if err := reg.Register("PingerImpl", func() membrane.Content { return pinger }); err != nil {
		return ClusterResult{}, err
	}
	if err := reg.Register("EchoImpl", func() membrane.Content { return echo }); err != nil {
		return ClusterResult{}, err
	}

	lc, err := cluster.StartLocal(plan, cluster.AgentConfig{Registry: reg})
	if err != nil {
		return ClusterResult{}, err
	}
	defer lc.Close()

	// Seed the closed loop through the pinger's own dataplane.
	var pingNode *cluster.Agent
	for _, ag := range lc.Agents() {
		if _, ok := ag.System().Node("Pinger"); ok {
			pingNode = ag
		}
	}
	if pingNode == nil {
		return ClusterResult{}, fmt.Errorf("evaluation: no agent hosts the Pinger")
	}
	env, closeEnv, err := pingNode.System().NewEnv(false)
	if err != nil {
		return ClusterResult{}, err
	}
	defer closeEnv()
	node, _ := pingNode.System().Node("Pinger")
	start := time.Now()
	for i := 0; i < inflight; i++ {
		if _, err := node.Invoke(env, "ack", "put", int64(0)); err != nil {
			return ClusterResult{}, err
		}
	}
	select {
	case <-pinger.done:
	case <-time.After(2 * time.Minute):
		return ClusterResult{}, fmt.Errorf("evaluation: %s stalled at %d/%d round trips",
			scenario, len(pinger.samples()), messages)
	}
	elapsed := time.Since(start)

	samples := pinger.samples()
	sum := Summarize(samples)
	return ClusterResult{
		Scenario:   scenario,
		Messages:   len(samples),
		Inflight:   inflight,
		RTTMedian:  sum.Median,
		RTTP99:     sum.P99,
		Throughput: float64(len(samples)) / elapsed.Seconds(),
	}, nil
}

// MeasureCluster runs both panel-(d) scenarios.
func MeasureCluster(messages, inflight int) ([]ClusterResult, error) {
	out := make([]ClusterResult, 0, len(ClusterScenarios))
	for _, s := range ClusterScenarios {
		r, err := MeasureClusterScenario(s, messages, inflight)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
