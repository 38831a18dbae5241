// Package load is the framework's open-loop load plane: a synthesizer
// that grows parameterized architectures to hundreds or thousands of
// components across five workload shapes, an open-loop driver that
// injects traffic on a fixed wall-clock schedule independent of
// completions (coordinated-omission-safe by construction), and a
// reporter that measures sustainable throughput and tail latency per
// execution mode. The paper's evaluation is a single 4-component
// factory pipeline; this package is how the reproduction's perf
// trajectory covers more than one scenario.
package load

import (
	"fmt"
	"math/rand"
	"time"

	"soleil/internal/model"
)

// Shape names one scenario family of the fleet.
type Shape string

// The scenario fleet. Each shape stresses a different axis of the
// runtime: chain depth, fan-in contention, per-component state-machine
// work, change-driven propagation, and admission-gate enforcement.
const (
	// Pipeline is a deep chain of relay stages — the paper's factory
	// pipeline at parameterized depth.
	Pipeline Shape = "pipeline"
	// Fanin is a k-ary aggregation tree: leaves inject, interior
	// stages fold and forward, the root feeds the sink. Stresses
	// many-producers-one-consumer buffers.
	Fanin Shape = "fanin"
	// StateMachine is a chain of hierarchical state-machine active
	// objects (RKH's statechart execution model): every message is
	// dispatched into a nested state hierarchy and bubbles up until
	// handled before being forwarded.
	StateMachine Shape = "statemachine"
	// Reactive is a layered prop-driven graph: components re-derive a
	// value per input and propagate only when it changed (~50% by
	// design), coalescing the rest.
	Reactive Shape = "reactive"
	// Sporadic is a bursty storm through contracted gateway->worker
	// bindings, stressing minimum-interarrival enforcement: admission
	// gates and bounded buffers shed what the contract refuses.
	Sporadic Shape = "sporadic"
)

// Shapes lists the fleet in report order.
var Shapes = []Shape{Pipeline, Fanin, StateMachine, Reactive, Sporadic}

// ParseShape validates a scenario name from the CLI.
func ParseShape(s string) (Shape, error) {
	for _, sh := range Shapes {
		if string(sh) == s {
			return sh, nil
		}
	}
	return "", fmt.Errorf("load: unknown scenario shape %q (want pipeline, fanin, statemachine, reactive or sporadic)", s)
}

// Spec parameterizes one synthesized scenario. The zero values of the
// optional fields are filled by Synthesize; every random choice
// derives from Seed alone, so equal specs produce byte-identical ADL.
type Spec struct {
	Shape Shape
	// Components is the total functional component count including
	// the sink (minimum 4; clamped).
	Components int
	// Nodes is the deployment width: 1 synthesizes no deployment
	// descriptor (in-process), >1 partitions the components into
	// contiguous per-node groups with their own ThreadDomain and
	// MemoryArea (RT14 by construction).
	Nodes int
	// Seed drives every random structural choice.
	Seed int64
	// Contracted attaches a QoS contract to every entry binding
	// (always on for the sporadic shape).
	Contracted bool
	// ContractRate is the contracted admission rate per entry binding
	// in messages/sec (default 2000).
	ContractRate float64
	// ContractBurst is the contracted token-bucket depth (default 64,
	// never above BufferSize — RT16).
	ContractBurst int
	// ContractBudget is the contracted latency budget (default 50ms).
	ContractBudget time.Duration
	// BufferSize bounds every asynchronous buffer (default 256).
	BufferSize int
}

// withDefaults returns the spec with defaults applied.
func (s Spec) withDefaults() Spec {
	if s.Components < 4 {
		s.Components = 4
	}
	if s.Nodes < 1 {
		s.Nodes = 1
	}
	if s.BufferSize <= 0 {
		s.BufferSize = 256
	}
	if s.Shape == Sporadic {
		s.Contracted = true
	}
	if s.Contracted {
		if s.ContractRate <= 0 {
			s.ContractRate = 2000
		}
		if s.ContractBurst <= 0 {
			s.ContractBurst = 64
		}
		if s.ContractBurst > s.BufferSize {
			s.ContractBurst = s.BufferSize
		}
		if s.ContractBudget <= 0 {
			s.ContractBudget = 50 * time.Millisecond
		}
	}
	return s
}

// Scenario is a synthesized, runnable architecture plus the driver's
// map of it.
type Scenario struct {
	Spec Spec
	Arch *model.Architecture
	// Deploy is the deployment descriptor, nil when Spec.Nodes == 1.
	Deploy *model.Deployment
	// Entries are the components the driver injects into (server
	// interface "in").
	Entries []string
	// Sink is the component whose content completes every stamp.
	Sink string
	// Classes maps component name -> content class, for registries.
	Classes map[string]string
}

// edge is one asynchronous hop of the synthesized topology.
type edge struct {
	from, fromItf string
	to            string
	contracted    bool
}

// Synthesize builds a valid architecture for the spec: every
// functional component is a sporadic active (asynchronous bindings
// terminate legally per RT10, and the wall-clock pacer releases them
// on arrival), components are grouped into one RealtimeThread
// domain + one immortal MemoryArea per deployment node (RT01, RT04,
// RT05, RT14), all bindings are asynchronous with bounded buffers
// (RT15 for any partition) and carry the deep-copy pattern exactly
// when they cross memory areas (RT07).
func Synthesize(spec Spec) (*Scenario, error) {
	spec = spec.withDefaults()
	rng := rand.New(rand.NewSource(spec.Seed))

	name := fmt.Sprintf("load-%s-%d-n%d-s%d", spec.Shape, spec.Components, spec.Nodes, spec.Seed)
	a := model.NewArchitecture(name)

	m := spec.Components - 1 // functional components besides the sink
	comp := func(i int) string { return fmt.Sprintf("c%04d", i) }
	const sink = "sink"

	var (
		edges   []edge
		entries []string
		classes = make(map[string]string, spec.Components)
	)
	for i := 0; i < m; i++ {
		classes[comp(i)] = "LoadRelayImpl"
	}
	classes[sink] = "LoadSinkImpl"

	switch spec.Shape {
	case Pipeline, StateMachine:
		if spec.Shape == StateMachine {
			for i := 0; i < m; i++ {
				classes[comp(i)] = "LoadStateMachineImpl"
			}
		}
		entries = []string{comp(0)}
		for i := 0; i < m-1; i++ {
			edges = append(edges, edge{from: comp(i), fromItf: "out", to: comp(i + 1), contracted: spec.Contracted && i == 0})
		}
		edges = append(edges, edge{from: comp(m - 1), fromItf: "out", to: sink, contracted: spec.Contracted && m == 1})

	case Fanin:
		arity := rng.Intn(3) + 2 // 2..4-ary aggregation tree
		for i := 1; i < m; i++ {
			parent := (i - 1) / arity
			edges = append(edges, edge{from: comp(i), fromItf: "out", to: comp(parent)})
		}
		edges = append(edges, edge{from: comp(0), fromItf: "out", to: sink, contracted: spec.Contracted && m == 1})
		for i := 0; i < m; i++ {
			if i*arity+1 >= m { // leaf: no children
				entries = append(entries, comp(i))
			}
		}
		if spec.Contracted {
			leaf := map[string]bool{}
			for _, e := range entries {
				leaf[e] = true
			}
			for j := range edges {
				if leaf[edges[j].from] {
					edges[j].contracted = true
				}
			}
		}

	case Reactive:
		layers := rng.Intn(3) + 2 // 2..4 propagation layers
		if layers > m {
			layers = m
		}
		width := (m + layers - 1) / layers
		// ceil division can cover m in fewer rows than requested (e.g.
		// m=4, layers=3 gives width=2, which fills m in 2 rows), leaving
		// empty tail layers whose sizeOf would be <= 0; the indexing
		// below must use the effective layer count.
		layers = (m + width - 1) / width
		layerOf := func(i int) int { return i / width }
		sizeOf := func(l int) int {
			n := m - l*width
			if n > width {
				n = width
			}
			return n
		}
		for i := 0; i < m; i++ {
			l := layerOf(i)
			if l == layers-1 {
				edges = append(edges, edge{from: comp(i), fromItf: "out", to: sink})
				continue
			}
			classes[comp(i)] = "LoadReactiveImpl"
			next, pos := sizeOf(l+1), i-l*width
			t0 := (l+1)*width + pos%next
			edges = append(edges, edge{from: comp(i), fromItf: "out0", to: comp(t0)})
			if next > 1 {
				t1 := (l+1)*width + (pos+1)%next
				edges = append(edges, edge{from: comp(i), fromItf: "out1", to: comp(t1)})
			}
		}
		for i := 0; i < sizeOf(0); i++ {
			entries = append(entries, comp(i))
		}
		if spec.Contracted {
			entry := map[string]bool{}
			for _, e := range entries {
				entry[e] = true
			}
			for j := range edges {
				if entry[edges[j].from] && edges[j].fromItf == "out0" {
					edges[j].contracted = true
				}
			}
		}

	case Sporadic:
		gateways := (m + 1) / 2
		workers := m - gateways
		if workers < 1 {
			return nil, fmt.Errorf("load: sporadic shape needs at least 4 components, got %d", spec.Components)
		}
		for g := 0; g < gateways; g++ {
			entries = append(entries, comp(g))
			w := gateways + g%workers
			edges = append(edges, edge{from: comp(g), fromItf: "out", to: comp(w), contracted: true})
		}
		for w := gateways; w < m; w++ {
			edges = append(edges, edge{from: comp(w), fromItf: "out", to: sink})
		}

	default:
		return nil, fmt.Errorf("load: unknown scenario shape %q", spec.Shape)
	}

	// Components: sporadic actives throughout. The sporadic shape's
	// workers declare a minimum interarrival time — the enforcement
	// the storm stresses; the seeded jitter varies it per scenario.
	mit := time.Duration(0)
	if spec.Shape == Sporadic {
		mit = time.Duration(rng.Intn(400)+100) * time.Microsecond
	}
	var order []string
	for i := 0; i < m; i++ {
		order = append(order, comp(i))
	}
	order = append(order, sink)
	for i, cn := range order {
		act := model.Activation{Kind: model.SporadicActivation}
		if spec.Shape == Sporadic && cn != sink && i >= (m+1)/2 {
			act.Period = mit
		}
		c, err := a.NewActive(cn, act)
		if err != nil {
			return nil, err
		}
		if err := c.SetContent(classes[cn]); err != nil {
			return nil, err
		}
		if err := c.AddInterface(model.Interface{Name: "in", Role: model.ServerRole, Signature: "IMsg"}); err != nil {
			return nil, err
		}
	}
	// Client interfaces, one per outgoing edge.
	for _, e := range edges {
		c, _ := a.Component(e.from)
		if err := c.AddInterface(model.Interface{Name: e.fromItf, Role: model.ClientRole, Signature: "IMsg"}); err != nil {
			return nil, err
		}
	}

	// Per-node groups: contiguous blocks of the creation order, each
	// under its own RealtimeThread domain inside its own immortal
	// area. group(i) is monotone in i, so pipelines cross nodes at
	// block boundaries only.
	group := func(i int) int { return i * spec.Nodes / spec.Components }
	groupOf := make(map[string]int, len(order))
	for i, cn := range order {
		groupOf[cn] = group(i)
	}
	for g := 0; g < spec.Nodes; g++ {
		imm, err := a.NewMemoryArea(fmt.Sprintf("imm%d", g), model.AreaDesc{Kind: model.ImmortalMemory})
		if err != nil {
			return nil, err
		}
		td, err := a.NewThreadDomain(fmt.Sprintf("td%d", g),
			model.DomainDesc{Kind: model.RealtimeThread, Priority: 20})
		if err != nil {
			return nil, err
		}
		if err := a.AddChild(imm, td); err != nil {
			return nil, err
		}
		for i, cn := range order {
			if group(i) != g {
				continue
			}
			c, _ := a.Component(cn)
			if err := a.AddChild(td, c); err != nil {
				return nil, err
			}
		}
	}

	// Bindings: all asynchronous with bounded buffers; deep-copy
	// exactly on area crossings.
	for _, e := range edges {
		b := model.Binding{
			Client:     model.Endpoint{Component: e.from, Interface: e.fromItf},
			Server:     model.Endpoint{Component: e.to, Interface: "in"},
			Protocol:   model.Asynchronous,
			BufferSize: spec.BufferSize,
		}
		if groupOf[e.from] != groupOf[e.to] {
			b.Pattern = "deep-copy"
		}
		if e.contracted && spec.Contracted {
			b.Contract = &model.Contract{
				LatencyBudget: spec.ContractBudget,
				MaxRate:       spec.ContractRate,
				Burst:         spec.ContractBurst,
				Policy:        model.Shed,
			}
		}
		if _, err := a.Bind(b); err != nil {
			return nil, err
		}
	}

	scn := &Scenario{Spec: spec, Arch: a, Entries: entries, Sink: sink, Classes: classes}
	if spec.Nodes > 1 {
		d := model.NewDeployment(a.Name())
		assigned := make([][]string, spec.Nodes)
		for i, cn := range order {
			g := group(i)
			assigned[g] = append(assigned[g], cn)
		}
		for g := 0; g < spec.Nodes; g++ {
			if err := d.AddNode(&model.DeployNode{
				Name:     fmt.Sprintf("n%d", g),
				Addr:     "127.0.0.1:0",
				Assigned: assigned[g],
			}); err != nil {
				return nil, err
			}
		}
		scn.Deploy = d
	}
	return scn, nil
}
