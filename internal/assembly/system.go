package assembly

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"soleil/internal/comm"
	"soleil/internal/membrane"
	"soleil/internal/model"
	"soleil/internal/obs"
	"soleil/internal/patterns"
	"soleil/internal/qos"
	"soleil/internal/rtsj/memory"
	"soleil/internal/rtsj/sched"
	"soleil/internal/rtsj/thread"
	"soleil/internal/validate"
)

// Config parameterizes deployment.
type Config struct {
	Mode     Mode
	Registry *Registry
	// BufferSlotSize is the per-message byte charge of asynchronous
	// buffers (default 256).
	BufferSlotSize int64
	// AllowStubs deploys StubContent for primitives without a
	// registered content class instead of failing.
	AllowStubs bool
	// Interceptors, when set, contributes extra membrane interceptors
	// per component, deployed outermost on the server-side chain —
	// the extension hook fault tolerance uses to install panic guards
	// and chaos injection. SOLEIL mode only (the merged modes have no
	// membrane to deploy them on).
	Interceptors func(component string) []membrane.Interceptor
	// Resilient turns thread-body errors and panics into recorded
	// faults instead of thread termination: a failing component
	// degrades (its errors appear in Errors()) while the rest of the
	// system keeps running — the execution mode supervised systems
	// run under.
	Resilient bool
	// Metrics, when set, instruments the deployment: in SOLEIL mode a
	// MetricsInterceptor is deployed outermost on every membrane and
	// the membrane's lifecycle signals are attached to the registry;
	// in every mode asynchronous buffers are registered as queue
	// gauges and deadline misses are counted per component. Sharing
	// one registry across several deployed systems aggregates them
	// into one exposition surface.
	Metrics *obs.Registry
	// Tracer, when set (with Metrics), receives a causal span per
	// dispatch and per activation. Sharing one tracer across systems
	// joined by distributed bindings yields a single cross-system
	// trace.
	Tracer *obs.Tracer
}

// System is a deployed, runnable system.
type System struct {
	arch *model.Architecture
	mode Mode

	mem *memory.Runtime
	sch *sched.Scheduler
	trt *thread.Runtime

	areas   map[string]*memory.Area // MemoryArea component -> runtime region
	nodes   map[string]Node
	order   []string // functional primitives in creation order
	buffers []*comm.RTBuffer
	threads map[string]*thread.Thread
	holders map[string]*taskHolder

	domains    []*ThreadDomainComponent
	areaComs   []*MemoryAreaComponent
	composites []*CompositeComponent

	started   bool
	ran       bool
	resilient bool
	pacer     atomic.Pointer[Pacer] // the running pacer, if any; see Pacer.Run

	metrics *obs.Registry
	tracer  *obs.Tracer

	errMu       sync.Mutex
	errs        []error
	errsDropped int64
}

// Deploy validates the architecture and builds its execution
// infrastructure in the configured mode. It mirrors the paper's
// infrastructure generation process (Fig. 5): contents come from the
// registry (the developer's step 1); everything else is framework
// glue.
func Deploy(arch *model.Architecture, cfg Config) (*System, error) {
	if arch == nil {
		return nil, fmt.Errorf("assembly: nil architecture")
	}
	switch cfg.Mode {
	case Soleil, MergeAll, UltraMerge:
	default:
		return nil, fmt.Errorf("assembly: unknown mode %v", cfg.Mode)
	}
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry()
	}
	if cfg.BufferSlotSize == 0 {
		cfg.BufferSlotSize = 256
	}
	report := validate.Validate(arch)
	if !report.OK() {
		errs := report.Errors()
		return nil, fmt.Errorf("assembly: architecture violates RTSJ (%d errors; first: %s)",
			len(errs), errs[0])
	}

	s := &System{
		arch:      arch,
		mode:      cfg.Mode,
		sch:       sched.New(),
		areas:     make(map[string]*memory.Area),
		nodes:     make(map[string]Node),
		threads:   make(map[string]*thread.Thread),
		holders:   make(map[string]*taskHolder),
		resilient: cfg.Resilient,
		metrics:   cfg.Metrics,
		tracer:    cfg.Tracer,
	}
	if err := s.buildMemory(); err != nil {
		return nil, err
	}
	s.trt = thread.NewRuntime(s.sch, s.mem)
	if err := s.buildNodes(cfg); err != nil {
		return nil, err
	}
	if err := s.buildBindings(cfg); err != nil {
		return nil, err
	}
	if err := s.buildThreads(); err != nil {
		return nil, err
	}
	if s.mode == Soleil {
		s.reifyNonFunctional()
	}
	return s, nil
}

// --- accessors --------------------------------------------------------------------

// Mode returns the assembly mode.
func (s *System) Mode() Mode { return s.mode }

// Architecture returns the deployed architecture.
func (s *System) Architecture() *model.Architecture { return s.arch }

// MemoryRuntime returns the system's memory runtime.
func (s *System) MemoryRuntime() *memory.Runtime { return s.mem }

// Scheduler returns the system's scheduler.
func (s *System) Scheduler() *sched.Scheduler { return s.sch }

// Node returns the executable node of a functional primitive.
func (s *System) Node(name string) (Node, bool) {
	n, ok := s.nodes[name]
	return n, ok
}

// Nodes returns the functional primitives' nodes in creation order.
func (s *System) Nodes() []Node {
	out := make([]Node, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.nodes[n])
	}
	return out
}

// Thread returns the thread of an active component.
func (s *System) Thread(component string) (*thread.Thread, bool) {
	t, ok := s.threads[component]
	return t, ok
}

// Buffers returns the asynchronous binding buffers.
func (s *System) Buffers() []*comm.RTBuffer {
	out := make([]*comm.RTBuffer, len(s.buffers))
	copy(out, s.buffers)
	return out
}

// Area returns the runtime memory region of a MemoryArea component.
func (s *System) Area(name string) (*memory.Area, bool) {
	a, ok := s.areas[name]
	return a, ok
}

// Metrics returns the metrics registry the system was deployed with,
// or nil for an uninstrumented deployment.
func (s *System) Metrics() *obs.Registry { return s.metrics }

// Tracer returns the tracer the system was deployed with, if any.
func (s *System) Tracer() *obs.Tracer { return s.tracer }

// FlushSchedTrace bridges the simulated scheduler's execution trace
// (recorded in virtual time; enable it with
// Scheduler().EnableTrace before the run) into the system's tracer as
// instant events, mapping virtual time onto a wall-clock timeline
// anchored at epoch — the same timeline invocation spans use when
// epoch is taken just before RunFor. It returns the number of events
// bridged. Scheduling decisions and invocation spans then interleave
// in one exported trace.
func (s *System) FlushSchedTrace(epoch time.Time) int {
	if s.tracer == nil {
		return 0
	}
	events := s.sch.Trace()
	for _, e := range events {
		s.tracer.Record(obs.Span{
			System:    s.arch.Name(),
			Component: e.Task,
			Interface: "sched",
			Op:        e.Kind.String(),
			Start:     epoch.Add(time.Duration(e.Time)),
			Err:       e.Kind == sched.EventMiss || e.Kind == sched.EventOverrun,
			Kind:      obs.SpanInstant,
		})
	}
	return len(events)
}

// Domains returns the reified ThreadDomain components (SOLEIL mode
// only; empty otherwise — the merged modes do not preserve them).
func (s *System) Domains() []*ThreadDomainComponent {
	out := make([]*ThreadDomainComponent, len(s.domains))
	copy(out, s.domains)
	return out
}

// AreaComponents returns the reified MemoryArea components (SOLEIL
// mode only).
func (s *System) AreaComponents() []*MemoryAreaComponent {
	out := make([]*MemoryAreaComponent, len(s.areaComs))
	copy(out, s.areaComs)
	return out
}

// Composites returns the reified functional composites (SOLEIL mode
// only).
func (s *System) Composites() []*CompositeComponent {
	out := make([]*CompositeComponent, len(s.composites))
	copy(out, s.composites)
	return out
}

// NewEnv creates an execution environment for driving the system's
// dataplane directly (without the simulated scheduler) — the
// benchmark harness and interactive tools use this. The environment
// is rooted in immortal memory; noHeap mirrors an NHRT caller. The
// returned close function releases the environment.
func (s *System) NewEnv(noHeap bool) (*thread.Env, func(), error) {
	ctx, err := memory.NewContext(s.mem.Immortal(), noHeap)
	if err != nil {
		return nil, nil, err
	}
	return thread.NewEnv(nil, ctx), ctx.Close, nil
}

// maxRecordedErrs bounds the error record so a resilient system
// degrading under sustained faults cannot grow it without limit.
const maxRecordedErrs = 1024

func (s *System) recordErr(err error) {
	if err == nil {
		return
	}
	s.errMu.Lock()
	defer s.errMu.Unlock()
	if len(s.errs) >= maxRecordedErrs {
		s.errsDropped++
		return
	}
	s.errs = append(s.errs, err)
}

// Errors returns the errors recorded by thread bodies during the run.
func (s *System) Errors() []error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	out := make([]error, len(s.errs))
	copy(out, s.errs)
	return out
}

// ErrorsDropped returns how many errors were discarded after the
// record filled up.
func (s *System) ErrorsDropped() int64 {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	return s.errsDropped
}

// --- build phases ----------------------------------------------------------------

func (s *System) buildMemory() error {
	var immortalBudget int64
	for _, ma := range s.arch.ComponentsOfKind(model.MemoryArea) {
		if ma.Area().Kind == model.ImmortalMemory {
			immortalBudget += ma.Area().Size
		}
	}
	s.mem = memory.NewRuntime(memory.WithImmortalSize(immortalBudget))
	for _, ma := range s.arch.ComponentsOfKind(model.MemoryArea) {
		desc := ma.Area()
		switch desc.Kind {
		case model.HeapMemory:
			s.areas[ma.Name()] = s.mem.Heap()
		case model.ImmortalMemory:
			s.areas[ma.Name()] = s.mem.Immortal()
		case model.ScopedMemory:
			a, err := s.mem.NewScoped(desc.ScopeName, desc.Size)
			if err != nil {
				return fmt.Errorf("assembly: %w", err)
			}
			s.areas[ma.Name()] = a
		}
	}
	return nil
}

// runtimeAreaOf resolves a functional component's runtime region.
func (s *System) runtimeAreaOf(c *model.Component) (*memory.Area, error) {
	ma, err := s.arch.EffectiveMemoryArea(c)
	if err != nil {
		return nil, err
	}
	a, ok := s.areas[ma.Name()]
	if !ok {
		return nil, fmt.Errorf("assembly: area %q has no runtime region", ma.Name())
	}
	return a, nil
}

// bufferAreaOf picks the region hosting an async binding's buffer:
// the client's area, walking out of scoped areas (whose contents are
// reclaimed) to the nearest non-scoped enclosing area, falling back
// to immortal. If either endpoint runs on a no-heap real-time thread,
// the buffer is forced into immortal memory — an NHRT may neither
// write nor read heap-hosted message slots.
func (s *System) bufferAreaOf(cli, srv *model.Component) (*memory.Area, error) {
	for _, end := range []*model.Component{cli, srv} {
		if td, err := s.arch.EffectiveThreadDomain(end); err == nil &&
			td.Domain().Kind == model.NoHeapRealtimeThread {
			return s.mem.Immortal(), nil
		}
	}
	ma, err := s.arch.EffectiveMemoryArea(cli)
	if err != nil {
		return nil, err
	}
	for ma != nil && ma.Area().Kind == model.ScopedMemory {
		supers := ma.SupersOfKind(model.MemoryArea)
		if len(supers) == 0 {
			return s.mem.Immortal(), nil
		}
		ma = supers[0]
	}
	if ma == nil {
		return s.mem.Immortal(), nil
	}
	return s.areas[ma.Name()], nil
}

func (s *System) buildNodes(cfg Config) error {
	for _, c := range s.arch.Components() {
		if c.Kind() != model.Active && c.Kind() != model.Passive {
			continue
		}
		var content membrane.Content
		if c.Content() == "" {
			if !cfg.AllowStubs {
				return fmt.Errorf("assembly: component %q has no content class", c.Name())
			}
			content = &StubContent{}
		} else {
			var err error
			content, err = cfg.Registry.New(c.Content())
			if err != nil {
				if !cfg.AllowStubs {
					return err
				}
				content = &StubContent{}
			}
		}
		active := c.Kind() == model.Active
		var node Node
		switch s.mode {
		case Soleil:
			var ints []membrane.Interceptor
			var cm *obs.ComponentMetrics
			if cfg.Metrics != nil {
				// Metrics outermost: it observes the component as its
				// clients do, and panics converted to errors by inner
				// guards surface as errors rather than raw panics.
				cm = cfg.Metrics.Component(c.Name())
				mi := membrane.NewMetricsInterceptor(s.arch.Name(), cm, cfg.Tracer)
				// Arm over-budget flight-recorder events from the
				// component's declared budget: cost when present,
				// otherwise the deadline.
				if act := c.Activation(); act != nil {
					if act.Cost > 0 {
						mi.SetBudget(act.Cost)
					} else if act.Deadline > 0 {
						mi.SetBudget(act.Deadline)
					}
				}
				ints = append(ints, mi)
			}
			if cfg.Interceptors != nil {
				ints = append(ints, cfg.Interceptors(c.Name())...)
			}
			if active {
				ints = append(ints, &membrane.ActiveInterceptor{})
			}
			m, err := membrane.New(c.Name(), content, ints...)
			if err != nil {
				return err
			}
			if cm != nil {
				m.AttachMetrics(cm)
			}
			node = &soleilNode{m: m, active: active, system: s.arch.Name(), cm: cm, tracer: cfg.Tracer}
		case MergeAll:
			node = newMergedNode(c.Name(), content, active, true)
		case UltraMerge:
			node = newMergedNode(c.Name(), content, active, false)
		}
		s.nodes[c.Name()] = node
		s.order = append(s.order, c.Name())
		s.holders[c.Name()] = &taskHolder{}
	}
	return nil
}

// bindPort installs a port on the client side of a binding.
func (s *System) bindPort(clientName, itf string, p membrane.Port) error {
	switch n := s.nodes[clientName].(type) {
	case *soleilNode:
		return n.m.Binding().Bind(itf, p)
	case *mergedNode:
		return n.binds.Bind(itf, p)
	default:
		return fmt.Errorf("assembly: unknown node type %T", n)
	}
}

func (s *System) buildBindings(cfg Config) error {
	for _, b := range s.arch.Bindings() {
		cli, _ := s.arch.Component(b.Client.Component)
		srv, _ := s.arch.Component(b.Server.Component)
		clientNode := s.nodes[b.Client.Component]
		serverNode := s.nodes[b.Server.Component]
		if clientNode == nil || serverNode == nil {
			return fmt.Errorf("assembly: binding %s targets a non-primitive component", b)
		}
		pattern := patterns.Kind(b.Pattern)
		srvArea, err := s.runtimeAreaOf(srv)
		if err != nil {
			return err
		}
		gate := s.bindingGate(cfg, b)

		switch b.Protocol {
		case model.Asynchronous:
			bufArea, err := s.bufferAreaOf(cli, srv)
			if err != nil {
				return err
			}
			buf, err := comm.NewRTBuffer(b.String(), b.BufferSize, bufArea, cfg.BufferSlotSize)
			if err != nil {
				return err
			}
			s.buffers = append(s.buffers, buf)
			if cfg.Metrics != nil {
				cfg.Metrics.RegisterQueue(buf.Name(), func() obs.QueueStats {
					st := buf.Stats()
					return obs.QueueStats{
						Enqueued: st.Enqueued, Dequeued: st.Dequeued, Dropped: st.Dropped,
						Depth: st.Depth, HighWatermark: st.MaxDepth, Capacity: buf.Cap(),
					}
				})
			}
			stub, err := membrane.NewAsyncStub(buf, b.Server.Interface)
			if err != nil {
				return err
			}
			switch n := serverNode.(type) {
			case *soleilNode:
				skel, err := membrane.NewAsyncSkeleton(buf, n.m)
				if err != nil {
					return err
				}
				n.skeletons = append(n.skeletons, skel)
			case *mergedNode:
				n.inbound = append(n.inbound, buf)
			}
			// The gate sits before the buffer: an over-contract message
			// is shed (or the sender degraded/blocked) without ever
			// consuming a slot.
			port := membrane.NewGatedPort(gate, &notifyPort{inner: stub, target: s.holders[b.Server.Component]})
			if err := s.bindPort(b.Client.Component, b.Client.Interface, port); err != nil {
				return err
			}

		case model.Synchronous:
			port, err := s.syncPortTo(serverNode, b.Server.Interface, pattern, srvArea, gate)
			if err != nil {
				return fmt.Errorf("assembly: binding %s: %w", b, err)
			}
			if err := s.bindPort(b.Client.Component, b.Client.Interface, port); err != nil {
				return err
			}
		}
	}
	return nil
}

// bindingGate builds the admission gate of one contracted binding and
// registers it with the metrics registry; uncontracted bindings get a
// nil gate (which admits everything, for free). When metrics are on
// and the contract has a latency budget, the gate's SLO breach probe
// reads the server's p99 against 80% of the budget — the signal that
// flips a Degrade-policy binding into shedding.
func (s *System) bindingGate(cfg Config, b *model.Binding) *qos.Gate {
	gate := qos.NewGate(b.String(), b.Contract)
	if gate == nil {
		return nil
	}
	if cfg.Metrics != nil {
		if budget := b.Contract.LatencyBudget; budget > 0 {
			cm := cfg.Metrics.Component(b.Server.Component)
			itf := b.Server.Interface
			threshold := budget * 4 / 5
			gate.SetBreachProbe(func() bool {
				return cm.MaxQuantileOn(itf, 0.99) > threshold
			})
		}
		gate.SetRecorder(cfg.Metrics.Recorder())
		cfg.Metrics.RegisterGate(b.String(), membrane.GateStats(gate))
	}
	return gate
}

// syncPortTo builds the mode-appropriate synchronous client port to a
// server node's interface, with the binding's memory pattern deployed
// (as an interceptor in SOLEIL mode, inlined in the merged modes) and
// the binding's admission gate in front (as a pre-chain interceptor
// next to the membrane in SOLEIL mode, as a port wrapper in the
// merged modes).
func (s *System) syncPortTo(serverNode Node, itf string, pattern patterns.Kind, srvArea *memory.Area, gate *qos.Gate) (membrane.Port, error) {
	switch n := serverNode.(type) {
	case *soleilNode:
		var pre []membrane.Interceptor
		if gate != nil {
			pre = append(pre, membrane.NewAdmissionInterceptor(gate))
		}
		if pattern != patterns.None {
			mi, err := membrane.NewMemoryInterceptor(pattern, scopeFor(pattern, srvArea))
			if err != nil {
				return nil, err
			}
			pre = append(pre, mi)
		}
		return membrane.NewSyncPort(n.m, itf, pre...)
	case *mergedNode:
		return membrane.NewGatedPort(gate, &directSyncPort{
			target:  serverNode,
			itf:     itf,
			pattern: pattern,
			scope:   scopeFor(pattern, srvArea),
		}), nil
	default:
		return nil, fmt.Errorf("assembly: unknown node type %T", serverNode)
	}
}

// scopeFor returns the server scope for scope-entering patterns, nil
// otherwise.
func scopeFor(pattern patterns.Kind, srvArea *memory.Area) *memory.Area {
	if pattern == patterns.ScopeEnter || pattern == patterns.Portal {
		return srvArea
	}
	return nil
}

func threadKindOf(k model.ThreadKind) thread.Kind {
	switch k {
	case model.RegularThread:
		return thread.Regular
	case model.RealtimeThread:
		return thread.Realtime
	case model.NoHeapRealtimeThread:
		return thread.NoHeap
	default:
		return 0
	}
}

func releaseOf(act *model.Activation) sched.Release {
	switch act.Kind {
	case model.PeriodicActivation:
		return sched.Release{
			Kind: sched.Periodic, Period: act.Period,
			Deadline: act.Deadline, Cost: act.Cost,
		}
	case model.SporadicActivation:
		return sched.Release{
			Kind: sched.Sporadic, MinInterarrival: act.Period,
			Deadline: act.Deadline, Cost: act.Cost,
		}
	default:
		return sched.Release{Kind: sched.Aperiodic, Deadline: act.Deadline, Cost: act.Cost}
	}
}

func (s *System) buildThreads() error {
	for _, c := range s.arch.ComponentsOfKind(model.Active) {
		td, err := s.arch.EffectiveThreadDomain(c)
		if err != nil {
			return err
		}
		area, err := s.runtimeAreaOf(c)
		if err != nil {
			return err
		}
		node := s.nodes[c.Name()]
		act := c.Activation()
		body := s.threadBody(node, act.Kind)
		var onMiss func(sched.MissInfo)
		if s.metrics != nil {
			cm := s.metrics.Component(c.Name())
			onMiss = func(sched.MissInfo) {
				cm.Misses.Inc()
				// A burst of these auto-triggers a recorder dump.
				cm.Event(obs.EvDeadlineMiss, cm.Misses.Load(), obs.SpanContext{})
			}
		}
		th, err := s.trt.Spawn(thread.Config{
			Name:        c.Name(),
			Kind:        threadKindOf(td.Domain().Kind),
			Priority:    sched.Priority(td.Domain().Priority),
			Release:     releaseOf(act),
			InitialArea: area,
			Run:         body,
			OnMiss:      onMiss,
		})
		if err != nil {
			return fmt.Errorf("assembly: spawning %q: %w", c.Name(), err)
		}
		s.threads[c.Name()] = th
		// Only a sporadic server is released by arrivals (RT10).
		if act.Kind == model.SporadicActivation {
			s.holders[c.Name()].task = th.Task()
		}
	}
	return nil
}

// step runs one thread-body operation. In resilient mode a panic is
// converted into an error, and any error is recorded but does not
// terminate the thread — the component degrades while the rest of the
// system keeps running. The return value reports whether the loop
// must stop.
func (s *System) step(name string, fn func() error) (stop bool) {
	var err error
	if s.resilient {
		func() {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			err = fn()
		}()
	} else {
		err = fn()
	}
	if err != nil {
		s.recordErr(fmt.Errorf("%s: %w", name, err))
		return !s.resilient
	}
	return false
}

// threadBody produces the generated activation loop of an active
// component: periodic components run their own logic every period,
// sporadic components drain their inbound messages on every release,
// and aperiodic components run once.
func (s *System) threadBody(node Node, kind model.ActivationKind) func(*thread.Env) {
	switch kind {
	case model.PeriodicActivation:
		return func(env *thread.Env) {
			for {
				// Periodic components process any messages pending
				// from asynchronous bindings at each period boundary
				// (arrivals do not release them — the validator's
				// RT10 warning), then run their own logic.
				if s.step(node.Name(), func() error { _, err := node.Deliver(env); return err }) {
					return
				}
				if s.step(node.Name(), func() error { return node.Activate(env) }) {
					return
				}
				if !env.Sched().WaitForNextPeriod() {
					return
				}
			}
		}
	case model.SporadicActivation:
		return func(env *thread.Env) {
			for {
				if s.step(node.Name(), func() error { _, err := node.Deliver(env); return err }) {
					return
				}
				if !env.Sched().WaitForRelease() {
					return
				}
			}
		}
	default:
		return func(env *thread.Env) {
			s.step(node.Name(), func() error { return node.Activate(env) })
		}
	}
}

func (s *System) reifyNonFunctional() {
	for _, comp := range s.arch.ComponentsOfKind(model.Composite) {
		com := &CompositeComponent{name: comp.Name()}
		for _, sub := range comp.Subs() {
			com.members = append(com.members, sub.Name())
			if n, ok := s.nodes[sub.Name()].(*soleilNode); ok {
				n.m.AddController(com)
			}
		}
		s.composites = append(s.composites, com)
	}
	for _, td := range s.arch.ComponentsOfKind(model.ThreadDomain) {
		com := &ThreadDomainComponent{name: td.Name(), desc: *td.Domain()}
		for _, sub := range td.Subs() {
			com.members = append(com.members, sub.Name())
			if th, ok := s.threads[sub.Name()]; ok {
				com.threads = append(com.threads, th)
			}
			if n, ok := s.nodes[sub.Name()].(*soleilNode); ok {
				n.m.AddController(com)
			}
		}
		s.domains = append(s.domains, com)
	}
	for _, ma := range s.arch.ComponentsOfKind(model.MemoryArea) {
		com := &MemoryAreaComponent{name: ma.Name(), desc: *ma.Area(), area: s.areas[ma.Name()]}
		for _, sub := range ma.Subs() {
			com.members = append(com.members, sub.Name())
		}
		// The area controller is superimposed on every functional
		// primitive that effectively resolves to this area, whether it
		// is a direct child or deployed through a ThreadDomain.
		for _, name := range s.order {
			c, _ := s.arch.Component(name)
			if eff, err := s.arch.EffectiveMemoryArea(c); err == nil && eff == ma {
				if n, ok := s.nodes[name].(*soleilNode); ok {
					n.m.AddController(com)
				}
			}
		}
		s.areaComs = append(s.areaComs, com)
	}
}

// --- lifecycle -------------------------------------------------------------------

// Start runs the bootstrapping procedure: component contents are
// initialized (passive services before active producers, so every
// server is ready before the first release).
func (s *System) Start() error {
	if s.started {
		return nil
	}
	starters := make([]string, 0, len(s.order))
	for _, n := range s.order {
		if c, _ := s.arch.Component(n); c.Kind() == model.Passive {
			starters = append(starters, n)
		}
	}
	for _, n := range s.order {
		if c, _ := s.arch.Component(n); c.Kind() == model.Active {
			starters = append(starters, n)
		}
	}
	for _, name := range starters {
		switch n := s.nodes[name].(type) {
		case *soleilNode:
			if err := n.m.Lifecycle().Start(); err != nil {
				return err
			}
		case *mergedNode:
			if err := n.content.Init(n.svc); err != nil {
				return fmt.Errorf("assembly: starting %q: %w", name, err)
			}
		}
	}
	s.started = true
	return nil
}

// RunFor bootstraps the system (if needed) and executes it on the
// simulated scheduler until the virtual-time horizon. Thread errors
// recorded during the run are returned after the scheduler stops.
func (s *System) RunFor(d time.Duration) error {
	if s.ran {
		return fmt.Errorf("assembly: system already ran")
	}
	if err := s.Start(); err != nil {
		return err
	}
	s.ran = true
	if err := s.sch.Run(d); err != nil {
		return err
	}
	for _, th := range s.threads {
		if err := th.Err(); err != nil {
			s.recordErr(err)
		}
	}
	// A resilient system absorbs component failures as degradation:
	// they stay inspectable through Errors() but do not fail the run.
	if errs := s.Errors(); len(errs) > 0 && !s.resilient {
		return fmt.Errorf("assembly: %d thread errors; first: %w", len(errs), errs[0])
	}
	return nil
}
