// Package soleil is a component framework for Java-style real-time
// embedded systems, reproducing Plsek, Loiret, Merle & Seinturier,
// "A Component Framework for Java-based Real-Time Embedded Systems"
// (Middleware 2008) in Go.
//
// The framework lets you describe a real-time system as a hierarchical
// component architecture with sharing, where the RTSJ concerns —
// which thread flavour runs a component (ThreadDomain: regular,
// real-time, or no-heap real-time) and which memory area it lives in
// (MemoryArea: heap, immortal, or scoped) — are first-class
// architectural entities, separate from the functional (business)
// architecture. The framework then:
//
//   - verifies the composition against the RTSJ rules (single parent
//     rule, NHRT×heap prohibition, cross-scope binding patterns, ...)
//     with immediate feedback during a three-view design flow;
//   - deploys the architecture onto a simulated RTSJ runtime
//     (priority-preemptive scheduling, scoped/immortal memory with
//     dynamic assignment-rule checking) in one of three
//     infrastructure modes — SOLEIL (fully reified membranes),
//     MERGE-ALL (membranes merged into their components), and
//     ULTRA-MERGE (one static unit);
//   - or generates the equivalent infrastructure as Go source code;
//   - and supports runtime adaptation (introspection, rebinding,
//     lifecycle) with RTSJ-safety checks.
//
// # Quick start
//
//	fw := soleil.New()
//	arch, err := fw.LoadADL("factory.xml")          // Fig. 4 dialect
//	report := fw.Validate(arch)                     // RTSJ conformance
//	_ = fw.Register("ConsoleImpl", newConsole)      // content classes
//	sys, err := fw.Deploy(arch, soleil.Soleil)      // or MergeAll, UltraMerge
//	err = sys.RunFor(100 * time.Millisecond)        // simulated time
//
// See examples/ for complete programs, DESIGN.md for the system
// inventory, and EXPERIMENTS.md for the reproduction of the paper's
// evaluation.
package soleil

import (
	"net"
	"time"

	"soleil/internal/assembly"
	"soleil/internal/cluster"
	"soleil/internal/core"
	"soleil/internal/dist"
	"soleil/internal/fault"
	"soleil/internal/membrane"
	"soleil/internal/model"
	"soleil/internal/obs"
	"soleil/internal/qos"
	"soleil/internal/reconfig"
	"soleil/internal/rtsj/thread"
	"soleil/internal/validate"
	"soleil/internal/views"
)

// Framework is the main entry point; create one with New.
type Framework = core.Framework

// New creates a framework instance.
func New() *Framework { return core.New() }

// Architecture modelling (Fig. 2 metamodel).
type (
	// Architecture is a complete RT system architecture.
	Architecture = model.Architecture
	// Component is a node of the architecture.
	Component = model.Component
	// Interface is a functional access point of a component.
	Interface = model.Interface
	// Binding connects a client interface to a server interface.
	Binding = model.Binding
	// Endpoint identifies one side of a binding.
	Endpoint = model.Endpoint
	// Activation describes an active component's release parameters.
	Activation = model.Activation
	// DomainDesc carries a ThreadDomain's RTSJ properties.
	DomainDesc = model.DomainDesc
	// AreaDesc carries a MemoryArea's RTSJ properties.
	AreaDesc = model.AreaDesc
)

// NewArchitecture creates an empty architecture.
func NewArchitecture(name string) *Architecture { return model.NewArchitecture(name) }

// Metamodel enumerations.
const (
	// Component kinds (for view declarations).
	ActiveKind    = model.Active
	PassiveKind   = model.Passive
	CompositeKind = model.Composite

	PeriodicActivation  = model.PeriodicActivation
	SporadicActivation  = model.SporadicActivation
	AperiodicActivation = model.AperiodicActivation

	RegularThread        = model.RegularThread
	RealtimeThread       = model.RealtimeThread
	NoHeapRealtimeThread = model.NoHeapRealtimeThread

	HeapMemory     = model.HeapMemory
	ImmortalMemory = model.ImmortalMemory
	ScopedMemory   = model.ScopedMemory

	ClientRole = model.ClientRole
	ServerRole = model.ServerRole

	Synchronous  = model.Synchronous
	Asynchronous = model.Asynchronous
)

// Design methodology (Fig. 3).
type (
	// BusinessView is the functional architecture.
	BusinessView = views.BusinessView
	// BusinessComponent declares one functional component.
	BusinessComponent = views.BusinessComponent
	// ThreadView partitions active components into ThreadDomains.
	ThreadView = views.ThreadView
	// DomainAssignment deploys components into one ThreadDomain.
	DomainAssignment = views.DomainAssignment
	// MemoryView partitions the system into MemoryAreas.
	MemoryView = views.MemoryView
	// AreaAssignment deploys components into one MemoryArea.
	AreaAssignment = views.AreaAssignment
	// DesignFlow is one execution of the design methodology.
	DesignFlow = views.Flow
)

// NewDesignFlow starts the stepwise design flow from a business view.
func NewDesignFlow(b BusinessView) (*DesignFlow, error) { return views.NewFlow(b) }

// Validation.
type (
	// Report is the outcome of RTSJ conformance validation.
	Report = validate.Report
	// Diagnostic is one finding of the conformance checker.
	Diagnostic = validate.Diagnostic
)

// Validate checks an architecture against the RTSJ conformance rules.
func Validate(a *Architecture) Report { return validate.Validate(a) }

// ApplySuggestedPatterns fills in the cross-scope communication
// pattern of every binding that crosses memory areas but has none
// selected — the design flow's "possible solutions proposed" step.
func ApplySuggestedPatterns(a *Architecture) ([]*Binding, error) {
	return validate.ApplySuggestedPatterns(a)
}

// Deployment (Fig. 5, Sect. 4.3).
type (
	// System is a deployed, runnable system.
	System = assembly.System
	// Mode selects the infrastructure mode.
	Mode = assembly.Mode
	// Node is the executable form of one functional component.
	Node = assembly.Node
)

// Infrastructure modes.
const (
	Soleil     = assembly.Soleil
	MergeAll   = assembly.MergeAll
	UltraMerge = assembly.UltraMerge
)

// Content authoring: implement Content (and ActiveContent for active
// components), then register the class with Framework.Register.
type (
	// Content is the user-implemented functional code of a primitive
	// component.
	Content = membrane.Content
	// ActiveContent is content with its own activation logic.
	ActiveContent = membrane.ActiveContent
	// Services is the execution support handed to content at Init.
	Services = membrane.Services
	// Port is a client interface as seen by content.
	Port = membrane.Port
	// Env is the execution environment of a running thread.
	Env = thread.Env
)

// Runtime adaptation (Sect. 4.2).
type (
	// Adapter drives runtime adaptation of a deployed system.
	Adapter = reconfig.Manager
	// Snapshot is an introspection view of a deployed system.
	Snapshot = reconfig.Snapshot
)

// Distribution support (the paper's future-work extension): join two
// deployed systems with a distributed asynchronous binding.
type (
	// Transport carries serialized messages between systems.
	Transport = dist.Transport
	// Importer dispatches transported messages into a local
	// component.
	Importer = dist.Importer
)

// NewPipeTransport creates a connected in-process transport pair.
func NewPipeTransport() (Transport, Transport) { return dist.NewPipe() }

// NewBoundedPipeTransport creates a pipe pair with explicit buffer
// capacity and send deadline (ErrBackpressure on a stalled receiver).
func NewBoundedPipeTransport(capacity int, sendWait time.Duration) (Transport, Transport) {
	return dist.NewBoundedPipe(capacity, sendWait)
}

// NewConnTransport frames a stream connection as a transport.
func NewConnTransport(conn net.Conn) Transport { return dist.NewConn(conn) }

// RegisterPayload registers a message type for the wire encoding.
func RegisterPayload(v any) { dist.RegisterPayload(v) }

// Export routes a client interface of sys onto a transport.
func Export(sys *System, client, clientItf, serverItf string, t Transport) error {
	return dist.Export(sys, client, clientItf, serverItf, t)
}

// Import attaches a transport to a server component of sys.
func Import(sys *System, server string, t Transport) (*Importer, error) {
	return dist.Import(sys, server, t)
}

// Fault tolerance: deterministic fault injection, panic isolation,
// self-healing bindings and supervision (internal/fault).
type (
	// FaultSpec parameterizes deterministic fault injection.
	FaultSpec = fault.Spec
	// Supervisor watches component health and applies restart
	// policies through a reconfiguration manager.
	Supervisor = fault.Supervisor
	// SupervisionPolicy is one component's supervision policy.
	SupervisionPolicy = fault.Policy
	// Breaker is a circuit breaker guarding a distributed binding.
	Breaker = fault.Breaker
	// HardenOptions selects timeout / breaker / retry wrappers for a
	// hardened distributed binding.
	HardenOptions = fault.HardenOptions
	// DeployOptions gives full control over deployment (extra
	// interceptors, resilient execution); see Framework.DeployConfig.
	DeployOptions = assembly.Config
)

// Supervision directives.
const (
	RestartOneForOne    = fault.RestartOneForOne
	QuarantineDirective = fault.Quarantine
	EscalateDirective   = fault.Escalate
)

// ParseFaultSpec parses "drop=0.02,dup=0.01,corrupt=0.01,seed=42".
func ParseFaultSpec(s string) (FaultSpec, error) { return fault.ParseSpec(s) }

// InjectFaults wraps a transport with seeded, replayable fault
// injection.
func InjectFaults(t Transport, spec FaultSpec) (Transport, error) {
	return fault.InjectTransport(t, spec)
}

// NewSupervisor creates a supervisor restarting components through
// adapter.
func NewSupervisor(adapter *Adapter, opts ...fault.SupervisorOption) (*Supervisor, error) {
	return fault.NewSupervisor(adapter, opts...)
}

// NewPanicInterceptor creates the membrane interceptor that converts
// component panics into a FAILED lifecycle state.
func NewPanicInterceptor(component string) *fault.PanicInterceptor {
	return fault.NewPanicInterceptor(component)
}

// ExportHardened exports a client interface onto a transport with the
// remote port hardened (retry + circuit breaker + per-call timeout).
func ExportHardened(sys *System, client, clientItf, serverItf string, t Transport, opts HardenOptions) (Port, error) {
	return fault.ExportHardened(sys, client, clientItf, serverItf, t, opts)
}

// Runtime observability (internal/obs): allocation-free metrics on the
// membrane dispatch path, causal tracing across asynchronous and
// distributed bindings, and a live HTTP introspection surface. Set
// DeployOptions.Metrics (and Tracer) to instrument a deployment; share
// one registry and tracer across several systems to aggregate them.
type (
	// MetricsRegistry is the shared metrics root of one process.
	MetricsRegistry = obs.Registry
	// ComponentMetrics aggregates one component's signals.
	ComponentMetrics = obs.ComponentMetrics
	// Tracer records causal spans into a fixed ring.
	Tracer = obs.Tracer
	// SpanContext identifies one span within a causal trace.
	SpanContext = obs.SpanContext
	// ObservabilityOptions wires the HTTP introspection endpoints.
	ObservabilityOptions = obs.HandlerOptions
	// FlightRecorder is the always-on, allocation-free black box: a
	// fixed ring of anomaly events (deadline misses, over-budget
	// dispatches, sheds, SLO and lifecycle transitions) dumped on
	// trigger. Wire one with MetricsRegistry.SetRecorder.
	FlightRecorder = obs.Recorder
	// FlightEvent is one recorded flight-recorder event.
	FlightEvent = obs.Event
	// LinkStats is a point-in-time snapshot of one cluster link
	// endpoint (liveness, reconnects, propagated remote SLO).
	LinkStats = obs.LinkStats
)

// NewFlightRecorder creates a flight recorder identified as node
// (capacity <= 0 selects the default ring size).
func NewFlightRecorder(node string, capacity int) *FlightRecorder {
	return obs.NewRecorder(node, capacity)
}

// MergeFlightEvents merges per-node flight-recorder dumps into one
// timeline ordered by wall-clock time.
func MergeFlightEvents(batches ...[]FlightEvent) []FlightEvent {
	return obs.MergeEvents(batches...)
}

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer creates a tracer retaining the last capacity spans
// (capacity <= 0 selects the default).
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// ServeObservability serves /metrics, /healthz, /arch, /top and
// /trace on addr (":0" picks a free port) and returns the bound
// address plus a shutdown function.
func ServeObservability(addr string, opts ObservabilityOptions) (string, func() error, error) {
	return obs.Serve(addr, opts)
}

// Registry-backed supervision: probes reading the same metrics the
// exposition serves, and the option mirroring supervisor decisions
// back into the registry.
var (
	// WithSupervisorRegistry mirrors restarts and quarantines into a
	// registry (pass to NewSupervisor).
	WithSupervisorRegistry = fault.WithRegistry
	// MetricsLatencyProbe trips when an operation's p99 exceeds a bound.
	MetricsLatencyProbe = fault.MetricsLatencyProbe
	// MetricsMissProbe trips on deadline-miss bursts.
	MetricsMissProbe = fault.MetricsMissProbe
	// MetricsOverflowProbe trips on queue drop-rate bursts.
	MetricsOverflowProbe = fault.MetricsOverflowProbe
)

// Binding contracts (internal/qos): SLOs declared in the ADL's
// <Contract> element, checked statically (RT16/RT17) and enforced at
// runtime by an allocation-free admission gate next to the membrane's
// metrics interceptor.
type (
	// Contract is the QoS contract of one binding (latency budget,
	// rate + burst, overload policy); set Binding.Contract or use the
	// ADL's <Contract> element.
	Contract = model.Contract
	// OverloadPolicy selects what the admission gate does with
	// over-rate traffic.
	OverloadPolicy = model.OverloadPolicy
	// Backpressure is the typed rejection an overloaded contracted
	// binding returns; errors.Is(err, ErrBackpressure) matches it.
	Backpressure = qos.Backpressure
	// AdmissionGate is one binding's runtime token-bucket gate.
	AdmissionGate = qos.Gate
	// GateStats is a point-in-time snapshot of a gate's counters as
	// the metrics registry polls it.
	GateStats = obs.GateStats
)

// Overload policies.
const (
	ShedPolicy    = model.Shed
	BlockPolicy   = model.Block
	DegradePolicy = model.Degrade
)

// ErrBackpressure is the framework-wide overload sentinel: admission
// gates, full buffers, saturated transports and cluster links all
// wrap it, so one errors.Is covers local, merged and distributed
// bindings.
var ErrBackpressure = qos.ErrBackpressure

// ParseOverloadPolicy parses the ADL spelling ("shed", "block",
// "degrade"; empty defaults to shed).
func ParseOverloadPolicy(s string) (OverloadPolicy, error) { return model.ParseOverloadPolicy(s) }

// BackpressureBinding extracts the binding or link name from a
// backpressure error ("" and false for other errors).
func BackpressureBinding(err error) (string, bool) { return qos.BindingName(err) }

// Cluster deployment plane (internal/cluster): one architecture plus
// one deployment descriptor run as N supervised nodes. The planner
// turns every cross-node asynchronous binding into a distributed
// link; each node agent deploys its partition, dials its peers with
// backoff and heartbeats, and a coordinator federates health and
// metrics across the nodes.
type (
	// Deployment maps component names onto named cluster nodes.
	Deployment = model.Deployment
	// DeployNode is one node of a deployment descriptor.
	DeployNode = model.DeployNode
	// ClusterPlan is the planner's partitioning of an architecture.
	ClusterPlan = cluster.Plan
	// ClusterLink is one cross-node binding rewritten for transport.
	ClusterLink = cluster.Link
	// ClusterAgent is one running node of a cluster deployment.
	ClusterAgent = cluster.Agent
	// ClusterAgentConfig configures StartClusterAgent.
	ClusterAgentConfig = cluster.AgentConfig
	// ClusterCoordinator aggregates health and metrics cluster-wide.
	ClusterCoordinator = cluster.Coordinator
)

// NewDeployment creates an empty deployment descriptor for the named
// architecture; decode one from XML with adl.DecodeDeploymentFile.
func NewDeployment(arch string) *Deployment { return model.NewDeployment(arch) }

// ValidateDeployment checks a descriptor against the architecture
// (RT14: containers may not span nodes; RT15: only asynchronous
// bindings may cross nodes; RT17: cross-node contracts are
// client-side shed/degrade gates).
func ValidateDeployment(a *Architecture, d *Deployment) (Report, error) {
	return validate.ValidateDeployment(a, d)
}

// ComputeClusterPlan partitions the architecture per the descriptor.
func ComputeClusterPlan(a *Architecture, d *Deployment) (*ClusterPlan, error) {
	return cluster.Compute(a, d)
}

// StartClusterAgent brings one node of a plan up: components, links,
// fault supervision, pacing and observability, all derived from the
// plan.
func StartClusterAgent(cfg ClusterAgentConfig) (*ClusterAgent, error) {
	return cluster.Start(cfg)
}

// NewClusterCoordinator builds the cluster-wide view over a plan's
// nodes; metricsAddr overrides endpoint discovery (nil reads the
// plan's metrics addresses).
func NewClusterCoordinator(plan *ClusterPlan, metricsAddr func(node string) (string, error)) *ClusterCoordinator {
	return cluster.NewCoordinator(plan, metricsAddr)
}
