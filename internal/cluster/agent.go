package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"soleil/internal/assembly"
	"soleil/internal/dist"
	"soleil/internal/fault"
	"soleil/internal/membrane"
	"soleil/internal/obs"
	"soleil/internal/qos"
	"soleil/internal/reconfig"
)

// AgentConfig configures one node agent.
type AgentConfig struct {
	// Node names this agent's entry in the plan.
	Node string
	// Plan is the cluster plan computed from the architecture and the
	// deployment descriptor.
	Plan *Plan
	// Registry provides content factories for the partition's
	// primitives (same registry every node shares; each node only
	// instantiates its own slice).
	Registry *assembly.Registry
	// ListenAddr overrides the plan's node address — ":0" lets tests
	// and colocated demos pick free ports; Addr() reports the bound
	// address.
	ListenAddr string
	// MetricsAddr overrides the plan's metrics address; empty falls
	// back to the plan, and a plan without one serves no metrics.
	MetricsAddr string
	// Resolver maps a peer node name to its dialable address. Nil
	// resolves through the plan. Deployments that bind ":0" install a
	// resolver over the actually-bound addresses.
	Resolver func(node string) (string, error)
	// Beat is the link heartbeat interval (DefaultBeat when zero).
	Beat time.Duration
	// Dial tunes the link dialer (timeout, keepalive, backoff).
	Dial dist.DialConfig
	// AllowStubs deploys stub content for unregistered classes.
	AllowStubs bool
	// Logf, when set, receives agent lifecycle messages.
	Logf func(format string, args ...any)
}

// supervisorInterval is how often an agent's supervisor polls its
// components for a FAILED lifecycle.
const supervisorInterval = 2 * time.Millisecond

// Agent is one running node of a cluster deployment: its partition of
// the architecture brought up by assembly, its export links writing
// to peers, its import links feeding local components, the fault
// supervisor restarting failed members, the pacer releasing active
// components in wall-clock time, and the node's observability
// endpoint. Everything is derived from the plan — no hand-written
// transport wiring.
type Agent struct {
	cfg  AgentConfig
	np   *NodePlan
	logf func(format string, args ...any)

	sys   *assembly.System
	mgr   *reconfig.Manager
	sup   *fault.Supervisor
	pacer *assembly.Pacer
	reg   *obs.Registry
	rec   *obs.Recorder

	ln      *dist.Listener
	writers []*linkWriter
	outs    map[string]*outLink
	imports map[string]*importState

	metricsAddr string
	obsShutdown func() error

	mu        sync.Mutex
	closed    bool
	sessions  map[dist.Transport]struct{}
	importers []*dist.Importer
	wg        sync.WaitGroup
}

// Start brings the named node of the plan up. On success the agent is
// serving: components run, links dial and accept, metrics are live.
func Start(cfg AgentConfig) (*Agent, error) {
	np, ok := cfg.Plan.Node(cfg.Node)
	if !ok {
		return nil, fmt.Errorf("cluster: plan has no node %q", cfg.Node)
	}
	a := &Agent{
		cfg:      cfg,
		np:       np,
		logf:     cfg.Logf,
		reg:      obs.NewRegistry(),
		rec:      obs.NewRecorder(np.Name, 0),
		outs:     make(map[string]*outLink),
		imports:  make(map[string]*importState),
		sessions: make(map[dist.Transport]struct{}),
	}
	// Every subsystem holding a ComponentMetrics (interceptors, gates,
	// schedulers, supervisor) reaches the node's black box through the
	// registry.
	a.reg.SetRecorder(a.rec)
	if a.logf == nil {
		a.logf = func(string, ...any) {}
	}
	if err := a.start(); err != nil {
		a.Close()
		return nil, err
	}
	return a, nil
}

func (a *Agent) start() error {
	sys, err := assembly.Deploy(a.np.Arch, assembly.Config{
		Mode:       assembly.Soleil,
		Registry:   a.cfg.Registry,
		Resilient:  true,
		AllowStubs: a.cfg.AllowStubs,
		Metrics:    a.reg,
		Interceptors: func(component string) []membrane.Interceptor {
			return []membrane.Interceptor{fault.NewPanicInterceptor(component)}
		},
	})
	if err != nil {
		return fmt.Errorf("cluster: node %s: %w", a.np.Name, err)
	}
	a.sys = sys
	if a.mgr, err = reconfig.NewManager(sys); err != nil {
		return err
	}

	// Node-level supervision: every primitive of the partition is
	// watched; a failed component restarts in place while the links
	// keep buffering.
	if a.sup, err = fault.NewSupervisor(a.mgr, fault.WithRegistry(a.reg)); err != nil {
		return err
	}
	for _, name := range a.np.Primitives {
		name := name
		a.sup.Watch(name,
			fault.Policy{Directive: fault.RestartOneForOne, MaxRestarts: 10, Window: time.Second},
			fault.FailureProbe(func() (bool, error) { return a.sys.ComponentFailed(name) }))
	}
	a.sup.Start(supervisorInterval)

	// The import side: per-link bookkeeping first (serveConn looks it
	// up), then listen for peers carrying our inbound links.
	for _, l := range a.np.Imports {
		ist := &importState{link: l}
		a.imports[l.ID] = ist
		a.reg.RegisterLink("link "+l.ID, ist.linkStats)
	}
	listenAddr := a.cfg.ListenAddr
	if listenAddr == "" {
		listenAddr = a.np.Addr
	}
	if a.ln, err = dist.Listen(listenAddr); err != nil {
		return fmt.Errorf("cluster: node %s: %w", a.np.Name, err)
	}
	a.wg.Add(1)
	go a.acceptLoop()

	// The export side: splice an outLink port over each cross-node
	// client interface and start its writer.
	resolve := a.cfg.Resolver
	if resolve == nil {
		plan := a.cfg.Plan
		resolve = func(node string) (string, error) {
			peer, ok := plan.Node(node)
			if !ok {
				return "", fmt.Errorf("cluster: plan has no node %q", node)
			}
			return peer.Addr, nil
		}
	}
	for _, l := range a.np.Exports {
		out := newOutLink(l)
		name := "link " + l.ID
		// The server side of the link piggybacks its latency digest
		// onto heartbeats; remote reconstructs it here so the gate's
		// SLO probe can judge the server's p99 from this node.
		var budget time.Duration
		if l.Contract != nil {
			budget = l.Contract.LatencyBudget
		}
		out.remote = newRemoteSLO(name, budget, a.cfg.Beat, a.rec)
		// A contracted link is admission-gated before its queue: the
		// client node sheds or rate-limits locally instead of loading
		// the wire. With a latency budget the breach probe is wired to
		// the propagated server-side digest — the cross-node degrade
		// contract RT17 could previously only warn about.
		var port membrane.Port = out
		if gate := qos.NewGate(name, l.Contract); gate != nil {
			gate.SetRecorder(a.rec)
			if budget > 0 {
				gate.SetBreachProbe(out.remote.probe)
			}
			port = membrane.NewGatedPort(gate, out)
			a.reg.RegisterGate(name, membrane.GateStats(gate))
		}
		if err := a.sys.BindPort(l.Client.Component, l.Client.Interface, port); err != nil {
			return fmt.Errorf("cluster: node %s: export %s: %w", a.np.Name, l.ID, err)
		}
		a.outs[l.ID] = out
		a.reg.RegisterQueue(name, out.stats)
		w := newLinkWriter(out, a.np.Name, resolve, a.cfg.Dial, a.cfg.Beat, a.logf)
		w.rec = a.rec
		a.writers = append(a.writers, w)
		a.reg.RegisterLink(name, w.linkStats)
		w.start()
	}

	// Wall-clock execution of the partition's active components.
	if a.pacer, err = assembly.NewPacer(sys, assembly.PacerOptions{}); err != nil {
		return err
	}
	if err = a.pacer.Run(); err != nil {
		return err
	}

	metricsAddr := a.cfg.MetricsAddr
	if metricsAddr == "" {
		metricsAddr = a.np.MetricsAddr
	}
	if metricsAddr != "" {
		bound, shutdown, err := obs.Serve(metricsAddr, obs.HandlerOptions{
			Registry: a.reg,
			Recorder: a.rec,
			Arch:     func() any { return a.mgr.Introspect() },
		})
		if err != nil {
			return fmt.Errorf("cluster: node %s: metrics: %w", a.np.Name, err)
		}
		a.metricsAddr, a.obsShutdown = bound, shutdown
	}
	a.logf("cluster: node %s up: partition %s, %d exports, %d imports, listening on %s",
		a.np.Name, a.np.Arch.Name(), len(a.np.Exports), len(a.np.Imports), a.Addr())
	return nil
}

func (a *Agent) acceptLoop() {
	defer a.wg.Done()
	for {
		tr, err := a.ln.Accept()
		if err != nil {
			return
		}
		if !a.track(tr) {
			_ = tr.Close()
			return
		}
		a.wg.Add(1)
		go a.serveConn(tr)
	}
}

// serveConn handshakes one inbound connection and pumps it into the
// link's server component until it dies; the dialing side reconnects
// through a fresh connection.
func (a *Agent) serveConn(tr dist.Transport) {
	defer a.wg.Done()
	defer a.untrack(tr)
	h, err := readHello(tr)
	if err != nil {
		_ = tr.Close()
		return
	}
	var link *Link
	for _, l := range a.np.Imports {
		if l.ID == h.Link {
			link = l
			break
		}
	}
	if link == nil {
		a.logf("cluster: node %s: peer %s offered unknown link %q", a.np.Name, h.Node, h.Link)
		_ = tr.Close()
		return
	}
	ist := a.imports[link.ID]
	sess := newSession(tr, a.cfg.Beat, sessionHooks{
		stats: a.digestProvider(link, ist),
		onStale: func() {
			ist.staleCloses.Add(1)
			a.rec.Record(obs.EvLinkStale, link.ID, 0, obs.SpanContext{})
		},
	})
	if !a.track(sess) {
		_ = sess.Close()
		return
	}
	defer a.untrack(sess)
	ist.sess.Store(sess)
	ist.sessionsUp.Add(1)
	ist.connected.Store(true)
	defer ist.connected.Store(false)
	imp, err := dist.Import(a.sys, link.Server.Component, sess)
	if err != nil {
		a.logf("cluster: node %s: import %s: %v", a.np.Name, link.ID, err)
		_ = sess.Close()
		return
	}
	// Resilient delivery: a decode or dispatch error drops the one
	// message (the supervisor handles the failing component); only
	// transport death ends the pump.
	imp.SetErrorHandler(func(err error) bool {
		a.logf("cluster: node %s: link %s: absorbed %v", a.np.Name, link.ID, err)
		return true
	})
	a.mu.Lock()
	a.importers = append(a.importers, imp)
	a.mu.Unlock()
	a.logf("cluster: node %s: link %s connected from %s", a.np.Name, link.ID, h.Node)
	imp.Serve()
	_ = sess.Close()
}

// importState is the server-side bookkeeping of one inbound link:
// session churn and the digests piggybacked back to the client.
type importState struct {
	link *Link

	connected   atomic.Bool
	sessionsUp  atomic.Int64
	staleCloses atomic.Int64
	digestsSent atomic.Int64
	sess        atomic.Pointer[session]
}

func (ist *importState) linkStats() obs.LinkStats {
	st := obs.LinkStats{
		Dir:         "import",
		Connected:   ist.connected.Load(),
		StaleCloses: ist.staleCloses.Load(),
		DigestsSent: ist.digestsSent.Load(),
	}
	if n := ist.sessionsUp.Load(); n > 1 {
		st.Reconnects = n - 1
	}
	if s := ist.sess.Load(); s != nil {
		st.HeartbeatAge = time.Since(time.Unix(0, s.lastIn.Load()))
	}
	return st
}

// digestProvider builds the stats hook of one inbound link's session:
// every beat tick it folds the server component's latency series on
// the link's target interface into a reused snapshot, judges the
// contract server-side (flags byte), and returns the encoded digest
// to ride the heartbeat. Steady-state it allocates nothing — the
// snapshot, the scratch buffer and the digest encoding are all
// reused.
func (a *Agent) digestProvider(link *Link, ist *importState) func() []byte {
	cm := a.reg.Component(link.Server.Component)
	itf := link.Server.Interface
	var threshold time.Duration
	if link.Contract != nil && link.Contract.LatencyBudget > 0 {
		// Same 80%-of-budget early warning the degrade gates use.
		threshold = link.Contract.LatencyBudget * 4 / 5
	}
	var snap obs.HistogramSnapshot
	var buf []byte
	return func() []byte {
		if cm.SnapshotInterface(itf, &snap) == 0 || snap.Count == 0 {
			return nil // nothing observed yet: send a plain beat
		}
		var flags byte
		if threshold > 0 && snap.Quantile(0.99) > threshold {
			flags |= obs.DigestFlagBreached
		}
		buf = obs.AppendDigest(buf[:0], &snap, flags)
		ist.digestsSent.Add(1)
		return buf
	}
}

// track registers a live transport for teardown; it reports false
// once the agent is closing.
func (a *Agent) track(tr dist.Transport) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return false
	}
	a.sessions[tr] = struct{}{}
	return true
}

func (a *Agent) untrack(tr dist.Transport) {
	a.mu.Lock()
	delete(a.sessions, tr)
	a.mu.Unlock()
}

// Node returns the agent's node name.
func (a *Agent) Node() string { return a.np.Name }

// Addr returns the bound link-listener address.
func (a *Agent) Addr() string {
	if a.ln == nil {
		return ""
	}
	return a.ln.Addr()
}

// MetricsAddr returns the bound observability address ("" when the
// node serves none).
func (a *Agent) MetricsAddr() string { return a.metricsAddr }

// System exposes the node's deployed partition.
func (a *Agent) System() *assembly.System { return a.sys }

// Registry exposes the node's metrics registry.
func (a *Agent) Registry() *obs.Registry { return a.reg }

// FlightRecorder exposes the node's always-on event ring.
func (a *Agent) FlightRecorder() *obs.Recorder { return a.rec }

// Delivered sums the messages all inbound links have dispatched into
// local components.
func (a *Agent) Delivered() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var n int64
	for _, imp := range a.importers {
		n += imp.Delivered()
	}
	return n
}

// Reconnects sums the export links' reconnection events.
func (a *Agent) Reconnects() int64 {
	var n int64
	for _, w := range a.writers {
		n += w.reconnects.Load()
	}
	return n
}

// Close tears the node down: pacing stops, writers and sessions
// close, the listener and supervisor shut down, every goroutine is
// joined. Close is idempotent.
func (a *Agent) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	open := make([]dist.Transport, 0, len(a.sessions))
	for tr := range a.sessions {
		open = append(open, tr)
	}
	a.mu.Unlock()

	if a.pacer != nil {
		a.pacer.Close()
	}
	for _, w := range a.writers {
		w.Close()
	}
	if a.ln != nil {
		_ = a.ln.Close()
	}
	for _, tr := range open {
		_ = tr.Close()
	}
	if a.sup != nil {
		a.sup.Close()
	}
	a.wg.Wait()
	if a.obsShutdown != nil {
		_ = a.obsShutdown()
	}
	a.rec.Close()
	a.logf("cluster: node %s down", a.np.Name)
}
