package cluster

import (
	"errors"
	"fmt"
	"sync"
)

// errLocalClosed is what a local cluster's resolver answers once the
// cluster is closing, so a link writer still waiting for bring-up
// gives up instead of blocking its agent's Close.
var errLocalClosed = errors.New("cluster: local cluster closed")

// Local is every node of a plan running in this process, each agent
// listening on an ephemeral loopback port, with a resolver over the
// ports actually bound — the service registry a real deployment would
// provide.
type Local struct {
	cfg AgentConfig

	ready     chan struct{} // closed once every node has bound
	done      chan struct{} // closed by Close
	closeOnce sync.Once

	mu     sync.Mutex
	nodes  []string // plan order
	agents map[string]*Agent
}

// StartLocal starts every node of plan in this process. cfg is the
// template of every agent; StartLocal sets its Plan, Node, ListenAddr
// and Resolver: each node listens on 127.0.0.1:0 and resolves its
// peers through the local cluster. The resolver answers only once
// every node has bound, so no link's first dial fails into backoff.
func StartLocal(plan *Plan, cfg AgentConfig) (*Local, error) {
	l := &Local{
		cfg:    cfg,
		ready:  make(chan struct{}),
		done:   make(chan struct{}),
		agents: make(map[string]*Agent),
	}
	l.cfg.Plan = plan
	l.cfg.ListenAddr = "127.0.0.1:0"
	l.cfg.Resolver = l.resolve
	for _, np := range plan.Nodes() {
		l.nodes = append(l.nodes, np.Name)
		if _, err := l.start(np.Name); err != nil {
			l.Close()
			return nil, err
		}
	}
	close(l.ready)
	return l, nil
}

func (l *Local) start(node string) (*Agent, error) {
	cfg := l.cfg
	cfg.Node = node
	ag, err := Start(cfg)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	select {
	case <-l.done:
		// Close ran while this node was starting and has already
		// collected the agents it tears down.
		l.mu.Unlock()
		ag.Close()
		return nil, errLocalClosed
	default:
	}
	l.agents[node] = ag
	l.mu.Unlock()
	return ag, nil
}

func (l *Local) resolve(node string) (string, error) {
	select {
	case <-l.ready:
	case <-l.done:
		return "", errLocalClosed
	}
	ag := l.Agent(node)
	if ag == nil {
		return "", fmt.Errorf("cluster: no node %q", node)
	}
	return ag.Addr(), nil
}

// Agents returns the current agent of every node, in plan order.
func (l *Local) Agents() []*Agent {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Agent, len(l.nodes))
	for i, n := range l.nodes {
		out[i] = l.agents[n]
	}
	return out
}

// Agent returns the current agent of a node, or nil for a node the
// plan does not have.
func (l *Local) Agent(node string) *Agent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.agents[node]
}

// Restart closes a node's agent, if it is still running, and starts
// the node again on a fresh port, as a rescheduled node would come
// back. Peers reconnect through the resolver, which now answers the
// new address.
func (l *Local) Restart(node string) (*Agent, error) {
	old := l.Agent(node)
	if old == nil {
		return nil, fmt.Errorf("cluster: no node %q", node)
	}
	old.Close()
	return l.start(node)
}

// Close tears every node down. Close is idempotent.
func (l *Local) Close() {
	l.closeOnce.Do(func() { close(l.done) })
	for _, ag := range l.Agents() {
		if ag != nil {
			ag.Close()
		}
	}
}
