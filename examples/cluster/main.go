// Cluster: one architecture, three nodes, zero hand-written
// transport wiring (the paper's distribution future work, Sect. 7,
// taken to a full deployment plane).
//
// cluster.xml describes a processing pipeline; deploy.xml maps its
// stages onto three nodes. The planner partitions the component graph
// and rewrites every binding that crosses a node boundary into a
// distributed link; each node agent brings up its slice, dials its
// peers, and re-imports the links under fault supervision. The demo
// then kills the middle node mid-load and restarts it on fresh ports
// to show supervised reconvergence, and aggregates all three nodes
// through the coordinator.
//
//	go run ./examples/cluster
//
// The same files drive the CLI across real processes:
//
//	soleil serve -node alpha -adl examples/cluster/cluster.xml -deploy examples/cluster/deploy.xml
package main

import (
	_ "embed"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"soleil/internal/adl"
	"soleil/internal/assembly"
	"soleil/internal/cluster"
	"soleil/internal/dist"
	"soleil/internal/membrane"
	"soleil/internal/rtsj/thread"
	"soleil/internal/validate"
)

//go:embed cluster.xml
var clusterXML string

//go:embed deploy.xml
var deployXML string

// sensorContent emits one sample per periodic release.
type sensorContent struct {
	svc *membrane.Services
	seq atomic.Int64
}

func (s *sensorContent) Init(svc *membrane.Services) error { s.svc = svc; return nil }

func (s *sensorContent) Invoke(*thread.Env, string, string, any) (any, error) {
	return nil, fmt.Errorf("sensor serves no interface")
}

func (s *sensorContent) Activate(env *thread.Env) error {
	out, err := s.svc.Port("out")
	if err != nil {
		return err
	}
	// A full link queue while the worker node is down is backpressure,
	// not failure: drop the sample and keep sampling.
	if err := out.Send(env, "put", s.seq.Add(1)); err != nil &&
		!errors.Is(err, dist.ErrBackpressure) {
		return err
	}
	return nil
}

// workerContent enriches each sample through its local cache and
// forwards the result.
type workerContent struct {
	svc      *membrane.Services
	enriched atomic.Int64
}

func (w *workerContent) Init(svc *membrane.Services) error { w.svc = svc; return nil }

func (w *workerContent) Activate(*thread.Env) error { return nil }

func (w *workerContent) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	cache, err := w.svc.Port("cache")
	if err != nil {
		return nil, err
	}
	v, err := cache.Call(env, "get", arg)
	if err != nil {
		return nil, err
	}
	w.enriched.Add(1)
	out, err := w.svc.Port("out")
	if err != nil {
		return nil, err
	}
	if err := out.Send(env, "put", v); err != nil && !errors.Is(err, dist.ErrBackpressure) {
		return nil, err
	}
	return nil, nil
}

// cacheContent is the worker's node-local synchronous dependency.
type cacheContent struct {
	hits atomic.Int64
}

func (c *cacheContent) Init(*membrane.Services) error { return nil }

func (c *cacheContent) Invoke(_ *thread.Env, itf, op string, arg any) (any, error) {
	c.hits.Add(1)
	return arg, nil
}

// sinkContent counts what made it through the whole pipeline.
type sinkContent struct {
	got atomic.Int64
}

func (s *sinkContent) Init(*membrane.Services) error { return nil }

func (s *sinkContent) Activate(*thread.Env) error { return nil }

func (s *sinkContent) Invoke(*thread.Env, string, string, any) (any, error) {
	s.got.Add(1)
	return nil, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	arch, err := adl.DecodeString(clusterXML)
	if err != nil {
		return err
	}
	dep, err := adl.DecodeDeploymentString(deployXML)
	if err != nil {
		return err
	}
	report, err := validate.ValidateDeployment(arch, dep)
	if err != nil {
		return err
	}
	fmt.Printf("deployment of %q over %d nodes: RTSJ-compliant = %v\n",
		arch.Name(), len(dep.Nodes()), report.OK())

	plan, err := cluster.Compute(arch, dep)
	if err != nil {
		return err
	}
	for _, np := range plan.Nodes() {
		fmt.Printf("  node %-6s components=%v exports=%d imports=%d\n",
			np.Name, np.Primitives, len(np.Exports), len(np.Imports))
	}
	for _, l := range plan.Links {
		fmt.Printf("  link %s: %s -> %s (buffer %d)\n", l.ID, l.ClientNode, l.ServerNode, l.BufferSize)
	}

	sensor := &sensorContent{}
	worker := &workerContent{}
	cache := &cacheContent{}
	sink := &sinkContent{}
	reg := assembly.NewRegistry()
	for class, content := range map[string]membrane.Content{
		"SensorImpl": sensor, "WorkerImpl": worker, "CacheImpl": cache, "SinkImpl": sink,
	} {
		c := content
		if err := reg.Register(class, func() membrane.Content { return c }); err != nil {
			return err
		}
	}

	// All three agents live in this process, so the descriptor's fixed
	// ports are overridden with ephemeral ones and a resolver maps node
	// names to whatever was actually bound — the same mechanism a
	// service registry would provide in a real deployment.
	lc, err := cluster.StartLocal(plan, cluster.AgentConfig{
		Registry:    reg,
		MetricsAddr: "127.0.0.1:0",
		Beat:        50 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	defer lc.Close()
	if err := waitFor(10*time.Second, func() bool { return sink.got.Load() >= 25 }); err != nil {
		return fmt.Errorf("pipeline never converged: %w", err)
	}
	fmt.Printf("\npipeline flowing: sink received %d results (cache hits %d)\n",
		sink.got.Load(), cache.hits.Load())

	coord := cluster.NewCoordinator(plan, func(node string) (string, error) {
		return lc.Agent(node).MetricsAddr(), nil
	})
	st := coord.Status()
	fmt.Printf("coordinator: cluster healthy = %v\n", st.Healthy)
	for _, n := range st.Nodes {
		fmt.Printf("  %-6s reachable=%-5v healthy=%v\n", n.Node, n.Reachable, n.Healthy)
	}

	// Kill the middle node mid-load, then bring it back on fresh
	// ports. The sensor keeps sampling (dropping into backpressure),
	// alpha's link dialer reconnects, and the pipeline reconverges
	// without any component being told about the outage.
	fmt.Println("\nkilling node beta mid-load ...")
	lc.Agent("beta").Close()
	time.Sleep(300 * time.Millisecond)
	if st := coord.Status(); st.Healthy {
		return fmt.Errorf("coordinator still reports healthy with beta down")
	}
	fmt.Println("coordinator degraded; restarting beta ...")
	atKill := sink.got.Load()
	if _, err := lc.Restart("beta"); err != nil {
		return err
	}
	if err := waitFor(10*time.Second, func() bool { return sink.got.Load() >= atKill+25 }); err != nil {
		return fmt.Errorf("pipeline never reconverged: %w", err)
	}
	alpha := lc.Agent("alpha")
	fmt.Printf("reconverged: sink at %d results, alpha reconnected %d time(s), cluster healthy = %v\n",
		sink.got.Load(), alpha.Reconnects(), coord.Status().Healthy)
	return nil
}

func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("condition not met within %v", timeout)
}
