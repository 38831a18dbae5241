package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"soleil/internal/assembly"
	"soleil/internal/cluster"
	"soleil/internal/load"
	"soleil/internal/obs"
	"soleil/internal/rtsj/thread"
)

// deployment is one fresh deployment of a synthesized scenario, made
// exactly as `soleil load` makes it: SOLEIL mode, resilient, metrics
// registry on, and no system knob set.
type deployment struct {
	entries []assembly.Node
	sysOf   []int // entry -> index into systems
	systems []*assembly.System
	regs    []*obs.Registry
	pacer   *assembly.Pacer  // in-process only
	agents  []*cluster.Agent // cluster only
	nodeOf  map[string]int
	close   func()
}

var errAborted = errors.New("deployment torn down before every node was up")

// deploy brings scn up and returns it serving: the pacer running, or
// every cluster agent started with all of its links connected. It
// reports the deploy and start phases separately.
func deploy(scn *load.Scenario, reg *assembly.Registry) (d *deployment, deployT, startT time.Duration, err error) {
	t0 := time.Now()
	d = &deployment{nodeOf: map[string]int{}}
	if scn.Deploy == nil {
		metrics := obs.NewRegistry()
		sys, err := assembly.Deploy(scn.Arch, assembly.Config{Mode: assembly.Soleil, Registry: reg, Resilient: true, Metrics: metrics})
		if err != nil {
			return nil, 0, 0, err
		}
		pacer, err := assembly.NewPacer(sys, assembly.PacerOptions{})
		if err != nil {
			return nil, 0, 0, err
		}
		t1 := time.Now()
		if err := pacer.Run(); err != nil {
			return nil, 0, 0, err
		}
		d.systems, d.regs, d.pacer, d.close = []*assembly.System{sys}, []*obs.Registry{metrics}, pacer, pacer.Close
		for _, e := range scn.Entries {
			n, ok := sys.Node(e)
			if !ok {
				pacer.Close()
				return nil, 0, 0, fmt.Errorf("entry %q not deployed", e)
			}
			d.entries, d.sysOf = append(d.entries, n), append(d.sysOf, 0)
		}
		return d, t1.Sub(t0), time.Since(t1), nil
	}

	plan, err := cluster.Compute(scn.Arch, scn.Deploy)
	if err != nil {
		return nil, 0, 0, err
	}
	placement, err := scn.Deploy.Resolve(scn.Arch)
	if err != nil {
		return nil, 0, 0, err
	}
	// Agents listen on ":0"; a link writer resolves its peer only once
	// every agent is up and its address known, instead of failing and
	// backing off, so set-up time does not depend on retry jitter.
	addrs := map[string]string{}
	ready, abort := make(chan struct{}), make(chan struct{})
	resolve := func(node string) (string, error) {
		select {
		case <-ready:
		case <-abort:
			return "", errAborted
		}
		addr, ok := addrs[node]
		if !ok {
			return "", fmt.Errorf("no node %q", node)
		}
		return addr, nil
	}
	var once sync.Once
	d.close = func() {
		once.Do(func() { close(abort) })
		for _, ag := range d.agents {
			ag.Close()
		}
	}
	nodeIdx := map[string]int{}
	for i, np := range plan.Nodes() {
		nodeIdx[np.Name] = i
		ag, err := cluster.Start(cluster.AgentConfig{Node: np.Name, Plan: plan, Registry: reg, Resolver: resolve})
		if err != nil {
			d.close()
			return nil, 0, 0, err
		}
		addrs[np.Name] = ag.Addr()
		d.agents = append(d.agents, ag)
		d.systems = append(d.systems, ag.System())
		d.regs = append(d.regs, ag.Registry())
	}
	close(ready)
	for c, n := range placement {
		d.nodeOf[c] = nodeIdx[n]
	}
	t1 := time.Now()
	if err := waitConnected(d.regs, 5*time.Second); err != nil {
		d.close()
		return nil, 0, 0, err
	}
	for _, e := range scn.Entries {
		i := nodeIdx[placement[e]]
		n, ok := d.systems[i].Node(e)
		if !ok {
			d.close()
			return nil, 0, 0, fmt.Errorf("no agent hosts entry %q", e)
		}
		d.entries, d.sysOf = append(d.entries, n), append(d.sysOf, i)
	}
	return d, t1.Sub(t0), time.Since(t1), nil
}

// waitConnected polls every link of every registry until all report a
// session, or fails after timeout.
func waitConnected(regs []*obs.Registry, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		down := ""
		for _, r := range regs {
			for _, name := range r.LinkNames() {
				if st, ok := r.Link(name); ok && !st().Connected {
					down = name
				}
			}
		}
		if down == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not connected after %v", down, timeout)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// layerCounts are the per-round counts read from the system's public
// statistics after the drain.
type layerCounts struct {
	commEnqueued, commRefused int64
	commMaxFill               float64
	admitted, shed            int64
	linkEnqueued              int64
	delivered, reconnects     int64
	pacerDeliveries           int64
	pacerErrors               int64
}

// add accumulates o into c; fill ratios take the maximum.
func (c *layerCounts) add(o layerCounts) {
	c.commEnqueued += o.commEnqueued
	c.commRefused += o.commRefused
	c.commMaxFill = max(c.commMaxFill, o.commMaxFill)
	c.admitted += o.admitted
	c.shed += o.shed
	c.linkEnqueued += o.linkEnqueued
	c.delivered += o.delivered
	c.reconnects += o.reconnects
	c.pacerDeliveries += o.pacerDeliveries
	c.pacerErrors += o.pacerErrors
}

func (d *deployment) counts() layerCounts {
	var c layerCounts
	for _, r := range d.regs {
		for _, name := range r.QueueNames() {
			st, ok := r.Queue(name)
			if !ok {
				continue
			}
			q := st()
			if strings.HasPrefix(name, "link ") { // a cluster link's send queue
				c.linkEnqueued += q.Enqueued
				continue
			}
			c.commEnqueued += q.Enqueued
			c.commRefused += q.Dropped
			if q.Capacity > 0 {
				c.commMaxFill = max(c.commMaxFill, float64(q.HighWatermark)/float64(q.Capacity))
			}
		}
		for _, name := range r.GateNames() {
			if st, ok := r.Gate(name); ok {
				g := st()
				c.admitted += g.Admitted
				c.shed += g.Shed
			}
		}
	}
	for _, ag := range d.agents {
		c.delivered += ag.Delivered()
		c.reconnects += ag.Reconnects()
	}
	if d.pacer != nil {
		c.pacerDeliveries = d.pacer.Deliveries()
		c.pacerErrors = d.pacer.Errors()
	}
	return c
}

// shape is how long each part of a round lasts.
type shape struct {
	warmup, window, drain time.Duration
}

// roundResult is everything one open-loop round measured.
type roundResult struct {
	synth, deploy, start  time.Duration
	footprint             int64 // bytes of live heap the deployment added
	lat                   []int64
	lateness              []int64 // of the stamps intended in the window
	injected              int64
	shed                  int64
	refused, injectErr    int64
	unresolved, conflicts int64
	cpu                   time.Duration // process CPU over the window
	goroutines            int
	gcCount               uint32
	gcPause               time.Duration
	counts                layerCounts
	spans                 []span
	nodeOf                map[string]int
}

// runRound deploys the workload's scenario fresh, drives one warmup
// and one measured window of open-loop arrivals into it, drains it and
// tears it down. In a strict round a ledger that does not close is an
// error; a rate-search probe instead counts the stamps still in flight
// and those that reached a second final state, as failures.
func runRound(w workload, synth int64, rng *rand.Rand, order []int, sh shape, traceEvery, traceCap int, strict bool) (*roundResult, error) {
	// Everything the round records into is allocated before the
	// footprint baseline.
	arr := schedule(w, rng, 0, sh.warmup, sh.window, order)
	n := len(arr.at)
	rec := &recorder{clk: newClock(), lat: make([]int64, n), comps: map[string]uint16{}}
	rec.led = newLedger(arr.at)
	if traceEvery > 0 {
		rec.tr = newTracer(traceCap, n, traceEvery)
	}
	lateness := make([]int64, n)
	rr := &roundResult{}

	spec := w.spec
	spec.Seed = synth
	footprint := heapAfterGC()

	t0 := time.Now()
	scn, err := load.Synthesize(spec)
	if err != nil {
		return nil, err
	}
	rr.synth = time.Since(t0)
	for i, c := range scn.Arch.Components() {
		rec.comps[c.Name()] = uint16(i)
	}
	reg, err := rec.register()
	if err != nil {
		return nil, err
	}
	d, deployT, startT, err := deploy(scn, reg)
	if err != nil {
		return nil, err
	}
	defer d.close()
	rr.deploy, rr.start, rr.nodeOf = deployT, startT, d.nodeOf
	rr.footprint = heapAfterGC() - footprint

	// One environment per injector and system: environments are not
	// shared between goroutines.
	const injectors = 2
	envs := make([][]*thread.Env, injectors)
	for g := range envs {
		for _, sys := range d.systems {
			env, closeEnv, err := sys.NewEnv(false)
			if err != nil {
				return nil, err
			}
			defer closeEnv()
			envs[g] = append(envs[g], env)
		}
	}

	// Fix the schedule 20 ms ahead, so the first arrival is not
	// already late when the injectors start.
	epoch := rec.clk.now() + int64(20*time.Millisecond)
	for i := range arr.at {
		arr.at[i] += epoch
	}
	rec.winLo, rec.winHi = arr.winLo+epoch, arr.winHi+epoch
	clk, led, tr := rec.clk, rec.led, rec.tr
	// An entry's content forwards into buffers that take one producer
	// at a time (comm.RTBuffer is single-producer), so the injectors
	// serialize their invocations of each entry.
	entryMu := make([]sync.Mutex, len(d.entries))

	var wg sync.WaitGroup
	for g := 0; g < injectors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += injectors {
				intended := arr.at[i]
				if dly := intended - clk.now(); dly > 0 {
					time.Sleep(time.Duration(dly))
				}
				e := arr.entry[i]
				entryMu[e].Lock()
				actual := clk.now()
				lateness[i] = actual - intended
				var lateID, entryID int32
				traced := tr.traced(i)
				if traced {
					lateID, entryID = tr.reserve(), tr.reserve()
					tr.put(lateID, span{stamp: intended, start: intended, end: actual, parent: -1, kind: kLateness})
					tr.last[i].Store(entryID)
				}
				_, err := d.entries[e].Invoke(envs[g][d.sysOf[e]], "in", "put", intended)
				if traced {
					tr.put(entryID, span{stamp: intended, start: actual, end: clk.now(), parent: lateID, kind: kEntry, comp: rec.comps[d.entries[e].Name()]})
				}
				entryMu[e].Unlock()
				if err != nil {
					led.mark(i, stInjectErr)
				}
			}
		}(g)
	}

	// The measured window: process CPU time and the Go runtime's
	// collections between its first and last intended instant.
	sleepUntil(clk, rec.winLo)
	var ru0, ru1 syscall.Rusage
	var ms0, ms1 runtime.MemStats
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // RUSAGE_SELF cannot fail
	runtime.ReadMemStats(&ms0)
	rr.goroutines = runtime.NumGoroutine()
	sleepUntil(clk, rec.winHi)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	runtime.ReadMemStats(&ms1)
	rr.cpu = cpuTime(ru1) - cpuTime(ru0)
	rr.gcCount = ms1.NumGC - ms0.NumGC
	rr.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	wg.Wait()

	// Drain: until every stamp has a final state, or the drain budget
	// is spent.
	for deadline := time.Now().Add(sh.drain); led.unresolved() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	rr.counts = d.counts()
	d.close()

	if p := rec.firstErr.Load(); p != nil {
		return nil, fmt.Errorf("%d sends failed; first: %w", rec.sendErrors.Load(), *p)
	}
	if strict {
		if err := led.check(); err != nil {
			return nil, fmt.Errorf("ledger does not close: %w", err)
		}
	}
	rr.unresolved, rr.conflicts = led.unresolved(), led.conflicts.Load()+led.strays.Load()
	rr.shed = led.count(stShed)
	rr.refused, rr.injectErr = led.count(stRefused), led.count(stInjectErr)
	rr.injected = int64(n) - rr.injectErr
	if rr.shed != rr.counts.shed {
		return nil, fmt.Errorf("ledger counts %d shed stamps, the gates %d", rr.shed, rr.counts.shed)
	}
	rr.lat = rec.lat[:min(int(rec.latN.Load()), n)]
	for i, at := range arr.at {
		if at >= rec.winLo && at < rec.winHi {
			rr.lateness = append(rr.lateness, lateness[i])
		}
	}
	if tr != nil {
		rr.spans = tr.recorded()
	}
	return rr, nil
}

func sleepUntil(c clock, t int64) {
	if d := t - c.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

func cpuTime(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAfterGC returns the live heap in bytes after a full collection.
func heapAfterGC() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// directChain is the assembly floor of a pipeline: one stamp at a time
// through a pacer-less deployment of the same architecture, the entry
// invoked and then every later stage delivered, on one goroutine. Its
// latency is the pipeline's cost without any wait for release.
func directChain(w workload, synth int64, stamps int) ([]int64, error) {
	spec := w.spec
	spec.Seed = synth
	scn, err := load.Synthesize(spec)
	if err != nil {
		return nil, err
	}
	at := make([]int64, stamps)
	rec := &recorder{clk: newClock(), comps: map[string]uint16{}}
	for i := range at {
		at[i] = int64(i + 1)
	}
	rec.led = newLedger(at)
	reg, err := rec.register()
	if err != nil {
		return nil, err
	}
	sys, err := assembly.Deploy(scn.Arch, assembly.Config{Mode: assembly.Soleil, Registry: reg, Resilient: true, Metrics: obs.NewRegistry()})
	if err != nil {
		return nil, err
	}
	if err := sys.Start(); err != nil {
		return nil, err
	}
	env, closeEnv, err := sys.NewEnv(false)
	if err != nil {
		return nil, err
	}
	defer closeEnv()
	entry, _ := sys.Node(scn.Entries[0])
	var stages []assembly.Node
	for _, c := range chain(scn.Arch, scn.Entries[0]) {
		n, _ := sys.Node(c)
		stages = append(stages, n)
	}
	out := make([]int64, 0, stamps)
	for _, stamp := range at {
		t0 := time.Now()
		if _, err := entry.Invoke(env, "in", "put", stamp); err != nil {
			return nil, err
		}
		for _, n := range stages {
			if _, err := n.Deliver(env); err != nil {
				return nil, err
			}
		}
		out = append(out, int64(time.Since(t0)))
	}
	if err := rec.led.check(); err != nil {
		return nil, fmt.Errorf("direct chain: %w", err)
	}
	return out, nil
}
