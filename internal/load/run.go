package load

import (
	"fmt"
	"time"

	"soleil/internal/assembly"
	"soleil/internal/cluster"
	"soleil/internal/obs"
)

// RunConfig tunes how a scenario executes.
type RunConfig struct {
	// Resilient runs the in-process system in the resilient execution
	// mode (panics and errors absorbed); cluster agents are always
	// resilient. Ignored when Spec.Nodes > 1.
	Resilient bool
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Result is one scenario run's report row.
type Result struct {
	Scenario   string  `json:"scenario"`
	Shape      string  `json:"shape"`
	Components int     `json:"components"`
	Nodes      int     `json:"nodes"`
	Mode       string  `json:"mode"` // "inproc" | "inproc-resilient" | "cluster-N"
	Contracted bool    `json:"contracted"`
	Arrival    string  `json:"arrival"`
	Seed       int64   `json:"seed"`
	Rate       float64 `json:"offeredRate"`

	Injected       int64 `json:"injected"`
	Completed      int64 `json:"completed"`
	Dropped        int64 `json:"dropped"`
	Coalesced      int64 `json:"coalesced,omitempty"`
	Shed           int64 `json:"shed"`
	DeadlineMisses int64 `json:"deadlineMisses"`
	InjectErrors   int64 `json:"injectErrors,omitempty"`

	// AchievedRate is completions per second of the measured window.
	AchievedRate float64 `json:"achievedRate"`
	// MaxLateness is the driver's worst injection lag behind the
	// schedule (always reported: a loaded driver host shows up here,
	// not as silently omitted arrivals).
	MaxLateness time.Duration `json:"maxLatenessNs"`

	P50  time.Duration `json:"p50Ns"`
	P99  time.Duration `json:"p99Ns"`
	P999 time.Duration `json:"p999Ns"`
	Max  time.Duration `json:"maxNs"`
}

// modeName labels the execution mode of a run.
func modeName(spec Spec, rc RunConfig) string {
	if spec.Nodes > 1 {
		return fmt.Sprintf("cluster-%d", spec.Nodes)
	}
	if rc.Resilient {
		return "inproc-resilient"
	}
	return "inproc"
}

// Run synthesizes the scenario and drives it once with the profile.
// Spec.Nodes == 1 deploys in-process (SOLEIL mode under a wall-clock
// pacer); Nodes > 1 computes a deployment plan and starts one cluster
// agent per node over loopback TCP, injecting into whichever agents
// host the entry components.
func Run(spec Spec, p Profile, rc RunConfig) (*Result, error) {
	scn, err := Synthesize(spec)
	if err != nil {
		return nil, err
	}
	spec = scn.Spec

	col := NewCollector(p.Deadline)
	reg := assembly.NewRegistry()
	if err := RegisterContents(reg, col); err != nil {
		return nil, err
	}

	var (
		targets  []Target
		shed     func() int64
		teardown func()
	)
	if spec.Nodes <= 1 {
		metrics := obs.NewRegistry()
		sys, err := assembly.Deploy(scn.Arch, assembly.Config{
			Mode:      assembly.Soleil,
			Registry:  reg,
			Resilient: rc.Resilient,
			Metrics:   metrics,
		})
		if err != nil {
			return nil, err
		}
		pacer, err := assembly.NewPacer(sys, assembly.PacerOptions{})
		if err != nil {
			return nil, err
		}
		if err := pacer.Run(); err != nil {
			return nil, err
		}
		teardown = pacer.Close
		shed = func() int64 { return sumShed(metrics) }
		for _, e := range scn.Entries {
			node, ok := sys.Node(e)
			if !ok {
				pacer.Close()
				return nil, fmt.Errorf("load: entry %q not deployed", e)
			}
			targets = append(targets, Target{Sys: sys, Node: node})
		}
	} else {
		plan, err := cluster.Compute(scn.Arch, scn.Deploy)
		if err != nil {
			return nil, err
		}
		lc, err := cluster.StartLocal(plan, cluster.AgentConfig{Registry: reg})
		if err != nil {
			return nil, err
		}
		agents := lc.Agents()
		teardown = lc.Close
		shed = func() int64 {
			var n int64
			for _, ag := range agents {
				n += sumShed(ag.Registry())
			}
			return n
		}
		for _, e := range scn.Entries {
			found := false
			for _, ag := range agents {
				if node, ok := ag.System().Node(e); ok {
					targets = append(targets, Target{Sys: ag.System(), Node: node})
					found = true
					break
				}
			}
			if !found {
				lc.Close()
				return nil, fmt.Errorf("load: no agent hosts entry %q", e)
			}
		}
	}

	if rc.Logf != nil {
		rc.Logf("load: %s: %d components, %d entries, mode %s, %s arrivals at %.0f/s for %v (+%v warmup)",
			spec.Shape, spec.Components, len(targets), modeName(spec, rc), p.withDefaults().Arrival, p.withDefaults().Rate, p.withDefaults().Duration, p.Warmup)
	}
	ds, err := Drive(p, col, targets)
	shedCount := shed()
	teardown()
	if err != nil {
		return nil, err
	}

	p = p.withDefaults()
	snap := col.Snapshot()
	res := &Result{
		Scenario:       scn.Arch.Name(),
		Shape:          string(spec.Shape),
		Components:     spec.Components,
		Nodes:          spec.Nodes,
		Mode:           modeName(spec, rc),
		Contracted:     spec.Contracted,
		Arrival:        string(p.Arrival),
		Seed:           spec.Seed,
		Rate:           p.Rate,
		Injected:       ds.Injected,
		Completed:      col.Completed(),
		Dropped:        col.Dropped(),
		Coalesced:      col.Coalesced(),
		Shed:           shedCount,
		DeadlineMisses: col.Missed(),
		InjectErrors:   ds.Errors,
		AchievedRate:   float64(col.Completed()) / p.Duration.Seconds(),
		MaxLateness:    ds.MaxLateness,
		P50:            snap.Quantile(0.50),
		P99:            snap.Quantile(0.99),
		P999:           snap.Quantile(0.999),
		Max:            time.Duration(snap.Max),
	}
	return res, nil
}

// sumShed totals the shed counts of every admission gate in a
// registry.
func sumShed(reg *obs.Registry) int64 {
	var n int64
	for _, name := range reg.GateNames() {
		if stats, ok := reg.Gate(name); ok {
			n += stats().Shed
		}
	}
	return n
}
