package load

import (
	"fmt"
	"sync"
	"time"

	"soleil/internal/assembly"
	"soleil/internal/rtsj/thread"
)

// Arrival names an arrival process of the open-loop schedule.
type Arrival string

// The arrival processes.
const (
	// Constant spaces arrivals evenly at the offered rate.
	Constant Arrival = "constant"
	// Burst groups arrivals into back-to-back volleys at the same
	// average rate — the storm the sporadic scenario feeds through
	// its admission gates.
	Burst Arrival = "burst"
	// Ramp sweeps the instantaneous rate linearly from half to
	// one-and-a-half times the offered rate over the run.
	Ramp Arrival = "ramp"
)

// ParseArrival validates an arrival process name from the CLI.
func ParseArrival(s string) (Arrival, error) {
	switch Arrival(s) {
	case Constant, Burst, Ramp:
		return Arrival(s), nil
	default:
		return "", fmt.Errorf("load: unknown arrival process %q (want constant, burst or ramp)", s)
	}
}

// injectors is the number of injection goroutines a drive spreads its
// schedule over.
const injectors = 4

// Profile parameterizes one open-loop drive.
type Profile struct {
	// Rate is the offered arrival rate in messages/sec across all
	// entry components.
	Rate float64
	// Duration is the measured window; Warmup precedes it and its
	// completions are excluded from every statistic.
	Duration time.Duration
	Warmup   time.Duration
	// Arrival selects the arrival process (default Constant).
	Arrival Arrival
	// BurstSize is the volley size for the Burst process (default 32).
	BurstSize int
	// Deadline, when >0, counts completions above it as misses.
	Deadline time.Duration
	// Drain bounds the post-schedule wait for in-flight stamps to
	// complete (default 2s; the wait ends early once completions
	// stop advancing).
	Drain time.Duration
}

func (p Profile) withDefaults() Profile {
	if p.Rate <= 0 {
		p.Rate = 1000
	}
	if p.Duration <= 0 {
		p.Duration = time.Second
	}
	if p.Arrival == "" {
		p.Arrival = Constant
	}
	if p.BurstSize <= 0 {
		p.BurstSize = 32
	}
	if p.Drain <= 0 {
		p.Drain = 2 * time.Second
	}
	return p
}

// schedule precomputes the intended arrival offsets for the whole
// window (warmup + measurement). The schedule is a pure function of
// the profile: the driver commits to it before the run and never
// consults completions — that independence is what makes the
// measurement open-loop.
func schedule(p Profile) []time.Duration {
	window := p.Warmup + p.Duration
	total := int(p.Rate * window.Seconds())
	if total < 1 {
		total = 1
	}
	offs := make([]time.Duration, 0, total)
	switch p.Arrival {
	case Burst:
		// Volleys of BurstSize at intervals preserving the average
		// rate: every arrival of a volley shares one intended instant.
		gap := time.Duration(float64(p.BurstSize) / p.Rate * float64(time.Second))
		for t := time.Duration(0); len(offs) < total; t += gap {
			for i := 0; i < p.BurstSize && len(offs) < total; i++ {
				offs = append(offs, t)
			}
		}
	case Ramp:
		// Piecewise-constant approximation of a linear sweep from
		// 0.5x to 1.5x the offered rate: 20 slices, each at its own
		// constant rate.
		const slices = 20
		slice := window / slices
		for s := 0; s < slices; s++ {
			r := p.Rate * (0.5 + float64(s)/float64(slices-1))
			n := int(r * slice.Seconds())
			if n < 1 {
				n = 1
			}
			step := slice / time.Duration(n)
			base := time.Duration(s) * slice
			for i := 0; i < n; i++ {
				offs = append(offs, base+time.Duration(i)*step)
			}
		}
	default: // Constant
		step := time.Duration(float64(time.Second) / p.Rate)
		for i := 0; i < total; i++ {
			offs = append(offs, time.Duration(i)*step)
		}
	}
	return offs
}

// Target is one injectable entry: a node of a deployed system. The
// driver stamps each arrival and invokes the entry's "in" server
// interface directly on the dataplane, exactly as the evaluation
// harness seeds its loops.
type Target struct {
	Sys  *assembly.System
	Node assembly.Node
}

// DriveStats is the injection side of a run's ledger.
type DriveStats struct {
	// Injected counts schedule arrivals whose intended time fell in
	// the measured window; InjectedTotal includes warmup.
	Injected      int64
	InjectedTotal int64
	// Errors counts injections the dataplane refused outright.
	Errors int64
	// MaxLateness is the worst observed gap between an arrival's
	// intended and actual injection instant — the open-loop driver
	// never skips late arrivals, it injects them late and lets the
	// latency distribution show the delay.
	MaxLateness time.Duration
}

// Drive runs the open-loop schedule against the targets and blocks
// until the schedule and the drain window are done. Arrivals are
// assigned round-robin to targets and to injector goroutines; each
// injector sleeps until an arrival's intended instant and injects
// regardless of how late it is running.
func Drive(p Profile, col *Collector, targets []Target) (DriveStats, error) {
	p = p.withDefaults()
	if len(targets) == 0 {
		return DriveStats{}, fmt.Errorf("load: no injection targets")
	}
	offs := schedule(p)

	// One env per (injector, system): envs are not shared across
	// goroutines.
	type injEnv struct {
		env      *thread.Env
		closeEnv func()
	}
	sysIdx := make(map[*assembly.System]int)
	var systems []*assembly.System
	tgtSys := make([]int, len(targets))
	for i, t := range targets {
		idx, ok := sysIdx[t.Sys]
		if !ok {
			idx = len(systems)
			sysIdx[t.Sys] = idx
			systems = append(systems, t.Sys)
		}
		tgtSys[i] = idx
	}
	envs := make([][]injEnv, injectors)
	defer func() {
		for _, row := range envs {
			for _, ie := range row {
				if ie.closeEnv != nil {
					ie.closeEnv()
				}
			}
		}
	}()
	for g := 0; g < injectors; g++ {
		envs[g] = make([]injEnv, len(systems))
		for s, sys := range systems {
			env, closeEnv, err := sys.NewEnv(false)
			if err != nil {
				return DriveStats{}, fmt.Errorf("load: injector env: %w", err)
			}
			envs[g][s] = injEnv{env, closeEnv}
		}
	}

	start := time.Now().Add(20 * time.Millisecond) // schedule epoch
	warmupEnd := start.Add(p.Warmup)
	col.SetWarmupEnd(warmupEnd)

	stats := make([]DriveStats, injectors)
	var wg sync.WaitGroup
	for g := 0; g < injectors; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := &stats[g]
			for i := g; i < len(offs); i += injectors {
				intended := start.Add(offs[i])
				if d := time.Until(intended); d > 0 {
					time.Sleep(d)
				}
				// Measured after the sleep so overshoot on a loaded
				// host counts, not only arrivals already behind at the
				// pre-sleep check.
				if late := time.Since(intended); late > st.MaxLateness {
					st.MaxLateness = late
				}
				t := targets[i%len(targets)]
				env := envs[g][tgtSys[i%len(targets)]].env
				if _, err := t.Node.Invoke(env, "in", "put", intended.UnixNano()); err != nil {
					st.Errors++
					continue
				}
				st.InjectedTotal++
				if !intended.Before(warmupEnd) {
					st.Injected++
				}
			}
		}(g)
	}
	wg.Wait()

	// Drain: wait for in-flight stamps, ending early once the full
	// ledger (completed + dropped + coalesced) has been quiescent for a
	// quarter of the drain budget — a fixed short idle window would cut
	// off deep pipelines that complete in bursts spaced further apart.
	ledger := func() int64 { return col.Completed() + col.Dropped() + col.Coalesced() }
	quiet := p.Drain / 4
	if quiet < 150*time.Millisecond {
		quiet = 150 * time.Millisecond
	}
	deadline := time.Now().Add(p.Drain)
	last, lastAdvance := ledger(), time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		if cur := ledger(); cur != last {
			last, lastAdvance = cur, time.Now()
		} else if time.Since(lastAdvance) >= quiet {
			break
		}
	}

	var out DriveStats
	for _, st := range stats {
		out.Injected += st.Injected
		out.InjectedTotal += st.InjectedTotal
		out.Errors += st.Errors
		if st.MaxLateness > out.MaxLateness {
			out.MaxLateness = st.MaxLateness
		}
	}
	return out, nil
}
