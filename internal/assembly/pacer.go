package assembly

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"soleil/internal/model"
	"soleil/internal/rtsj/thread"
)

// Pacer drives a deployed system's active components in *wall-clock*
// time. The simulated scheduler (RunFor) owns virtual time and is
// single-use — the right tool for analysis, the wrong one for a node
// agent that must serve a partition indefinitely while peers dial in.
// The pacer is the serving-mode counterpart: one goroutine per active
// component re-creates the generated activation loop (deliver pending
// async messages, then run the component's own logic at its declared
// period) against the real clock, with thread-body errors absorbed
// resiliently so a failing component degrades under supervision
// instead of taking its driver down.
type Pacer struct {
	sys  *System
	opts PacerOptions

	activations atomic.Int64
	deliveries  atomic.Int64
	errors      atomic.Int64

	mu      sync.Mutex
	started bool
	stop    chan struct{}
	wg      sync.WaitGroup
}

// PacerOptions tunes a Pacer. The zero value is serviceable.
type PacerOptions struct {
	// SporadicPoll is the polling interval for sporadic and aperiodic
	// components without a declared minimum interarrival time
	// (default 2ms): their inbound buffers are drained at this rate,
	// standing in for the scheduler's arrival-triggered releases.
	SporadicPoll time.Duration
}

// NewPacer prepares a pacer for every active primitive of the system.
// The system must be deployed in SOLEIL mode (the serving mode) and
// is Start()ed by Run if it has not been already.
func NewPacer(sys *System, opts PacerOptions) (*Pacer, error) {
	if sys.Mode() != Soleil {
		return nil, fmt.Errorf("assembly: pacer requires SOLEIL mode, not %v", sys.Mode())
	}
	if opts.SporadicPoll <= 0 {
		opts.SporadicPoll = 2 * time.Millisecond
	}
	return &Pacer{sys: sys, opts: opts}, nil
}

// Run starts the system (if needed) and launches one driver goroutine
// per active component. It returns immediately; Close stops and joins
// the drivers.
func (p *Pacer) Run() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return nil
	}
	if err := p.sys.Start(); err != nil {
		return err
	}
	p.stop = make(chan struct{})
	for _, c := range p.sys.Architecture().ComponentsOfKind(model.Active) {
		node, ok := p.sys.Node(c.Name())
		if !ok {
			continue
		}
		act := *c.Activation()
		noHeap := false
		if td, err := p.sys.Architecture().EffectiveThreadDomain(c); err == nil {
			noHeap = td.Domain().Kind == model.NoHeapRealtimeThread
		}
		env, closeEnv, err := p.sys.NewEnv(noHeap)
		if err != nil {
			close(p.stop)
			p.wg.Wait()
			return fmt.Errorf("assembly: pacer env for %q: %w", c.Name(), err)
		}
		p.wg.Add(1)
		go p.drive(node, act, env, closeEnv)
	}
	p.started = true
	return nil
}

// interval maps release parameters onto a wall-clock tick.
func (p *Pacer) interval(act model.Activation) time.Duration {
	if act.Period > 0 {
		return act.Period
	}
	return p.opts.SporadicPoll
}

func (p *Pacer) drive(node Node, act model.Activation, env *thread.Env, closeEnv func()) {
	defer p.wg.Done()
	defer closeEnv()

	if act.Kind == model.AperiodicActivation {
		// One release, as the generated loop does; then keep
		// delivering inbound messages.
		p.step(node, env, true)
	}
	ticker := time.NewTicker(p.interval(act))
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
			p.step(node, env, act.Kind == model.PeriodicActivation)
		}
	}
}

// step is one wall-clock release: drain inbound async buffers, then
// (for components with their own logic) activate. Errors and panics
// are absorbed into the system's error ring — the resilient execution
// discipline supervised nodes run under.
func (p *Pacer) step(node Node, env *thread.Env, activate bool) {
	p.absorb(node.Name(), func() error {
		n, err := node.Deliver(env)
		p.deliveries.Add(int64(n))
		return err
	})
	if activate {
		p.absorb(node.Name(), func() error {
			if err := node.Activate(env); err != nil {
				return err
			}
			p.activations.Add(1)
			return nil
		})
	}
}

func (p *Pacer) absorb(name string, fn func() error) {
	var err error
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		err = fn()
	}()
	if err != nil {
		p.errors.Add(1)
		p.sys.recordErr(fmt.Errorf("%s: %w", name, err))
	}
}

// Activations returns how many component releases have run.
func (p *Pacer) Activations() int64 { return p.activations.Load() }

// Deliveries returns how many async messages the drivers drained.
func (p *Pacer) Deliveries() int64 { return p.deliveries.Load() }

// Errors returns how many activation errors were absorbed.
func (p *Pacer) Errors() int64 { return p.errors.Load() }

// Close stops the drivers and waits for them to finish. The system
// itself stays up (components remain started); a pacer can be
// re-created after Close.
func (p *Pacer) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started {
		return
	}
	close(p.stop)
	p.wg.Wait()
	p.started = false
}
