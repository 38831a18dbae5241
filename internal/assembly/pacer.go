package assembly

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"soleil/internal/model"
	"soleil/internal/rtsj/clock"
	"soleil/internal/rtsj/thread"
)

// Pacer drives a deployed system's active components in *wall-clock*
// time. The simulated scheduler (RunFor) owns virtual time and is
// single-use — the right tool for analysis, the wrong one for a node
// agent that must serve a partition indefinitely while peers dial in.
// The pacer is the serving-mode counterpart: one goroutine per active
// component re-creates the generated activation loop (deliver pending
// async messages, then run the component's own logic at its declared
// period; sporadic and aperiodic components are released on arrival)
// against the real clock, with thread-body errors absorbed
// resiliently so a failing component degrades under supervision
// instead of taking its driver down. Every timed release is a deadline
// on the pacer's one release clock.
type Pacer struct {
	sys   *System
	clock releaseClock

	activations atomic.Int64
	deliveries  atomic.Int64
	errors      atomic.Int64

	mu      sync.Mutex
	started bool
	stop    chan struct{}
	wg      sync.WaitGroup
}

// PacerOptions tunes a Pacer. It has no fields: releases follow the
// components' declared activations.
type PacerOptions struct{}

// retryDelay is how soon an arrival-released driver whose drain
// stopped on an error releases again: the messages queued behind the
// failure must not wait for the next arrival.
const retryDelay = 2 * time.Millisecond

// NewPacer prepares a pacer for every active primitive of the system.
// The system must be deployed in SOLEIL mode (the serving mode) and
// is Start()ed by Run if it has not been already.
func NewPacer(sys *System, _ PacerOptions) (*Pacer, error) {
	if sys.Mode() != Soleil {
		return nil, fmt.Errorf("assembly: pacer requires SOLEIL mode, not %v", sys.Mode())
	}
	p := &Pacer{sys: sys}
	p.clock.report = func(err error) { sys.recordErr(fmt.Errorf("assembly: pacer release clock: %w", err)) }
	return p, nil
}

// Run starts the system (if needed) and launches one driver goroutine
// per active component. It returns immediately; Close stops and joins
// the drivers. A system has at most one running pacer: Run fails while
// another pacer of the same system runs, because the two would share
// each component's release slot and wake channel, and each inbound
// binding's skeleton, which has one consumer.
func (p *Pacer) Run() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started {
		return nil
	}
	if !p.sys.pacer.CompareAndSwap(nil, p) {
		return fmt.Errorf("assembly: system %q already has a running pacer", p.sys.Architecture().Name())
	}
	if err := p.sys.Start(); err != nil {
		p.sys.pacer.Store(nil)
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
			p.clock.close()
			p.sys.pacer.Store(nil)
			return fmt.Errorf("assembly: pacer env for %q: %w", c.Name(), err)
		}
		p.wg.Add(1)
		go p.drive(node, act, p.sys.holders[c.Name()], env, closeEnv)
	}
	p.started = true
	return nil
}

// drive is one component's release loop. A periodic component is
// released at its period; a release that overran the next period is
// followed at once by one more, and the periods passed meanwhile are
// skipped. A sporadic or aperiodic one is released by notify ports
// signalling the wake channel h carries while the driver runs; it
// starts signalled, so the first release drains whatever was queued
// before. A sporadic release comes no sooner than its minimum
// interarrival time after the previous one. An arrival-driven release
// whose drain stops on an error is repeated after retryDelay. Each
// timed release is a deadline in the component's slot on the release
// clock, which posts on the channel the driver waits on.
func (p *Pacer) drive(node Node, act model.Activation, h *taskHolder, env *thread.Env, closeEnv func()) {
	defer p.wg.Done()
	defer closeEnv()
	slot := &h.slot
	periodic := act.Kind == model.PeriodicActivation
	var next clock.Time // a periodic component's next release
	if periodic {
		slot.rel = make(chan struct{}, 1)
		next = clock.Mono().Add(act.Period)
		p.clock.arm(slot, next)
	} else {
		wake := make(chan struct{}, 1)
		wake <- struct{}{}
		slot.rel = wake
		h.wake.Store(&wake)
		defer h.wake.Store(nil)
	}
	var mit time.Duration
	if act.Kind == model.SporadicActivation {
		mit = act.Period
	}
	// A periodic component runs its own logic at every release, an
	// aperiodic one at its first.
	activate := act.Kind != model.SporadicActivation
	last := clock.Mono().Add(-mit)
	armed := false // an arrival-driven driver's slot may hold a deadline
	for {
		select {
		case <-p.stop:
			return
		case <-slot.rel:
		}
		switch {
		case periodic:
			now := clock.Mono()
			next = next.Add(act.Period)
			if !next.After(now) {
				next = next.Add(now.Sub(next)/act.Period*act.Period + act.Period)
			}
			p.clock.arm(slot, next)
		case clock.Mono().Before(last.Add(mit)):
			p.clock.arm(slot, last.Add(mit))
			armed = true
			continue
		default:
			if armed {
				p.clock.cancel(slot)
				armed = false
			}
			// A signal posted by now is for a message this release
			// drains.
			select {
			case <-slot.rel:
			default:
			}
			last = clock.Mono()
		}
		if !p.step(node, env, activate) && !periodic {
			p.clock.arm(slot, clock.Mono().Add(retryDelay))
			armed = true
		}
		activate = periodic
	}
}

// step is one wall-clock release: drain inbound async buffers, then
// (for components with their own logic) activate. Errors and panics
// are absorbed into the system's error ring — the resilient execution
// discipline supervised nodes run under. It reports whether the drain
// emptied the buffers rather than stopping on an error.
func (p *Pacer) step(node Node, env *thread.Env, activate bool) (drained bool) {
	drained = p.absorb(node.Name(), func() error {
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
	return drained
}

func (p *Pacer) absorb(name string, fn func() error) (ok bool) {
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
	return err == nil
}

// Activations returns how many component releases have run.
func (p *Pacer) Activations() int64 { return p.activations.Load() }

// Deliveries returns how many async messages the drivers drained.
func (p *Pacer) Deliveries() int64 { return p.deliveries.Load() }

// Errors returns how many activation errors were absorbed.
func (p *Pacer) Errors() int64 { return p.errors.Load() }

// Close stops the drivers and waits for them to finish. The system
// itself stays up (components remain started); a pacer can be
// re-created, or this one run again, after Close.
func (p *Pacer) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started {
		return
	}
	close(p.stop)
	p.wg.Wait()
	p.clock.close()
	p.started = false
	p.sys.pacer.Store(nil)
}
