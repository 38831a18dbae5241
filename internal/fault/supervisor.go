package fault

import (
	"fmt"
	"sync"
	"time"

	"soleil/internal/obs"
)

// Restarter applies lifecycle operations to components — the
// supervisor's effector. reconfig.Manager satisfies it, so restarts
// flow through the audited reconfiguration path.
type Restarter interface {
	Restart(component string) error
	Stop(component string) error
}

// Directive selects what the supervisor does with an unhealthy
// component.
type Directive int

// Directives.
const (
	// RestartOneForOne restarts just the failed component, escalating
	// to quarantine when the restart budget is exhausted.
	RestartOneForOne Directive = iota
	// Quarantine stops the component and leaves it stopped.
	Quarantine
	// Escalate takes no action and invokes the escalation handler.
	Escalate
)

func (d Directive) String() string {
	switch d {
	case RestartOneForOne:
		return "one-for-one"
	case Quarantine:
		return "quarantine"
	case Escalate:
		return "escalate"
	default:
		return fmt.Sprintf("Directive(%d)", int(d))
	}
}

// Policy is one component's supervision policy.
type Policy struct {
	Directive Directive
	// MaxRestarts bounds restarts within Window before the component
	// is quarantined (default 5).
	MaxRestarts int
	// Window is the restart-budget window (default 10s).
	Window time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.MaxRestarts <= 0 {
		p.MaxRestarts = 5
	}
	if p.Window <= 0 {
		p.Window = 10 * time.Second
	}
	return p
}

// Health is one probe observation.
type Health struct {
	Healthy bool
	Reason  string
}

// Healthy is the all-clear observation.
var healthyState = Health{Healthy: true}

// Probe observes one health signal of a component. Probes are polled
// by the supervisor; they must be safe for concurrent use with the
// component's execution.
type Probe func() Health

// Action is one decision the supervisor took.
type Action struct {
	At        time.Time
	Component string
	Kind      string // "restart", "quarantine", "escalate"
	Reason    string
	Err       error
}

func (a Action) String() string {
	if a.Err != nil {
		return fmt.Sprintf("%s %s (%s): %v", a.Kind, a.Component, a.Reason, a.Err)
	}
	return fmt.Sprintf("%s %s (%s)", a.Kind, a.Component, a.Reason)
}

type watch struct {
	policy      Policy
	probes      []Probe
	restarts    []time.Time
	quarantined bool
}

// Supervisor polls per-component health probes (FAILED lifecycle,
// queue overflow rate, deadline misses, latency) and applies its
// restart policies through a Restarter.
type Supervisor struct {
	restarter  Restarter
	now        func() time.Time
	onEscalate func(component, reason string)
	metrics    *obs.Registry

	mu      sync.Mutex
	watches map[string]*watch
	actions []Action

	loopMu sync.Mutex
	stop   chan struct{}
	done   chan struct{}
}

// SupervisorOption configures a Supervisor.
type SupervisorOption func(*Supervisor)

// WithClock injects the supervisor's clock (tests).
func WithClock(now func() time.Time) SupervisorOption {
	return func(s *Supervisor) { s.now = now }
}

// WithEscalationHandler installs the handler invoked on escalation
// (explicit Escalate directive or an exhausted restart budget).
func WithEscalationHandler(h func(component, reason string)) SupervisorOption {
	return func(s *Supervisor) { s.onEscalate = h }
}

// NewSupervisor creates a supervisor applying policies through r.
func NewSupervisor(r Restarter, opts ...SupervisorOption) (*Supervisor, error) {
	if r == nil {
		return nil, fmt.Errorf("fault: supervisor needs a restarter")
	}
	s := &Supervisor{restarter: r, now: time.Now, watches: make(map[string]*watch)}
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// Watch registers a component under policy with its health probes.
// Watching an already-watched component replaces its policy and
// probes but keeps its restart history.
func (s *Supervisor) Watch(component string, policy Policy, probes ...Probe) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.watches[component]
	if !ok {
		w = &watch{}
		s.watches[component] = w
	}
	w.policy = policy.withDefaults()
	w.probes = probes
}

// Actions returns the decision history.
func (s *Supervisor) Actions() []Action {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Action, len(s.actions))
	copy(out, s.actions)
	return out
}

// Quarantined reports whether a component has been quarantined.
func (s *Supervisor) Quarantined(component string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	w, ok := s.watches[component]
	return ok && w.quarantined
}

// Poll runs one evaluation pass over every watched component and
// returns the actions taken. Deterministic drivers (tests, the soak
// scenario) call it directly; Start runs it on an interval.
func (s *Supervisor) Poll() []Action {
	type verdict struct {
		component string
		w         *watch
		reason    string
	}
	s.mu.Lock()
	var unhealthy []verdict
	for name, w := range s.watches {
		if w.quarantined {
			continue
		}
		reason := ""
		for _, probe := range w.probes {
			if h := probe(); !h.Healthy {
				if reason != "" {
					reason += "; "
				}
				reason += h.Reason
			}
		}
		if reason != "" {
			unhealthy = append(unhealthy, verdict{name, w, reason})
		}
	}
	s.mu.Unlock()

	var acted []Action
	for _, v := range unhealthy {
		acted = append(acted, s.apply(v.component, v.w, v.reason))
	}
	s.mu.Lock()
	s.actions = append(s.actions, acted...)
	s.mu.Unlock()
	return acted
}

func (s *Supervisor) apply(component string, w *watch, reason string) Action {
	now := s.now()
	a := Action{At: now, Component: component, Reason: reason}
	switch w.policy.Directive {
	case Quarantine:
		a.Kind = "quarantine"
		a.Err = s.restarter.Stop(component)
		s.mu.Lock()
		w.quarantined = true
		s.mu.Unlock()
	case Escalate:
		a.Kind = "escalate"
		if s.onEscalate != nil {
			s.onEscalate(component, reason)
		}
	default: // RestartOneForOne
		s.mu.Lock()
		// Prune restarts outside the budget window.
		kept := w.restarts[:0]
		for _, t := range w.restarts {
			if now.Sub(t) < w.policy.Window {
				kept = append(kept, t)
			}
		}
		w.restarts = kept
		exhausted := len(w.restarts) >= w.policy.MaxRestarts
		if !exhausted {
			w.restarts = append(w.restarts, now)
		} else {
			w.quarantined = true
		}
		s.mu.Unlock()
		if exhausted {
			a.Kind = "quarantine"
			a.Reason = fmt.Sprintf("restart budget exhausted (%d in %v); %s",
				w.policy.MaxRestarts, w.policy.Window, reason)
			a.Err = s.restarter.Stop(component)
			if s.onEscalate != nil {
				s.onEscalate(component, a.Reason)
			}
		} else {
			a.Kind = "restart"
			a.Err = s.restarter.Restart(component)
		}
	}
	if s.metrics != nil {
		cm := s.metrics.Component(component)
		switch a.Kind {
		case "restart":
			if a.Err == nil {
				cm.Restarts.Inc()
				cm.Event(obs.EvLifecycleRestart, cm.Restarts.Load(), obs.SpanContext{})
			}
		case "quarantine":
			cm.SetHealthy(false)
			cm.Event(obs.EvLifecycleQuarantine, 0, obs.SpanContext{})
			cm.FlightRecorder().Trigger("quarantine")
		}
	}
	return a
}

// Start polls on interval until Close. One loop at a time.
func (s *Supervisor) Start(interval time.Duration) {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	s.loopMu.Lock()
	defer s.loopMu.Unlock()
	if s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func(stop, done chan struct{}) {
		defer close(done)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				s.Poll()
			}
		}
	}(s.stop, s.done)
}

// Close stops the polling loop (if running) and waits for it.
func (s *Supervisor) Close() {
	s.loopMu.Lock()
	defer s.loopMu.Unlock()
	if s.stop == nil {
		return
	}
	close(s.stop)
	<-s.done
	s.stop, s.done = nil, nil
}

// --- probes ----------------------------------------------------------------------

// FailureProbe reports unhealthy while failed() is true — how the
// supervisor learns of a PanicInterceptor's FAILED transition, built
// from assembly.(*System).ComponentFailed or membrane lifecycle state.
func FailureProbe(failed func() (bool, error)) Probe {
	return func() Health {
		isFailed, cause := failed()
		if !isFailed {
			return healthyState
		}
		return Health{Reason: fmt.Sprintf("lifecycle FAILED: %v", cause)}
	}
}

// MissProbe watches a deadline-miss counter between polls: unhealthy
// when more than maxNew misses arrived since the last poll. misses is
// typically a sched task's cumulative miss count.
func MissProbe(misses func() int64, maxNew int64) Probe {
	var last int64
	var mu sync.Mutex
	return func() Health {
		cur := misses()
		mu.Lock()
		delta := cur - last
		last = cur
		mu.Unlock()
		if delta > maxNew {
			return Health{Reason: fmt.Sprintf("%d deadline misses since last poll (max %d)", delta, maxNew)}
		}
		return healthyState
	}
}
