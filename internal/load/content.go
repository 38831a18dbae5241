package load

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"soleil/internal/assembly"
	"soleil/internal/membrane"
	"soleil/internal/obs"
	"soleil/internal/qos"
	"soleil/internal/rtsj/thread"
)

// Collector is the driver's completion ledger, shared by every sink
// content instance across every deployed system of a run. Messages
// carry their *intended* arrival time as an int64 unix-nanosecond
// payload; Complete records the open-loop latency from that instant,
// so queueing delay accumulated anywhere along the path — including
// before injection — lands in the histogram.
type Collector struct {
	// warmupEnd gates recording: stamps intended before it are
	// settling traffic and contribute no sample.
	warmupEnd atomic.Int64
	// bound, when >0, is the deadline: completions above it count as
	// misses.
	bound int64

	hist      obs.Histogram
	completed obs.Counter
	missed    obs.Counter
	dropped   obs.Counter
	coalesced obs.Counter
}

// NewCollector builds a collector with the given deadline bound
// (0 = no deadline accounting).
func NewCollector(deadline time.Duration) *Collector {
	return &Collector{bound: int64(deadline)}
}

// SetWarmupEnd sets the instant before which completions are ignored.
func (c *Collector) SetWarmupEnd(t time.Time) { c.warmupEnd.Store(t.UnixNano()) }

// Complete records one end-to-end completion of the stamp.
func (c *Collector) Complete(intended int64) {
	if intended < c.warmupEnd.Load() {
		return
	}
	start := time.Unix(0, intended)
	c.hist.ObserveSince(start)
	c.completed.Inc()
	if c.bound > 0 && time.Since(start) > time.Duration(c.bound) {
		c.missed.Inc()
	}
}

// Snapshot returns the latency distribution recorded so far.
func (c *Collector) Snapshot() obs.HistogramSnapshot { return c.hist.Snapshot() }

// Completed returns how many stamps reached the sink after warmup.
func (c *Collector) Completed() int64 { return c.completed.Load() }

// Missed returns how many completions exceeded the deadline bound.
func (c *Collector) Missed() int64 { return c.missed.Load() }

// Dropped returns how many forwards died to backpressure (admission
// gates shedding or bounded buffers refusing).
func (c *Collector) Dropped() int64 { return c.dropped.Load() }

// Coalesced returns how many stamps a reactive component absorbed
// because its derived value did not change.
func (c *Collector) Coalesced() int64 { return c.coalesced.Load() }

// forward sends the stamp out of one port, absorbing backpressure
// into the drop ledger: open-loop senders must never stall on a
// refused hop, they account for it.
func forward(col *Collector, svc *membrane.Services, env *thread.Env, port string, stamp int64) error {
	out, err := svc.Port(port)
	if err != nil {
		return err
	}
	if err := out.Send(env, "put", stamp); err != nil {
		if errors.Is(err, qos.ErrBackpressure) {
			col.dropped.Inc()
			return nil
		}
		return err
	}
	return nil
}

// relayContent is the pipeline stage / fan-in fold: a tiny
// deterministic fold over the stamp, then forward.
type relayContent struct {
	svc *membrane.Services
	col *Collector
	acc atomic.Int64
}

func (r *relayContent) Init(svc *membrane.Services) error { r.svc = svc; return nil }
func (r *relayContent) Activate(*thread.Env) error        { return nil }

func (r *relayContent) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	stamp, ok := arg.(int64)
	if !ok {
		return nil, nil
	}
	r.acc.Add(stamp & 0xffff) // the aggregation fold
	return nil, forward(r.col, r.svc, env, "out", stamp)
}

// smState is one state of the hierarchical machine; parent < 0 marks
// a root.
type smState struct {
	parent  int
	handles uint8 // bitmask of the events this state consumes
}

// smContent executes a small hierarchical state machine per message
// (RKH's statechart discipline): the event is dispatched to the
// current leaf state and bubbles up the hierarchy until a state
// handles it; handling transitions the machine deterministically.
// Idle(0) -> {Busy(1) -> {Recv(3), Proc(4)}, Err(2)}.
type smContent struct {
	svc *membrane.Services
	col *Collector

	mu    sync.Mutex
	state int
	steps int64
}

var smStates = []smState{
	{parent: -1, handles: 0b0001}, // 0 Idle: ev0 -> Recv
	{parent: -1, handles: 0b0110}, // 1 Busy: ev1 -> Proc, ev2 -> Err
	{parent: -1, handles: 0b1000}, // 2 Err: ev3 -> Idle
	{parent: 1, handles: 0b0001},  // 3 Busy.Recv: ev0 -> Proc
	{parent: 1, handles: 0b1001},  // 4 Busy.Proc: ev0 -> Recv, ev3 -> Idle
}

// smNext is the transition table: smNext[state][event], -1 = bubble.
var smNext = [5][4]int{
	{3, -1, -1, -1}, // Idle
	{-1, 4, 2, -1},  // Busy
	{-1, -1, -1, 0}, // Err
	{4, -1, -1, -1}, // Busy.Recv
	{3, -1, -1, 0},  // Busy.Proc
}

func (s *smContent) Init(svc *membrane.Services) error { s.svc = svc; return nil }
func (s *smContent) Activate(*thread.Env) error        { return nil }

func (s *smContent) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	stamp, ok := arg.(int64)
	if !ok {
		return nil, nil
	}
	s.mu.Lock()
	ev := int(s.steps & 3) // deterministic event stream
	s.steps++
	// Dispatch: bubble from the current state up the hierarchy to the
	// first state whose mask covers the event.
	for st := s.state; st >= 0; st = smStates[st].parent {
		if smStates[st].handles&(1<<uint(ev)) != 0 {
			if next := smNext[st][ev]; next >= 0 {
				s.state = next
			}
			break
		}
	}
	s.mu.Unlock()
	return nil, forward(s.col, s.svc, env, "out", stamp)
}

// reactiveContent propagates only when its derived value changes —
// every other input by design — and alternates which downstream prop
// it feeds; unchanged inputs are coalesced, as a prop-driven
// component graph legitimately does.
type reactiveContent struct {
	svc *membrane.Services
	col *Collector
	n   atomic.Int64
}

func (r *reactiveContent) Init(svc *membrane.Services) error { r.svc = svc; return nil }
func (r *reactiveContent) Activate(*thread.Env) error        { return nil }

func (r *reactiveContent) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	stamp, ok := arg.(int64)
	if !ok {
		return nil, nil
	}
	n := r.n.Add(1)
	if n&1 == 0 { // derived value unchanged: coalesce
		r.col.coalesced.Inc()
		return nil, nil
	}
	port := "out0"
	if (n>>1)&1 == 1 {
		if _, err := r.svc.Port("out1"); err == nil {
			port = "out1"
		}
	}
	return nil, forward(r.col, r.svc, env, port, stamp)
}

// sinkContent terminates every path and completes the stamp.
type sinkContent struct {
	col *Collector
}

func (s *sinkContent) Init(*membrane.Services) error { return nil }
func (s *sinkContent) Activate(*thread.Env) error    { return nil }

func (s *sinkContent) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	if stamp, ok := arg.(int64); ok {
		s.col.Complete(stamp)
	}
	return nil, nil
}

// RegisterContents registers the load-plane content classes into reg,
// all funneling completions into col. Factories return fresh
// instances, so one registry serves a whole fleet of components (and,
// shared across cluster agents, a whole fleet of nodes).
func RegisterContents(reg *assembly.Registry, col *Collector) error {
	for class, factory := range map[string]func() membrane.Content{
		"LoadRelayImpl":        func() membrane.Content { return &relayContent{col: col} },
		"LoadStateMachineImpl": func() membrane.Content { return &smContent{col: col} },
		"LoadReactiveImpl":     func() membrane.Content { return &reactiveContent{col: col} },
		"LoadSinkImpl":         func() membrane.Content { return &sinkContent{col: col} },
	} {
		if err := reg.Register(class, factory); err != nil {
			return err
		}
	}
	return nil
}
