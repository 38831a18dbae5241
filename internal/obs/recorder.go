// Flight recorder: an always-on per-node black box. A fixed ring of
// recent notable events — dispatches over budget, deadline misses,
// gate sheds and SLO transitions, lifecycle failures and restarts,
// link reconnects and heartbeat staleness — recorded allocation-free
// from the membrane/qos/cluster hot paths, and dumped when a trigger
// fires (panic, deadline-miss burst, SLO breach, an explicit
// /debug/flightrecorder request, SIGQUIT). Because events carry the
// tracer's SpanContext IDs and a node name, rings dumped from
// several nodes merge into one causally-ordered cluster timeline.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies a flight-recorder event.
type EventKind uint8

// Flight-recorder event kinds.
const (
	EvNone EventKind = iota
	// EvOverBudget: a dispatch ran longer than the component's cost
	// or deadline budget. Value is the latency in nanoseconds.
	EvOverBudget
	// EvDeadlineMiss: the scheduler reported a deadline miss. Value
	// is the component's cumulative miss count.
	EvDeadlineMiss
	// EvGateShed: an admission gate shed a message (sampled — one
	// event per 64 sheds). Value is the cumulative shed count.
	EvGateShed
	// EvGateBreach: a binding SLO transitioned met -> breached.
	// Value is the observed p99 in nanoseconds when known.
	EvGateBreach
	// EvGateRecovered: a binding SLO transitioned breached -> met.
	EvGateRecovered
	// EvRemoteBreach: a propagated server-side digest crossed the
	// contract threshold on the client node. Value is the remote p99
	// in nanoseconds.
	EvRemoteBreach
	// EvRemoteRecovered: the propagated digest dropped back under
	// the threshold.
	EvRemoteRecovered
	// EvLifecycleFailed: a component entered the FAILED state.
	EvLifecycleFailed
	// EvLifecycleRestart: the supervisor restarted a component.
	// Value is the cumulative restart count.
	EvLifecycleRestart
	// EvLifecycleQuarantine: the supervisor quarantined a component.
	EvLifecycleQuarantine
	// EvLinkReconnect: a cluster link writer re-established its
	// session. Value is the cumulative reconnect count.
	EvLinkReconnect
	// EvLinkStale: heartbeat staleness closed a link session.
	EvLinkStale
	// EvDump: a dump trigger fired; Subject is the trigger reason.
	EvDump
	evKindCount // sentinel
)

// evKindNames is indexed by EventKind; a table lookup keeps String
// off fmt and usable from annotated paths.
var evKindNames = [evKindCount]string{
	EvNone:                "none",
	EvOverBudget:          "over-budget",
	EvDeadlineMiss:        "deadline-miss",
	EvGateShed:            "gate-shed",
	EvGateBreach:          "gate-breach",
	EvGateRecovered:       "gate-recovered",
	EvRemoteBreach:        "remote-breach",
	EvRemoteRecovered:     "remote-recovered",
	EvLifecycleFailed:     "lifecycle-failed",
	EvLifecycleRestart:    "lifecycle-restart",
	EvLifecycleQuarantine: "lifecycle-quarantine",
	EvLinkReconnect:       "link-reconnect",
	EvLinkStale:           "link-stale",
	EvDump:                "dump",
}

// String returns the stable kebab-case name of the kind.
//
//soleil:noheap
func (k EventKind) String() string {
	if k < evKindCount {
		return evKindNames[k]
	}
	return "unknown"
}

// parseEventKind inverts String for JSON decoding.
func parseEventKind(s string) EventKind {
	for k := EventKind(0); k < evKindCount; k++ {
		if evKindNames[k] == s {
			return k
		}
	}
	return EvNone
}

// MarshalJSON renders the kind as its stable name.
func (k EventKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses the stable name form.
func (k *EventKind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	*k = parseEventKind(s)
	return nil
}

// Event is one flight-recorder entry. Subject strings are always
// preexisting names (component, binding, link) so recording one is
// pure field assignment — no formatting, no allocation.
type Event struct {
	Seq     uint64    `json:"seq"`
	When    int64     `json:"when"` // unix nanoseconds
	Kind    EventKind `json:"kind"`
	Node    string    `json:"node,omitempty"`
	Subject string    `json:"subject,omitempty"`
	Value   int64     `json:"value,omitempty"`
	Trace   uint64    `json:"trace,omitempty"`
	Span    uint64    `json:"span,omitempty"`
}

// entry is one ring slot: an Event without the node name, which is
// the recorder's own and is stamped on by Events. 64 bytes against
// Event's 80.
type entry struct {
	seq     uint64
	when    int64
	kind    EventKind
	subject string
	value   int64
	trace   uint64
	span    uint64
}

// missBurstCount and missBurstWindow define the automatic trigger:
// this many deadline misses inside one window dumps the ring.
const (
	missBurstCount  = 8
	missBurstWindow = int64(time.Second)
)

// triggerMinInterval rate-limits dumps so a flapping SLO cannot turn
// the recorder into a log flood; suppressed triggers are counted.
const triggerMinInterval = int64(time.Second)

// DefaultRecorderCapacity is the ring size NewRecorder uses for
// capacity <= 0.
const DefaultRecorderCapacity = 4096

// Recorder is the flight recorder. Record copies an event into a
// preallocated ring slot under a short mutex — the same discipline as
// Tracer.Record, proven 0 allocs/op — so it is safe to call from
// //soleil:noheap dispatch and admission paths. All methods are
// nil-receiver safe: unwired subsystems pay a single branch.
type Recorder struct {
	node string

	mu    sync.Mutex
	ring  []entry
	next  int
	seq   uint64
	total int64

	// Deadline-miss burst detection, guarded by mu.
	missWindowStart int64
	missInWindow    int

	lastTrigger atomic.Int64 // unix nanoseconds of the last accepted trigger
	dumps       Counter      // accepted triggers
	suppressed  Counter      // rate-limited triggers

	triggerCh chan string
	stopCh    chan struct{}
	drainOnce sync.Once
	stopOnce  sync.Once
	sink      atomic.Pointer[func(reason string, events []Event)]
}

// NewRecorder creates a flight recorder for one node, retaining the
// last capacity events.
func NewRecorder(node string, capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	return &Recorder{
		node:      node,
		ring:      make([]entry, capacity),
		triggerCh: make(chan string, 4),
		stopCh:    make(chan struct{}),
	}
}

// Node returns the node name events are stamped with.
func (r *Recorder) Node() string {
	if r == nil {
		return ""
	}
	return r.node
}

// Record appends one event to the ring, overwriting the oldest when
// full. A deadline-miss burst (missBurstCount misses within
// missBurstWindow) fires an automatic trigger.
//
//soleil:noheap
func (r *Recorder) Record(kind EventKind, subject string, value int64, sc SpanContext) {
	if r == nil {
		return
	}
	now := time.Now().UnixNano()
	burst := false
	r.mu.Lock()
	r.seq++
	r.ring[r.next] = entry{
		seq: r.seq, when: now, kind: kind, subject: subject,
		value: value, trace: sc.TraceID, span: sc.SpanID,
	}
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
	}
	r.total++
	if kind == EvDeadlineMiss {
		if now-r.missWindowStart > missBurstWindow {
			r.missWindowStart = now
			r.missInWindow = 0
		}
		r.missInWindow++
		if r.missInWindow >= missBurstCount {
			r.missInWindow = 0
			burst = true
		}
	}
	r.mu.Unlock()
	if burst {
		r.Trigger("miss-burst")
	}
}

// Trigger requests a dump of the ring, naming the reason. Triggers
// are rate-limited to one per second (excess ones are counted as
// suppressed) and handled asynchronously by the dump sink goroutine,
// so calling Trigger from a hot path costs an atomic load, one ring
// append and a non-blocking channel send.
//
//soleil:noheap
func (r *Recorder) Trigger(reason string) {
	if r == nil {
		return
	}
	now := time.Now().UnixNano()
	last := r.lastTrigger.Load()
	if now-last < triggerMinInterval || !r.lastTrigger.CompareAndSwap(last, now) {
		r.suppressed.Inc()
		return
	}
	r.dumps.Inc()
	r.Record(EvDump, reason, 0, SpanContext{})
	select {
	case r.triggerCh <- reason:
	default:
	}
}

// SetDumpSink installs fn as the dump handler and starts the drain
// goroutine (once). fn runs on that goroutine — never on the
// recording path — with a snapshot of the ring at drain time.
func (r *Recorder) SetDumpSink(fn func(reason string, events []Event)) {
	if r == nil || fn == nil {
		return
	}
	r.sink.Store(&fn)
	r.drainOnce.Do(func() { go r.drain() })
}

func (r *Recorder) drain() {
	for {
		select {
		case <-r.stopCh:
			return
		case reason := <-r.triggerCh:
			if fn := r.sink.Load(); fn != nil {
				(*fn)(reason, r.Events())
			}
		}
	}
}

// Close stops the dump-sink goroutine, if one was started. The ring
// remains readable.
func (r *Recorder) Close() {
	if r == nil {
		return
	}
	r.stopOnce.Do(func() { close(r.stopCh) })
}

// Total returns how many events have ever been recorded.
func (r *Recorder) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Dumps returns how many triggers were accepted and how many were
// rate-limited away.
func (r *Recorder) Dumps() (accepted, suppressed int64) {
	if r == nil {
		return 0, 0
	}
	return r.dumps.Load(), r.suppressed.Load()
}

// Events returns the retained events in record order (oldest first).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var older []entry // the overwritten half, when the ring has wrapped
	if r.total > int64(len(r.ring)) {
		older = r.ring[r.next:]
	}
	out := make([]Event, 0, len(older)+r.next)
	for _, part := range [2][]entry{older, r.ring[:r.next]} {
		for _, e := range part {
			out = append(out, Event{
				Seq: e.seq, When: e.when, Kind: e.kind, Node: r.node, Subject: e.subject,
				Value: e.value, Trace: e.trace, Span: e.span,
			})
		}
	}
	return out
}

// MergeEvents merges per-node event dumps into one causally-ordered
// timeline: sorted by wall-clock time, ties broken by node and
// sequence so the order is deterministic.
func MergeEvents(batches ...[]Event) []Event {
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	out := make([]Event, 0, n)
	for _, b := range batches {
		out = append(out, b...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].When != out[j].When {
			return out[i].When < out[j].When
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// WriteEventsJSON renders events as a JSON array — the dump format
// served by /debug/flightrecorder and stitched by the coordinator.
func WriteEventsJSON(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// WriteEventsChromeTrace renders a (possibly merged, multi-node)
// event timeline in Chrome trace_event format by bridging each event
// to an instant span: one process lane per node, one thread lane per
// subject, the kind as the instant name, and the original trace/span
// IDs preserved so the timeline aligns with exported invocation
// traces.
func WriteEventsChromeTrace(w io.Writer, events []Event) error {
	spans := make([]Span, 0, len(events))
	for _, ev := range events {
		node := ev.Node
		if node == "" {
			node = "node"
		}
		subject := ev.Subject
		if subject == "" {
			subject = "recorder"
		}
		spans = append(spans, Span{
			Trace:     ev.Trace,
			ID:        ev.Span,
			System:    node,
			Component: subject,
			Interface: ev.Kind.String(),
			Op:        "",
			Start:     time.Unix(0, ev.When),
			Kind:      SpanInstant,
		})
	}
	return WriteChromeTrace(w, spans)
}

// WriteEventsText renders events one per line for terminal
// consumption (SIGQUIT dumps, CI logs).
func WriteEventsText(w io.Writer, events []Event) error {
	for _, ev := range events {
		t := time.Unix(0, ev.When).UTC().Format("15:04:05.000000")
		if _, err := fmt.Fprintf(w, "%s %-12s %-20s %-28s value=%d trace=%016x span=%016x\n",
			t, ev.Node, ev.Kind, ev.Subject, ev.Value, ev.Trace, ev.Span); err != nil {
			return err
		}
	}
	return nil
}
