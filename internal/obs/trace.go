package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanContext identifies one span within a causal trace. It is the
// value that travels: through membrane invocations, inside
// asynchronous buffer messages, and over distributed binding
// envelopes (two fixed 64-bit fields on the wire, no references).
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context names a real span.
func (c SpanContext) Valid() bool { return c.TraceID != 0 && c.SpanID != 0 }

// idSeq generates process-unique span/trace IDs: a random base (so
// two systems joined by a distributed binding do not collide) plus an
// atomic increment.
var idSeq atomic.Uint64

func init() { idSeq.Store(rand.Uint64()) }

func nextID() uint64 {
	for {
		if id := idSeq.Add(1); id != 0 {
			return id
		}
	}
}

// NewSpanContext derives a child span context from parent, or starts
// a new root trace when parent is invalid. It allocates nothing.
func NewSpanContext(parent SpanContext) SpanContext {
	if parent.Valid() {
		return SpanContext{TraceID: parent.TraceID, SpanID: nextID()}
	}
	return SpanContext{TraceID: nextID(), SpanID: nextID()}
}

// Span kinds, mirroring Chrome trace_event phases.
const (
	// SpanComplete is a duration slice ("X").
	SpanComplete = byte('X')
	// SpanInstant is a zero-duration marker ("i") — scheduler trace
	// events bridge in as instants.
	SpanInstant = byte('i')
)

// Span is one recorded trace event. Name is rendered as
// Interface.Op at export time; keeping the parts separate means
// recording a span performs no string concatenation.
type Span struct {
	Trace  uint64
	ID     uint64
	Parent uint64

	System    string
	Component string
	Interface string
	Op        string

	Start    time.Time
	Duration time.Duration
	Err      bool
	Kind     byte // 0 means SpanComplete
}

// Tracer records completed spans into a fixed ring. Record copies the
// span value into a preallocated slot under a short mutex — no
// allocation — so tracing can stay on in production.
type Tracer struct {
	mu    sync.Mutex
	ring  []Span
	next  int
	total int64
}

// DefaultTraceCapacity is the ring size NewTracer uses for
// capacity <= 0.
const DefaultTraceCapacity = 1 << 14

// NewTracer creates a tracer retaining the last capacity spans.
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{ring: make([]Span, capacity)}
}

// Record stores one span, overwriting the oldest when the ring is
// full.
func (t *Tracer) Record(sp Span) {
	if sp.Kind == 0 {
		sp.Kind = SpanComplete
	}
	t.mu.Lock()
	t.ring[t.next] = sp
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
	}
	t.total++
	t.mu.Unlock()
}

// Total returns how many spans have ever been recorded.
func (t *Tracer) Total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Spans returns the retained spans in record order (oldest first).
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total <= int64(len(t.ring)) {
		out := make([]Span, t.next)
		copy(out, t.ring[:t.next])
		return out
	}
	out := make([]Span, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// --- Chrome trace_event export ----------------------------------------------------

// chromeEvent is one trace_event object. Perfetto and chrome://tracing
// both accept the JSON object format {"traceEvents": [...]}.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// WriteChromeTrace renders the tracer's retained spans as Chrome
// trace_event JSON.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteChromeTrace(w, t.Spans())
}

// WriteChromeTrace renders spans as Chrome trace_event JSON: one
// process lane per system, one thread lane per component, complete
// ("X") slices for invocation spans, instants for bridged scheduler
// events, and flow arrows binding parent to child across lanes — so a
// cross-system call reads as one causal tree in the viewer.
func WriteChromeTrace(w io.Writer, spans []Span) error {
	ordered := make([]Span, len(spans))
	copy(ordered, spans)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Start.Before(ordered[j].Start) })

	var epoch time.Time
	for i, sp := range ordered {
		if i == 0 || sp.Start.Before(epoch) {
			epoch = sp.Start
		}
	}

	pids := make(map[string]int)
	tids := make(map[string]int)
	var events []chromeEvent
	pidOf := func(system string) int {
		if id, ok := pids[system]; ok {
			return id
		}
		id := len(pids) + 1
		pids[system] = id
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: id,
			Args: map[string]any{"name": system},
		})
		return id
	}
	tidOf := func(system, component string) int {
		key := system + "\x00" + component
		if id, ok := tids[key]; ok {
			return id
		}
		id := len(tids) + 1
		tids[key] = id
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: pidOf(system), Tid: id,
			Args: map[string]any{"name": component},
		})
		return id
	}

	byID := make(map[uint64]*Span, len(ordered))
	for i := range ordered {
		if ordered[i].ID != 0 {
			byID[ordered[i].ID] = &ordered[i]
		}
	}

	ts := func(t time.Time) float64 { return float64(t.Sub(epoch)) / float64(time.Microsecond) }
	name := func(sp Span) string {
		if sp.Op == "" {
			return sp.Interface
		}
		return sp.Interface + "." + sp.Op
	}

	for _, sp := range ordered {
		pid, tid := pidOf(sp.System), tidOf(sp.System, sp.Component)
		ev := chromeEvent{
			Name: name(sp),
			Ph:   string(sp.Kind),
			Ts:   ts(sp.Start),
			Pid:  pid,
			Tid:  tid,
		}
		if sp.Kind == SpanComplete || sp.Kind == 0 {
			ev.Ph = "X"
			ev.Dur = float64(sp.Duration) / float64(time.Microsecond)
			ev.Cat = "invoke"
		} else if sp.Kind == SpanInstant {
			ev.Cat = "sched"
			ev.S = "t"
		}
		args := map[string]any{}
		if sp.Trace != 0 {
			args["trace"] = fmt.Sprintf("%016x", sp.Trace)
			args["span"] = fmt.Sprintf("%016x", sp.ID)
		}
		if sp.Parent != 0 {
			args["parent"] = fmt.Sprintf("%016x", sp.Parent)
		}
		if sp.Err {
			args["error"] = true
		}
		if len(args) > 0 {
			ev.Args = args
		}
		events = append(events, ev)

		// A flow arrow from the parent's lane to this span's lane,
		// emitted when the link crosses a component or system boundary
		// (within one lane, nesting already shows the causality).
		if parent := byID[sp.Parent]; parent != nil &&
			(parent.System != sp.System || parent.Component != sp.Component) {
			flowID := fmt.Sprintf("%016x", sp.ID)
			events = append(events,
				chromeEvent{
					Name: "causal", Cat: "flow", Ph: "s", ID: flowID,
					Ts:  ts(parent.Start),
					Pid: pidOf(parent.System), Tid: tidOf(parent.System, parent.Component),
				},
				chromeEvent{
					Name: "causal", Cat: "flow", Ph: "f", BP: "e", ID: flowID,
					Ts:  ts(sp.Start),
					Pid: pid, Tid: tid,
				},
			)
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: events})
}
