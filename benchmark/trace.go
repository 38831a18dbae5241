package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
)

// Span kinds, one per layer boundary the benchmark's own code wraps.
const (
	kLateness uint8 = iota // intended instant -> actual injection
	kEntry                 // Node.Invoke at the entry component
	kContent               // a relay content's Invoke
	kSend                  // a relay content's Port.Send
	kSink                  // the sink content's Invoke
)

var kindNames = [...]string{"lateness", "entry", "content", "send", "sink"}

// span is one timed interval of one stamp's journey. The stamp is the
// trace id; parent is the index of the span that caused this one (-1
// for a root).
type span struct {
	stamp      int64
	start, end int64
	parent     int32
	kind       uint8
	comp       uint16
}

// tracer holds one round's spans in memory preallocated before the
// round starts, so recording is an atomic increment and a store. Only
// every `every`-th stamp is traced, which bounds the memory a run
// needs; spans that find the buffer full are lost, and their stamps
// count as incomplete.
type tracer struct {
	every int
	spans []span
	n     atomic.Int32
	// last is, per sequence number, the span that the stamp's next
	// span descends from: the entry invocation, then each send.
	last []atomic.Int32
}

func newTracer(capacity, stamps, every int) *tracer {
	return &tracer{every: every, spans: make([]span, capacity), last: make([]atomic.Int32, stamps)}
}

func (t *tracer) traced(seq int) bool { return t != nil && seq >= 0 && seq%t.every == 0 }

// reserve allocates a span slot, or returns -1 when the buffer is full.
func (t *tracer) reserve() int32 {
	if i := t.n.Add(1) - 1; int(i) < len(t.spans) {
		return i
	}
	return -1
}

func (t *tracer) put(id int32, s span) {
	if id >= 0 {
		t.spans[id] = s
	}
}

// recorded returns the spans written; call it after the round's
// goroutines have all been joined.
func (t *tracer) recorded() []span {
	return t.spans[:min(int(t.n.Load()), len(t.spans))]
}

// decomposition is the per-layer split of traced stamps, pooled over
// a run's traced rounds. All durations are in nanoseconds.
type decomposition struct {
	lateness, entryInvoke, entrySelf []int64
	sendLocal, sendLink              []int64
	contentSelf                      []int64
	releaseWait, linkTransit         []int64
	e2e, sum                         []int64
	waitTotal, linkTotal, e2eTotal   int64
	// unfinished stamps never reached the sink; incomplete ones did,
	// but lost spans to a full buffer.
	unfinished, incomplete int
}

// decompose splits every complete traced stamp of one round into its
// layers. A hop's gap (send return -> next content entry) is a release
// wait when both components share a node, and a link transit when
// nodeOf places them apart. The per-stamp sum adds generator lateness,
// the entry invocation, every later content span (each contains its
// send) and every gap; it tiles the stamp's end-to-end latency except
// for the few instructions between a send's return and its content's
// return, which overlap the next gap.
func (d *decomposition) add(spans []span, nodeOf func(comp uint16) int) {
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		sa, sb := &spans[idx[a]], &spans[idx[b]]
		if sa.stamp != sb.stamp {
			return sa.stamp < sb.stamp
		}
		return sa.start < sb.start
	})
	for lo := 0; lo < len(idx); {
		hi := lo
		for hi < len(idx) && spans[idx[hi]].stamp == spans[idx[lo]].stamp {
			hi++
		}
		d.addStamp(spans, idx[lo:hi], nodeOf)
		lo = hi
	}
}

func (d *decomposition) addStamp(spans []span, ids []int, nodeOf func(uint16) int) {
	var (
		late, entry, sink = -1, -1, -1
		contents, sends   []int
	)
	for _, i := range ids {
		switch spans[i].kind {
		case kLateness:
			late = i
		case kEntry:
			entry = i
		case kSink:
			sink = i
		case kContent:
			contents = append(contents, i)
		case kSend:
			sends = append(sends, i)
		}
	}
	if sink < 0 {
		d.unfinished++ // shed or refused on the way: no latency to split
		return
	}
	// A complete chain: lateness, entry, one send per relay content,
	// and a sink.
	if late < 0 || entry < 0 || len(contents) == 0 || len(sends) != len(contents) {
		d.incomplete++
		return
	}
	stamp := spans[late].stamp
	e2e := spans[sink].start - stamp
	sum := dur(spans[late]) + dur(spans[entry])

	d.lateness = append(d.lateness, dur(spans[late]))
	d.entryInvoke = append(d.entryInvoke, dur(spans[entry]))
	d.entrySelf = append(d.entrySelf, dur(spans[entry])-dur(spans[contents[0]]))

	// Contents and sends are in causal order (sorted by start).
	next := append(append([]int(nil), contents[1:]...), sink)
	for k, c := range contents {
		s := sends[k]
		d.contentSelf = append(d.contentSelf, dur(spans[c])-dur(spans[s]))
		if k > 0 {
			sum += dur(spans[c])
		}
		to := spans[next[k]]
		gap := to.start - spans[s].end
		sum += gap
		if nodeOf(spans[c].comp) == nodeOf(to.comp) {
			d.sendLocal = append(d.sendLocal, dur(spans[s]))
			d.releaseWait = append(d.releaseWait, gap)
			d.waitTotal += gap
		} else {
			d.sendLink = append(d.sendLink, dur(spans[s]))
			d.linkTransit = append(d.linkTransit, gap)
			d.linkTotal += gap
		}
	}
	d.e2e = append(d.e2e, e2e)
	d.sum = append(d.sum, sum)
	d.e2eTotal += e2e
}

func dur(s span) int64 { return s.end - s.start }

// writeSpans writes spans as JSON lines, one object per span, with the
// stamp as trace id and span ids numbered per round.
func writeSpans(dir, workload string, rounds [][]span, compName func(uint16) string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Round     int    `json:"round"`
		Trace     int64  `json:"trace"`
		ID        int    `json:"id"`
		Parent    int32  `json:"parent"`
		Kind      string `json:"kind"`
		Component string `json:"component,omitempty"`
		StartNs   int64  `json:"start_ns"`
		EndNs     int64  `json:"end_ns"`
	}
	for r, spans := range rounds {
		for i, s := range spans {
			if err := enc.Encode(line{r, s.stamp, i, s.parent, kindNames[s.kind], compName(s.comp), s.start, s.end}); err != nil {
				f.Close()
				return "", fmt.Errorf("trace file: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	return path, nil
}
