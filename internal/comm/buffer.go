// Package comm implements the communication substrate of the
// framework: the bounded message buffers behind asynchronous bindings
// (the ADL's bufferSize attribute). Every buffer is RTSJ-checked: its
// slots live in a memory area and its transfers follow the deep-copy
// pattern. All three generation modes use it. A message goes in and
// comes out by value, into a box the buffer reuses, so passing one
// allocates nothing once the buffer has reached its deepest queue.
package comm

import (
	"fmt"
	"math"
	"sync"

	"soleil/internal/model"
	"soleil/internal/obs"
	"soleil/internal/patterns"
	"soleil/internal/qos"
	"soleil/internal/rtsj/memory"
)

// ErrFull is returned by Enqueue when the buffer is at capacity (the
// RTSJ arrival queue's default throw behaviour). It wraps the
// framework-wide backpressure sentinel, so errors.Is(err,
// qos.ErrBackpressure) recognizes a full buffer together with every
// other overload rejection.
var ErrFull = fmt.Errorf("comm: buffer full: %w", qos.ErrBackpressure)

// Stats summarizes a buffer's life.
type Stats struct {
	Enqueued int64
	Dequeued int64
	Dropped  int64
	MaxDepth int
	// Depth is the queue length at the moment Stats was taken.
	Depth int
}

// OverflowRate is the fraction of offered messages the buffer
// dropped, in [0,1] — the health signal supervision watches for a
// receiver that cannot keep up.
func (s Stats) OverflowRate() float64 {
	offered := s.Enqueued + s.Dropped
	if offered == 0 {
		return 0
	}
	return float64(s.Dropped) / float64(offered)
}

// Message is the unit an asynchronous binding queues: the target
// interface and operation, the argument, and the sender's span
// context, so the causal trace survives the queue.
type Message struct {
	Interface string
	Op        string
	Arg       any
	Trace     obs.SpanContext
}

// RTBuffer is the bounded FIFO behind an asynchronous binding. Its
// message slots are preallocated in a designated non-scoped memory
// area when the buffer is created — the standard RTSJ discipline for
// immortal memory, whose allocations are permanent — charged to the
// area as one object and reused for the life of the system.
//
// The ring holds pointers to message boxes. A dequeued message's box
// is zeroed and stays in its slot, which is now just behind the head:
// the spare boxes fill the free slots behind the head, and the next
// enqueue moves the one farthest behind to the tail. A new box is made
// only when there is no spare, which happens only while the queue is
// deeper than it has ever been. So a buffer holds as many boxes as its
// high watermark, needs no storage besides its ring, and once that
// depth has been reached, message passing allocates nothing.
//
// Transfers deep-copy a message's argument into and out of its box
// (the deep-copy pattern), and every access is checked against the
// caller's allocation context: a no-heap producer or consumer
// touching a heap-hosted buffer faults, as it would on a real RTSJ
// VM. A full buffer refuses new messages with ErrFull. It is safe for
// concurrent use.
type RTBuffer struct {
	name   string
	region *memory.Ref // the slot array's charge to its area; every access is checked against it

	mu    sync.Mutex
	ring  []*Message // count queued boxes from head, spare boxes in the slots just behind it
	head  int        // next dequeue position
	count int
	spare int // zeroed boxes of dequeued messages, in ring[head-spare:head] cyclically
	stats Stats
}

// NewRTBuffer creates an RT buffer and preallocates its capacity
// slots of slotSize bytes each in area. capacity must lie in
// 1..model.MaxBufferSize, the bound every binding's buffer size obeys.
func NewRTBuffer(name string, capacity int, area *memory.Area, slotSize int64) (*RTBuffer, error) {
	if area == nil {
		return nil, fmt.Errorf("comm: rt buffer %q needs a memory area", name)
	}
	if area.Kind() == memory.Scoped {
		return nil, fmt.Errorf("comm: rt buffer %q cannot live in scoped area %s (its messages would be reclaimed)",
			name, area.Name())
	}
	if slotSize <= 0 {
		return nil, fmt.Errorf("comm: rt buffer %q needs a positive slot size", name)
	}
	if capacity <= 0 || capacity > model.MaxBufferSize {
		return nil, fmt.Errorf("comm: buffer %q needs a capacity in 1..%d, got %d", name, model.MaxBufferSize, capacity)
	}
	if int64(capacity) > math.MaxInt64/slotSize {
		return nil, fmt.Errorf("comm: rt buffer %q: %d slots of %d bytes overflow the area's byte count", name, capacity, slotSize)
	}
	ctx, err := memory.NewContext(area, false)
	if err != nil {
		return nil, err
	}
	defer ctx.Close()
	region, err := ctx.Alloc(int64(capacity)*slotSize, nil)
	if err != nil {
		return nil, fmt.Errorf("comm: preallocating slots of %q: %w", name, err)
	}
	return &RTBuffer{name: name, region: region, ring: make([]*Message, capacity)}, nil
}

// Name returns the buffer name.
func (b *RTBuffer) Name() string { return b.name }

// Area returns the area the buffer's slots live in.
func (b *RTBuffer) Area() *memory.Area { return b.region.Area() }

// Len returns the number of queued messages.
func (b *RTBuffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count
}

// Cap returns the buffer capacity.
func (b *RTBuffer) Cap() int { return len(b.ring) }

// Stats returns a copy of the buffer statistics.
func (b *RTBuffer) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.stats
	s.Depth = b.count
	return s
}

// Enqueue deep-copies m's argument into a box under the producer's
// allocation context and queues it. The check, the store and the
// publish happen in one critical section, so concurrent producers
// never share a box and a consumer never sees a half-written one. A
// full buffer refuses before the producer's context is checked.
func (b *RTBuffer) Enqueue(ctx *memory.Context, m Message) error {
	m.Arg = patterns.CopyValue(m.Arg)
	b.mu.Lock()
	if b.count == len(b.ring) {
		b.stats.Dropped++
		b.mu.Unlock()
		return fmt.Errorf("%w: %s (capacity %d)", ErrFull, b.name, len(b.ring))
	}
	if err := ctx.CheckStore(b.region); err != nil {
		b.mu.Unlock()
		return fmt.Errorf("comm: enqueue on %s: %w", b.name, err)
	}
	var box *Message
	if b.spare > 0 {
		// The spare farthest behind the head borders the free slots
		// that lead to the tail; the others stay where they are.
		from := (b.head - b.spare + len(b.ring)) % len(b.ring)
		box = b.ring[from]
		b.ring[from] = nil
		b.spare--
	} else {
		box = new(Message) // the queue is deeper than ever before
	}
	*box = m
	b.ring[(b.head+b.count)%len(b.ring)] = box
	b.count++
	b.stats.Enqueued++
	if b.count > b.stats.MaxDepth {
		b.stats.MaxDepth = b.count
	}
	b.mu.Unlock()
	return nil
}

// Dequeue removes the oldest message and returns it with its argument
// deep-copied out under the consumer's allocation context, so the
// consumer never holds a reference into the buffer's area. The box is
// read and zeroed before head advances past it and makes it spare, so
// no producer can reuse it mid-read. A load the consumer's context
// forbids still consumes the message: retrying could never succeed.
func (b *RTBuffer) Dequeue(ctx *memory.Context) (Message, bool, error) {
	b.mu.Lock()
	if b.count == 0 {
		b.mu.Unlock()
		return Message{}, false, nil
	}
	err := ctx.CheckLoad(b.region)
	box := b.ring[b.head]
	m := *box
	*box = Message{}
	b.head = (b.head + 1) % len(b.ring)
	b.count--
	b.spare++
	b.stats.Dequeued++
	b.mu.Unlock()
	if err != nil {
		return Message{}, true, fmt.Errorf("comm: dequeue on %s: %w", b.name, err)
	}
	m.Arg = patterns.CopyValue(m.Arg)
	return m, true, nil
}
