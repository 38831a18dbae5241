// Package comm implements the communication substrate of the
// framework: the bounded message buffers behind asynchronous bindings
// (the ADL's bufferSize attribute) in two flavours — a plain ring
// buffer used by the hand-written OO baseline and the merged
// generation modes, and an RTSJ-checked buffer whose slots live in a
// memory area and whose transfers follow the deep-copy pattern.
package comm

import (
	"fmt"
	"sync"

	"soleil/internal/patterns"
	"soleil/internal/qos"
	"soleil/internal/rtsj/memory"
)

// ErrFull is returned by Enqueue when the buffer is at capacity and
// the policy is Refuse. It wraps the framework-wide backpressure
// sentinel, so errors.Is(err, qos.ErrBackpressure) recognizes a full
// buffer together with every other overload rejection.
var ErrFull = fmt.Errorf("comm: buffer full: %w", qos.ErrBackpressure)

// OverflowPolicy selects what Enqueue does on a full buffer.
type OverflowPolicy int

// Overflow policies.
const (
	// Refuse rejects the new message with ErrFull (the RTSJ arrival
	// queue's default throw behaviour).
	Refuse OverflowPolicy = iota + 1
	// DropOldest overwrites the oldest queued message.
	DropOldest
	// DropNewest silently discards the new message.
	DropNewest
)

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

// Buffer is a bounded FIFO ring buffer. It is safe for concurrent
// use.
type Buffer struct {
	name     string
	capacity int
	policy   OverflowPolicy

	mu    sync.Mutex
	ring  []any
	head  int // next dequeue position
	count int
	stats Stats
}

// NewBuffer creates a bounded buffer.
func NewBuffer(name string, capacity int, policy OverflowPolicy) (*Buffer, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("comm: buffer %q needs a positive capacity, got %d", name, capacity)
	}
	switch policy {
	case Refuse, DropOldest, DropNewest:
	default:
		return nil, fmt.Errorf("comm: buffer %q has unknown overflow policy %d", name, policy)
	}
	return &Buffer{
		name:     name,
		capacity: capacity,
		policy:   policy,
		ring:     make([]any, capacity),
	}, nil
}

// Name returns the buffer name.
func (b *Buffer) Name() string { return b.name }

// Cap returns the buffer capacity.
func (b *Buffer) Cap() int { return b.capacity }

// Len returns the number of queued messages.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count
}

// Stats returns a copy of the buffer statistics.
func (b *Buffer) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.stats
	s.Depth = b.count
	return s
}

// Enqueue appends v, applying the overflow policy when full.
func (b *Buffer) Enqueue(v any) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.count == b.capacity {
		switch b.policy {
		case Refuse:
			b.stats.Dropped++
			return fmt.Errorf("%w: %s (capacity %d)", ErrFull, b.name, b.capacity)
		case DropNewest:
			b.stats.Dropped++
			return nil
		case DropOldest:
			b.head = (b.head + 1) % b.capacity
			b.count--
			b.stats.Dropped++
		}
	}
	b.ring[(b.head+b.count)%b.capacity] = v
	b.count++
	b.stats.Enqueued++
	if b.count > b.stats.MaxDepth {
		b.stats.MaxDepth = b.count
	}
	return nil
}

// Dequeue removes and returns the oldest message; ok is false when the
// buffer is empty.
func (b *Buffer) Dequeue() (v any, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.count == 0 {
		return nil, false
	}
	v = b.ring[b.head]
	b.ring[b.head] = nil
	b.head = (b.head + 1) % b.capacity
	b.count--
	b.stats.Dequeued++
	return v, true
}

// RTBuffer is the RTSJ-conscious buffer used by the generated
// infrastructure. All message slots are preallocated in a designated
// non-scoped memory area when the buffer is created — the standard
// RTSJ discipline for immortal memory, whose allocations are
// permanent — and reused for the life of the system, so steady-state
// message passing allocates nothing. Transfers deep-copy payloads
// into and out of the slots (the deep-copy pattern), and every access
// is checked against the caller's allocation context: a no-heap
// producer or consumer touching a heap-hosted buffer faults, as it
// would on a real RTSJ VM.
type RTBuffer struct {
	buf   *Buffer
	area  *memory.Area
	slots []*memory.Ref
}

// NewRTBuffer creates an RT buffer and preallocates its capacity
// slots of slotSize bytes each in area.
func NewRTBuffer(name string, capacity int, policy OverflowPolicy, area *memory.Area, slotSize int64) (*RTBuffer, error) {
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
	b, err := NewBuffer(name, capacity, policy)
	if err != nil {
		return nil, err
	}
	ctx, err := memory.NewContext(area, false)
	if err != nil {
		return nil, err
	}
	defer ctx.Close()
	rb := &RTBuffer{buf: b, area: area, slots: make([]*memory.Ref, capacity)}
	for i := range rb.slots {
		ref, err := ctx.Alloc(slotSize, nil)
		if err != nil {
			return nil, fmt.Errorf("comm: preallocating slots of %q: %w", name, err)
		}
		rb.slots[i] = ref
	}
	return rb, nil
}

// Name returns the buffer name.
func (b *RTBuffer) Name() string { return b.buf.name }

// Area returns the area the buffer's slots live in.
func (b *RTBuffer) Area() *memory.Area { return b.area }

// Len returns the number of queued messages.
func (b *RTBuffer) Len() int { return b.buf.Len() }

// Cap returns the buffer capacity.
func (b *RTBuffer) Cap() int { return b.buf.capacity }

// Stats returns the underlying buffer statistics.
func (b *RTBuffer) Stats() Stats { return b.buf.Stats() }

// Enqueue deep-copies payload into a preallocated slot under the
// producer's allocation context and queues the slot. The store and
// the publish happen in one critical section, so concurrent producers
// never share a slot and a consumer never sees a half-written one.
func (b *RTBuffer) Enqueue(ctx *memory.Context, payload any) error {
	v := patterns.CopyValue(payload)
	q := b.buf
	q.mu.Lock()
	full := q.count == q.capacity
	if full && q.policy != DropOldest {
		q.stats.Dropped++
		q.mu.Unlock()
		if q.policy == Refuse {
			return fmt.Errorf("%w: %s (capacity %d)", ErrFull, q.name, q.capacity)
		}
		return nil
	}
	// The tail slot; on a full DropOldest ring it is the oldest
	// message's, which the store overwrites.
	if err := ctx.Store(b.slots[(q.head+q.count)%q.capacity], v); err != nil {
		q.mu.Unlock()
		return fmt.Errorf("comm: enqueue on %s: %w", q.name, err)
	}
	if full {
		q.head = (q.head + 1) % q.capacity
		q.stats.Dropped++
	} else {
		q.count++
	}
	q.stats.Enqueued++
	if q.count > q.stats.MaxDepth {
		q.stats.MaxDepth = q.count
	}
	q.mu.Unlock()
	return nil
}

// Dequeue removes the oldest message and returns its payload,
// deep-copied out under the consumer's allocation context so the
// consumer never holds a reference into the buffer's area. The slot
// is loaded before head advances, so no producer can reuse it
// mid-read. A load the consumer's context forbids still consumes the
// message: retrying could never succeed.
func (b *RTBuffer) Dequeue(ctx *memory.Context) (any, bool, error) {
	q := b.buf
	q.mu.Lock()
	if q.count == 0 {
		q.mu.Unlock()
		return nil, false, nil
	}
	payload, err := ctx.Load(b.slots[q.head])
	q.head = (q.head + 1) % q.capacity
	q.count--
	q.stats.Dequeued++
	q.mu.Unlock()
	if err != nil {
		return nil, true, fmt.Errorf("comm: dequeue on %s: %w", q.name, err)
	}
	return patterns.CopyValue(payload), true, nil
}
