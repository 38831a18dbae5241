// Package comm implements the communication substrate of the
// framework: the bounded message buffers behind asynchronous bindings
// (the ADL's bufferSize attribute). Every buffer is RTSJ-checked: its
// slots live in a memory area and its transfers follow the deep-copy
// pattern. All three generation modes use it.
package comm

import (
	"fmt"
	"math"
	"sync"

	"soleil/internal/model"
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

// RTBuffer is the bounded FIFO behind an asynchronous binding. Its
// message slots are preallocated in a designated non-scoped memory
// area when the buffer is created — the standard RTSJ discipline for
// immortal memory, whose allocations are permanent — as one slot
// array, charged to the area as one object, and reused for the life
// of the system, so steady-state message passing allocates nothing.
// Transfers deep-copy payloads into and out of the slots (the
// deep-copy pattern), and every access is checked against the
// caller's allocation context: a no-heap producer or consumer
// touching a heap-hosted buffer faults, as it would on a real RTSJ
// VM. A full buffer refuses new messages with ErrFull. It is safe for
// concurrent use.
type RTBuffer struct {
	name   string
	region *memory.Ref // the slot array's charge to its area; every access is checked against it

	mu    sync.Mutex
	ring  []any // the slots
	head  int   // next dequeue position
	count int
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
	return &RTBuffer{name: name, region: region, ring: make([]any, capacity)}, nil
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

// Enqueue deep-copies payload into the tail slot under the producer's
// allocation context and queues it. The check, the store and the
// publish happen in one critical section, so concurrent producers
// never share a slot and a consumer never sees a half-written one. A
// full buffer refuses before the producer's context is checked.
func (b *RTBuffer) Enqueue(ctx *memory.Context, payload any) error {
	v := patterns.CopyValue(payload)
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
	b.ring[(b.head+b.count)%len(b.ring)] = v
	b.count++
	b.stats.Enqueued++
	if b.count > b.stats.MaxDepth {
		b.stats.MaxDepth = b.count
	}
	b.mu.Unlock()
	return nil
}

// Dequeue removes the oldest message and returns its payload,
// deep-copied out under the consumer's allocation context so the
// consumer never holds a reference into the buffer's area. The slot
// is read and cleared before head advances, so no producer can reuse
// it mid-read. A load the consumer's context forbids still consumes
// the message: retrying could never succeed.
func (b *RTBuffer) Dequeue(ctx *memory.Context) (any, bool, error) {
	b.mu.Lock()
	if b.count == 0 {
		b.mu.Unlock()
		return nil, false, nil
	}
	err := ctx.CheckLoad(b.region)
	payload := b.ring[b.head]
	b.ring[b.head] = nil
	b.head = (b.head + 1) % len(b.ring)
	b.count--
	b.stats.Dequeued++
	b.mu.Unlock()
	if err != nil {
		return nil, true, fmt.Errorf("comm: dequeue on %s: %w", b.name, err)
	}
	return patterns.CopyValue(payload), true, nil
}
