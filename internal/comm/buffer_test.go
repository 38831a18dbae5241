package comm

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"soleil/internal/obs"
	"soleil/internal/rtsj/memory"
)

func TestNewBufferValidation(t *testing.T) {
	rt := memory.NewRuntime()
	if _, err := NewRTBuffer("b", -1, rt.Immortal(), 8); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := NewRTBuffer("b", 1<<16, rt.Immortal(), math.MaxInt64/1000); err == nil {
		t.Error("slot region overflowing int64 accepted")
	}
}

// TestNewBufferRefusesHugeCapacity: the heap accepts any region charge,
// so only the capacity bound stands between a huge declared size and a
// slot ring make cannot allocate.
func TestNewBufferRefusesHugeCapacity(t *testing.T) {
	rt := memory.NewRuntime()
	if _, err := NewRTBuffer("b", math.MaxInt, rt.Heap(), 1); err == nil {
		t.Fatal("a MaxInt-slot heap buffer was accepted")
	}
	if _, err := NewRTBuffer("b", math.MaxInt/4, rt.Immortal(), 8); err == nil {
		t.Fatal("a capacity above the bound was accepted")
	}
}

// immortalBuffer returns a buffer in immortal memory and a regular
// context to drive it with.
func immortalBuffer(t *testing.T, capacity int) (*RTBuffer, *memory.Context) {
	t.Helper()
	rt := memory.NewRuntime()
	b, err := NewRTBuffer("b", capacity, rt.Immortal(), 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := memory.NewContext(rt.Immortal(), false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctx.Close)
	return b, ctx
}

func TestBufferFIFO(t *testing.T) {
	b, ctx := immortalBuffer(t, 4)
	for i := 0; i < 4; i++ {
		if err := b.Enqueue(ctx, Message{Arg: i}); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != 4 || b.Cap() != 4 || b.Name() != "b" {
		t.Fatal("accessors")
	}
	for i := 0; i < 4; i++ {
		m, ok, err := b.Dequeue(ctx)
		if err != nil || !ok || m.Arg != i {
			t.Fatalf("dequeue %d = %v, %v, %v", i, m, ok, err)
		}
	}
	if _, ok, _ := b.Dequeue(ctx); ok {
		t.Fatal("dequeue from empty succeeded")
	}
}

func TestBufferRefuse(t *testing.T) {
	b, ctx := immortalBuffer(t, 2)
	_ = b.Enqueue(ctx, Message{Arg: 1})
	_ = b.Enqueue(ctx, Message{Arg: 2})
	err := b.Enqueue(ctx, Message{Arg: 3})
	if !errors.Is(err, ErrFull) {
		t.Fatalf("overflow err = %v", err)
	}
	st := b.Stats()
	if st.Enqueued != 2 || st.Dropped != 1 || st.MaxDepth != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// Property: any interleaving of enqueues and dequeues preserves FIFO
// order, never exceeds capacity and leaves the buffer holding exactly
// as many boxes as its high watermark.
func TestBufferFIFOProperty(t *testing.T) {
	rt := memory.NewRuntime()
	ctx, err := memory.NewContext(rt.Immortal(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	f := func(ops []bool, cap8 uint8) bool {
		capacity := int(cap8%8) + 1
		b, err := NewRTBuffer("b", capacity, rt.Immortal(), 16)
		if err != nil {
			return false
		}
		next, expect := 0, 0
		for _, enq := range ops {
			if enq {
				if err := b.Enqueue(ctx, Message{Arg: next}); err == nil {
					next++
				} else if !errors.Is(err, ErrFull) {
					return false
				}
			} else if m, ok, err := b.Dequeue(ctx); err != nil {
				return false
			} else if ok {
				if m.Arg != expect {
					return false
				}
				expect++
			}
			if b.Len() > capacity || boxes(b) != b.Stats().MaxDepth {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// --- RTBuffer -------------------------------------------------------------------

type payload struct {
	seq  int
	data [4]byte
}

func newRT(t *testing.T) (*memory.Runtime, *RTBuffer) {
	t.Helper()
	rt := memory.NewRuntime()
	b, err := NewRTBuffer("pl->ms", 10, rt.Immortal(), 64)
	if err != nil {
		t.Fatal(err)
	}
	return rt, b
}

func TestNewRTBufferValidation(t *testing.T) {
	rt := memory.NewRuntime()
	if _, err := NewRTBuffer("b", 4, nil, 8); err == nil {
		t.Error("nil area accepted")
	}
	s, _ := rt.NewScoped("s", 1024)
	if _, err := NewRTBuffer("b", 4, s, 8); err == nil {
		t.Error("scoped area accepted")
	}
	if _, err := NewRTBuffer("b", 4, rt.Immortal(), 0); err == nil {
		t.Error("zero slot size accepted")
	}
	if _, err := NewRTBuffer("b", 0, rt.Immortal(), 8); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestRTBufferPreallocatesSlots(t *testing.T) {
	rt, b := newRT(t)
	if got := rt.Immortal().Consumed(); got != 10*64 {
		t.Fatalf("preallocated bytes = %d, want 640", got)
	}
	if b.Area() != rt.Immortal() || b.Cap() != 10 || b.Name() != "pl->ms" {
		t.Fatal("accessors")
	}
}

// TestNewRTBufferAllocsIndependentOfCapacity pins the slot storage
// to a fixed number of heap allocations, as an RTSJ slot array is one
// immortal object however many slots it has.
func TestNewRTBufferAllocsIndependentOfCapacity(t *testing.T) {
	rt := memory.NewRuntime()
	allocs := func(capacity int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := NewRTBuffer("b", capacity, rt.Immortal(), 64); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := allocs(1), allocs(256); one != many {
		t.Fatalf("NewRTBuffer makes %v allocations at capacity 1 but %v at capacity 256", one, many)
	}
}

// TestRTBufferSteadyStateAllocatesNothing: once a buffer has held its
// deepest queue, passing a message charges its area nothing more and
// makes no Go allocation, the argument's deep copies included.
func TestRTBufferSteadyStateAllocatesNothing(t *testing.T) {
	rt, b := newRT(t)
	ctx, err := memory.NewContext(rt.Immortal(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	before := rt.Immortal().Consumed()
	for i := 0; i < 100; i++ {
		if err := b.Enqueue(ctx, Message{Interface: "i", Op: "put", Arg: payload{seq: i}}); err != nil {
			t.Fatal(err)
		}
		m, ok, err := b.Dequeue(ctx)
		if err != nil || !ok {
			t.Fatalf("dequeue %d: %v, %v", i, ok, err)
		}
		if m.Arg.(payload).seq != i || m.Interface != "i" || m.Op != "put" {
			t.Fatalf("message %d corrupted: %+v", i, m)
		}
	}
	if got := rt.Immortal().Consumed(); got != before {
		t.Fatalf("steady-state consumption changed: %d -> %d", before, got)
	}
	st := b.Stats()
	if st.Enqueued != 100 || st.Dequeued != 100 {
		t.Fatalf("stats = %+v", st)
	}
	msg := Message{Interface: "i", Op: "put", Arg: any(copied{n: 1}), Trace: obs.SpanContext{TraceID: 1, SpanID: 2}}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := b.Enqueue(ctx, msg); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := b.Dequeue(ctx); err != nil || !ok {
			t.Fatal(ok, err)
		}
	}); allocs != 0 {
		t.Fatalf("a steady-state transfer makes %v Go allocations, want 0", allocs)
	}
}

// copied is a Copier argument that counts its deep copies. A copy is
// one small integer, which Go boxes without allocating, so any
// allocation the steady-state test sees is the buffer's own.
type copied struct{ n int }

func (c copied) DeepCopy() any { return copied{n: c.n + 1} }

// tracked is a Copier argument that owns memory: a copy must not share
// its slice with the original.
type tracked struct {
	data  []int
	nCopy int
}

func (c tracked) DeepCopy() any {
	return tracked{data: append([]int(nil), c.data...), nCopy: c.nCopy + 1}
}

// TestRTBufferDeepCopiesArg: a message's argument is deep-copied on the
// way in and again on the way out, so neither the producer's nor the
// consumer's reference aliases the one the buffer held. The other
// fields pass through unchanged, and an argument that is not a Copier
// passes as it is.
func TestRTBufferDeepCopiesArg(t *testing.T) {
	b, ctx := immortalBuffer(t, 2)
	span := obs.SpanContext{TraceID: 7, SpanID: 9}
	orig := tracked{data: []int{1}}
	if err := b.Enqueue(ctx, Message{Interface: "i", Op: "o", Arg: orig, Trace: span}); err != nil {
		t.Fatal(err)
	}
	orig.data[0] = 99 // the producer reuses its memory after the send
	m, ok, err := b.Dequeue(ctx)
	if err != nil || !ok {
		t.Fatalf("dequeue = %v, %v", ok, err)
	}
	if m.Interface != "i" || m.Op != "o" || m.Trace != span {
		t.Fatalf("message = %+v", m)
	}
	got, isTracked := m.Arg.(tracked)
	if !isTracked || got.nCopy != 2 {
		t.Fatalf("argument %#v: want a tracked value copied twice, in and out", m.Arg)
	}
	if got.data[0] != 1 {
		t.Fatalf("argument aliases the producer's memory: %v", got.data)
	}
	if err := b.Enqueue(ctx, Message{Arg: 42}); err != nil {
		t.Fatal(err)
	}
	if m, _, _ := b.Dequeue(ctx); m.Arg != 42 {
		t.Fatalf("plain argument = %v", m.Arg)
	}
}

// boxes counts the message boxes b holds, queued or spare.
func boxes(b *RTBuffer) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count + b.spare
}

// TestRTBufferBoxesBoundedByDepth: a buffer makes a box only when its
// queue is deeper than ever before, so after bursts of depth at most d
// it holds at most d boxes, however many messages passed through and
// wherever in the ring they sat.
func TestRTBufferBoxesBoundedByDepth(t *testing.T) {
	b, ctx := immortalBuffer(t, 64)
	if n := boxes(b); n != 0 {
		t.Fatalf("a new buffer holds %d boxes, want 0", n)
	}
	const d = 5
	for round, depth := range []int{d, 3, 1, d, 2, d, 4} {
		for i := 0; i < depth; i++ {
			if err := b.Enqueue(ctx, Message{Arg: i}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < depth; i++ {
			if m, ok, err := b.Dequeue(ctx); err != nil || !ok || m.Arg != i {
				t.Fatalf("round %d, message %d = %v, %v, %v", round, i, m, ok, err)
			}
		}
		if n := boxes(b); n > d {
			t.Fatalf("round %d: %d boxes after bursts of depth <= %d", round, n, d)
		}
	}
	if n, hw := boxes(b), b.Stats().MaxDepth; n != hw {
		t.Fatalf("%d boxes, high watermark %d", n, hw)
	}
}

func TestRTBufferNoHeapProducerOnHeapBuffer(t *testing.T) {
	rt := memory.NewRuntime()
	b, err := NewRTBuffer("b", 4, rt.Heap(), 32)
	if err != nil {
		t.Fatal(err)
	}
	nhrt, err := memory.NewContext(rt.Immortal(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer nhrt.Close()
	var access *memory.MemoryAccessError
	if err := b.Enqueue(nhrt, Message{Arg: payload{}}); !errors.As(err, &access) {
		t.Fatalf("NHRT enqueue to heap buffer: %v", err)
	}
	// A regular producer works; an NHRT consumer then faults on read.
	reg, err := memory.NewContext(rt.Heap(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := b.Enqueue(reg, Message{Arg: payload{seq: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Dequeue(nhrt); !errors.As(err, &access) {
		t.Fatalf("NHRT dequeue from heap buffer: %v", err)
	}
	// The forbidden load consumed its message: retrying could never
	// succeed.
	if n := b.Len(); n != 0 {
		t.Fatalf("faulted dequeue left %d messages queued", n)
	}
	// A full buffer refuses before the producer's context is checked.
	for i := 0; i < b.Cap(); i++ {
		if err := b.Enqueue(reg, Message{Arg: payload{seq: i}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Enqueue(nhrt, Message{Arg: payload{}}); !errors.Is(err, ErrFull) {
		t.Fatalf("NHRT enqueue to a full heap buffer: %v, want ErrFull", err)
	}
}

func TestRTBufferOverflow(t *testing.T) {
	rt := memory.NewRuntime()
	b, err := NewRTBuffer("b", 2, rt.Immortal(), 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := memory.NewContext(rt.Immortal(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	_ = b.Enqueue(ctx, Message{Arg: 1})
	_ = b.Enqueue(ctx, Message{Arg: 2})
	if err := b.Enqueue(ctx, Message{Arg: 3}); !errors.Is(err, ErrFull) {
		t.Fatalf("overflow = %v", err)
	}
	if _, ok, _ := b.Dequeue(ctx); !ok {
		t.Fatal("dequeue failed")
	}
	if m, ok, _ := b.Dequeue(ctx); !ok || m.Arg != 2 {
		t.Fatalf("order broken: %v", m)
	}
	if _, ok, _ := b.Dequeue(ctx); ok {
		t.Fatal("empty dequeue succeeded")
	}
}

func TestStatsReportsInstantDepth(t *testing.T) {
	b, ctx := immortalBuffer(t, 4)
	if got := b.Stats().Depth; got != 0 {
		t.Fatalf("empty depth = %d", got)
	}
	_ = b.Enqueue(ctx, Message{Arg: 1})
	_ = b.Enqueue(ctx, Message{Arg: 2})
	_ = b.Enqueue(ctx, Message{Arg: 3})
	if st := b.Stats(); st.Depth != 3 || st.MaxDepth != 3 {
		t.Fatalf("stats = %+v", st)
	}
	_, _, _ = b.Dequeue(ctx)
	_, _, _ = b.Dequeue(ctx)
	// Depth tracks the instantaneous length; MaxDepth stays the high
	// watermark.
	if st := b.Stats(); st.Depth != 1 || st.MaxDepth != 3 {
		t.Fatalf("stats after drain = %+v", st)
	}
}

// TestRTBufferConcurrentTransfersExactlyOnce streams values through a
// two-slot ring while the consumer drains it concurrently: every
// value must arrive exactly once and in its producer's order, with
// one, two and three producers. A box reused before its load, or
// claimed by two producers, shows up as a lost message plus a
// duplicate. However the producers race, the buffer never holds more
// boxes than slots.
func TestRTBufferConcurrentTransfersExactlyOnce(t *testing.T) {
	const perProducer = 20000
	for _, producers := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("producers=%d", producers), func(t *testing.T) {
			rt := memory.NewRuntime()
			b, err := NewRTBuffer("b", 2, rt.Immortal(), 16)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				ctx, err := memory.NewContext(rt.Immortal(), false)
				if err != nil {
					t.Fatal(err)
				}
				defer ctx.Close()
				wg.Add(1)
				go func(p int, ctx *memory.Context) {
					defer wg.Done()
					for i := 0; i < perProducer; i++ {
						for {
							// Waiting for room first keeps refusals, and
							// their formatted errors, rare.
							for b.Len() == b.Cap() {
								runtime.Gosched()
							}
							err := b.Enqueue(ctx, Message{Arg: p*perProducer + i})
							if err == nil {
								break
							}
							if !errors.Is(err, ErrFull) {
								t.Errorf("producer %d: %v", p, err)
								return
							}
						}
					}
				}(p, ctx)
			}
			ctx, err := memory.NewContext(rt.Immortal(), false)
			if err != nil {
				t.Fatal(err)
			}
			defer ctx.Close()
			next := make([]int, producers)
			bad := 0
			for got := 0; got < producers*perProducer; {
				m, ok, err := b.Dequeue(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					runtime.Gosched()
					continue
				}
				got++
				seq := m.Arg.(int)
				p, i := seq/perProducer, seq%perProducer
				if i != next[p] {
					bad++
				}
				next[p] = i + 1
			}
			wg.Wait()
			if bad > 0 {
				t.Fatalf("%d of %d deliveries out of order, lost or duplicated", bad, producers*perProducer)
			}
			if st := b.Stats(); st.Enqueued != int64(producers*perProducer) || st.Depth != 0 {
				t.Fatalf("stats = %+v", st)
			}
			if n := boxes(b); n > b.Cap() {
				t.Fatalf("%d boxes in a %d-slot buffer", n, b.Cap())
			}
		})
	}
}

// BenchmarkRTBufferHotPath is one message, as an asynchronous binding
// queues it, through an immortal buffer under a no-heap context: the
// steady state of the binding. make benchcheck holds it at 0
// allocs/op.
func BenchmarkRTBufferHotPath(b *testing.B) {
	rt := memory.NewRuntime()
	buf, err := NewRTBuffer("b", 256, rt.Immortal(), 64)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := memory.NewContext(rt.Immortal(), true)
	if err != nil {
		b.Fatal(err)
	}
	defer ctx.Close()
	msg := Message{Interface: "iMonitor", Op: "report", Arg: any(payload{seq: 1}), Trace: obs.SpanContext{TraceID: 1, SpanID: 2}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := buf.Enqueue(ctx, msg); err != nil {
			b.Fatal(err)
		}
		if _, ok, err := buf.Dequeue(ctx); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}
