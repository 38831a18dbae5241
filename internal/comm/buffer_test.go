package comm

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"soleil/internal/rtsj/memory"
)

func TestNewBufferValidation(t *testing.T) {
	if _, err := NewBuffer("b", 0, Refuse); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := NewBuffer("b", -1, Refuse); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := NewBuffer("b", 4, OverflowPolicy(9)); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestBufferFIFO(t *testing.T) {
	b, err := NewBuffer("b", 4, Refuse)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := b.Enqueue(i); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != 4 || b.Cap() != 4 || b.Name() != "b" {
		t.Fatal("accessors")
	}
	for i := 0; i < 4; i++ {
		v, ok := b.Dequeue()
		if !ok || v != i {
			t.Fatalf("dequeue %d = %v, %v", i, v, ok)
		}
	}
	if _, ok := b.Dequeue(); ok {
		t.Fatal("dequeue from empty succeeded")
	}
}

func TestBufferRefuse(t *testing.T) {
	b, _ := NewBuffer("b", 2, Refuse)
	_ = b.Enqueue(1)
	_ = b.Enqueue(2)
	err := b.Enqueue(3)
	if !errors.Is(err, ErrFull) {
		t.Fatalf("overflow err = %v", err)
	}
	st := b.Stats()
	if st.Enqueued != 2 || st.Dropped != 1 || st.MaxDepth != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBufferDropOldest(t *testing.T) {
	b, _ := NewBuffer("b", 2, DropOldest)
	for i := 1; i <= 3; i++ {
		if err := b.Enqueue(i); err != nil {
			t.Fatal(err)
		}
	}
	v, _ := b.Dequeue()
	if v != 2 {
		t.Fatalf("after drop-oldest got %v, want 2", v)
	}
	if st := b.Stats(); st.Dropped != 1 {
		t.Fatalf("dropped = %d", st.Dropped)
	}
}

func TestBufferDropNewest(t *testing.T) {
	b, _ := NewBuffer("b", 2, DropNewest)
	for i := 1; i <= 3; i++ {
		if err := b.Enqueue(i); err != nil {
			t.Fatal(err)
		}
	}
	v, _ := b.Dequeue()
	if v != 1 {
		t.Fatalf("after drop-newest got %v, want 1", v)
	}
}

// Property: any interleaving of enqueues and dequeues preserves FIFO
// order and never exceeds capacity.
func TestBufferFIFOProperty(t *testing.T) {
	f := func(ops []bool, cap8 uint8) bool {
		capacity := int(cap8%8) + 1
		b, err := NewBuffer("b", capacity, Refuse)
		if err != nil {
			return false
		}
		next, expect := 0, 0
		for _, enq := range ops {
			if enq {
				if err := b.Enqueue(next); err == nil {
					next++
				} else if !errors.Is(err, ErrFull) {
					return false
				}
			} else if v, ok := b.Dequeue(); ok {
				if v != expect {
					return false
				}
				expect++
			}
			if b.Len() > capacity {
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
	b, err := NewRTBuffer("pl->ms", 10, Refuse, rt.Immortal(), 64)
	if err != nil {
		t.Fatal(err)
	}
	return rt, b
}

func TestNewRTBufferValidation(t *testing.T) {
	rt := memory.NewRuntime()
	if _, err := NewRTBuffer("b", 4, Refuse, nil, 8); err == nil {
		t.Error("nil area accepted")
	}
	s, _ := rt.NewScoped("s", 1024)
	if _, err := NewRTBuffer("b", 4, Refuse, s, 8); err == nil {
		t.Error("scoped area accepted")
	}
	if _, err := NewRTBuffer("b", 4, Refuse, rt.Immortal(), 0); err == nil {
		t.Error("zero slot size accepted")
	}
	if _, err := NewRTBuffer("b", 0, Refuse, rt.Immortal(), 8); err == nil {
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

func TestRTBufferSteadyStateAllocatesNothing(t *testing.T) {
	rt, b := newRT(t)
	ctx, err := memory.NewContext(rt.Immortal(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	before := rt.Immortal().Consumed()
	for i := 0; i < 100; i++ {
		if err := b.Enqueue(ctx, payload{seq: i}); err != nil {
			t.Fatal(err)
		}
		v, ok, err := b.Dequeue(ctx)
		if err != nil || !ok {
			t.Fatalf("dequeue %d: %v, %v", i, ok, err)
		}
		if v.(payload).seq != i {
			t.Fatalf("message %d corrupted: %v", i, v)
		}
	}
	if got := rt.Immortal().Consumed(); got != before {
		t.Fatalf("steady-state consumption changed: %d -> %d", before, got)
	}
	st := b.Stats()
	if st.Enqueued != 100 || st.Dequeued != 100 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRTBufferNoHeapProducerOnHeapBuffer(t *testing.T) {
	rt := memory.NewRuntime()
	b, err := NewRTBuffer("b", 4, Refuse, rt.Heap(), 32)
	if err != nil {
		t.Fatal(err)
	}
	nhrt, err := memory.NewContext(rt.Immortal(), true)
	if err != nil {
		t.Fatal(err)
	}
	defer nhrt.Close()
	var access *memory.MemoryAccessError
	if err := b.Enqueue(nhrt, payload{}); !errors.As(err, &access) {
		t.Fatalf("NHRT enqueue to heap buffer: %v", err)
	}
	// A regular producer works; an NHRT consumer then faults on read.
	reg, err := memory.NewContext(rt.Heap(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if err := b.Enqueue(reg, payload{seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Dequeue(nhrt); !errors.As(err, &access) {
		t.Fatalf("NHRT dequeue from heap buffer: %v", err)
	}
}

func TestRTBufferOverflow(t *testing.T) {
	rt := memory.NewRuntime()
	b, err := NewRTBuffer("b", 2, Refuse, rt.Immortal(), 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := memory.NewContext(rt.Immortal(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	_ = b.Enqueue(ctx, 1)
	_ = b.Enqueue(ctx, 2)
	if err := b.Enqueue(ctx, 3); !errors.Is(err, ErrFull) {
		t.Fatalf("overflow = %v", err)
	}
	if _, ok, _ := b.Dequeue(ctx); !ok {
		t.Fatal("dequeue failed")
	}
	if v, ok, _ := b.Dequeue(ctx); !ok || v != 2 {
		t.Fatalf("order broken: %v", v)
	}
	if _, ok, _ := b.Dequeue(ctx); ok {
		t.Fatal("empty dequeue succeeded")
	}
}

func TestRTBufferDropOldestSlotReuse(t *testing.T) {
	rt := memory.NewRuntime()
	b, err := NewRTBuffer("b", 2, DropOldest, rt.Immortal(), 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := memory.NewContext(rt.Immortal(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	for i := 1; i <= 5; i++ {
		if err := b.Enqueue(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	v1, ok1, _ := b.Dequeue(ctx)
	v2, ok2, _ := b.Dequeue(ctx)
	if !ok1 || !ok2 || v1 != 4 || v2 != 5 {
		t.Fatalf("drop-oldest kept %v, %v; want 4, 5", v1, v2)
	}
}

func TestStatsReportsInstantDepth(t *testing.T) {
	b, _ := NewBuffer("b", 4, Refuse)
	if got := b.Stats().Depth; got != 0 {
		t.Fatalf("empty depth = %d", got)
	}
	_ = b.Enqueue(1)
	_ = b.Enqueue(2)
	_ = b.Enqueue(3)
	if st := b.Stats(); st.Depth != 3 || st.MaxDepth != 3 {
		t.Fatalf("stats = %+v", st)
	}
	b.Dequeue()
	b.Dequeue()
	// Depth tracks the instantaneous length; MaxDepth stays the high
	// watermark.
	if st := b.Stats(); st.Depth != 1 || st.MaxDepth != 3 {
		t.Fatalf("stats after drain = %+v", st)
	}
}

// TestRTBufferConcurrentTransfersExactlyOnce streams values through a
// two-slot ring while the consumer drains it concurrently: every
// value must arrive exactly once and in its producer's order, with one
// producer and with two. A slot reused before its load, or claimed by
// two producers, shows up as a lost message plus a duplicate.
func TestRTBufferConcurrentTransfersExactlyOnce(t *testing.T) {
	const perProducer = 20000
	for _, producers := range []int{1, 2} {
		t.Run(fmt.Sprintf("producers=%d", producers), func(t *testing.T) {
			rt := memory.NewRuntime()
			b, err := NewRTBuffer("b", 2, Refuse, rt.Immortal(), 16)
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
							err := b.Enqueue(ctx, payload{seq: p*perProducer + i})
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
				v, ok, err := b.Dequeue(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					runtime.Gosched()
					continue
				}
				got++
				seq := v.(payload).seq
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
		})
	}
}
