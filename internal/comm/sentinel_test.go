package comm

import (
	"errors"
	"fmt"
	"testing"

	"soleil/internal/qos"
	"soleil/internal/rtsj/memory"
)

// TestErrFullUnwrapsToBackpressure pins the sentinel chain the whole
// framework relies on: a full buffer is a backpressure event, so
// callers watching qos.ErrBackpressure see it without importing comm.
func TestErrFullUnwrapsToBackpressure(t *testing.T) {
	if !errors.Is(ErrFull, qos.ErrBackpressure) {
		t.Fatal("ErrFull must unwrap to qos.ErrBackpressure")
	}
}

// TestErrFullMatchesThroughWrapping is the regression test for the
// error-comparison audit: Enqueue annotates ErrFull with the buffer
// name and capacity via %w, and callers often wrap again. errors.Is
// must keep matching through both layers — and the test documents why
// a bare == comparison is a bug, not a style choice.
func TestErrFullMatchesThroughWrapping(t *testing.T) {
	once := fmt.Errorf("%w: telemetry (capacity 8)", ErrFull)
	twice := fmt.Errorf("send: %w", once)

	for _, err := range []error{once, twice} {
		if !errors.Is(err, ErrFull) {
			t.Errorf("errors.Is(%v, ErrFull) = false", err)
		}
		if !errors.Is(err, qos.ErrBackpressure) {
			t.Errorf("errors.Is(%v, qos.ErrBackpressure) = false", err)
		}
		if err == ErrFull { //nolint:errorlint // deliberate: proving == fails
			t.Errorf("wrapped error compares == to ErrFull; wrapping is broken")
		}
	}
}

// TestEnqueueErrorIdentity drives a real buffer to capacity and checks
// the error it returns matches through errors.Is even though Enqueue
// returns a wrapped, annotated value rather than the bare sentinel.
func TestEnqueueErrorIdentity(t *testing.T) {
	rt := memory.NewRuntime()
	b, err := NewRTBuffer("sentinel", 1, rt.Immortal(), 16)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := memory.NewContext(rt.Immortal(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer ctx.Close()
	if err := b.Enqueue(ctx, Message{Arg: "a"}); err != nil {
		t.Fatalf("first enqueue: %v", err)
	}
	err = b.Enqueue(ctx, Message{Arg: "b"})
	if err == nil {
		t.Fatal("second enqueue on a capacity-1 buffer must fail")
	}
	if err == ErrFull { //nolint:errorlint // deliberate: proving == fails
		t.Error("Enqueue returned the bare sentinel; annotation was lost")
	}
	if !errors.Is(err, ErrFull) || !errors.Is(err, qos.ErrBackpressure) {
		t.Errorf("Enqueue error %v must unwrap to ErrFull and qos.ErrBackpressure", err)
	}
}
