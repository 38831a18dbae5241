package fault

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"soleil/internal/membrane"
)

// PanicInterceptor is a membrane control component that converts
// content panics into failures: the panic is recovered, the
// component's lifecycle flips to FAILED (isolating it from further
// invocations until a supervisor restarts it), and the invocation
// fails with ErrPanic instead of crashing the process.
//
// Deploy it outermost on the server-side chain so panics escaping
// any inner interceptor are caught too. The membrane attaches the
// lifecycle controller automatically (membrane.LifecycleAware).
type PanicInterceptor struct {
	component string
	lc        *membrane.LifecycleController
	recovered int64
}

var (
	_ membrane.Interceptor    = (*PanicInterceptor)(nil)
	_ membrane.LifecycleAware = (*PanicInterceptor)(nil)
)

// NewPanicInterceptor creates the interceptor for one component.
func NewPanicInterceptor(component string) *PanicInterceptor {
	return &PanicInterceptor{component: component}
}

// Name implements membrane.Interceptor.
func (p *PanicInterceptor) Name() string { return "panic-interceptor" }

// AttachLifecycle implements membrane.LifecycleAware.
func (p *PanicInterceptor) AttachLifecycle(lc *membrane.LifecycleController) { p.lc = lc }

// Recovered returns the number of panics converted so far.
func (p *PanicInterceptor) Recovered() int64 { return atomic.LoadInt64(&p.recovered) }

// Invoke implements membrane.Interceptor.
func (p *PanicInterceptor) Invoke(inv *membrane.Invocation, next membrane.Handler) (res any, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		atomic.AddInt64(&p.recovered, 1)
		cause := fmt.Errorf("%w: %s on %s.%s: %v", ErrPanic, p.component, inv.Interface, inv.Op, r)
		if p.lc != nil {
			p.lc.Fail(cause)
		}
		res, err = nil, cause
	}()
	return next(inv)
}

// ChaosInterceptor deliberately panics on a seeded fraction of
// invocations — the invocation-level counterpart of the transport
// Injector, used to drive a system "under injected faults". Pair it
// with a PanicInterceptor deployed outside it.
type ChaosInterceptor struct {
	rate float64
	mu   sync.Mutex
	rng  *rand.Rand
	hits int64
}

var _ membrane.Interceptor = (*ChaosInterceptor)(nil)

// NewChaosInterceptor creates an interceptor panicking on rate of
// invocations, deterministically from seed.
func NewChaosInterceptor(rate float64, seed int64) *ChaosInterceptor {
	return &ChaosInterceptor{rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// Name implements membrane.Interceptor.
func (c *ChaosInterceptor) Name() string { return "chaos-interceptor" }

// Panics returns the number of panics injected so far.
func (c *ChaosInterceptor) Panics() int64 { return atomic.LoadInt64(&c.hits) }

// Invoke implements membrane.Interceptor.
func (c *ChaosInterceptor) Invoke(inv *membrane.Invocation, next membrane.Handler) (any, error) {
	c.mu.Lock()
	hit := c.rng.Float64() < c.rate
	c.mu.Unlock()
	if hit {
		atomic.AddInt64(&c.hits, 1)
		panic(fmt.Sprintf("chaos: injected panic on %s.%s", inv.Interface, inv.Op))
	}
	return next(inv)
}
