// Package fault is the framework's fault-tolerance subsystem. The
// membrane reifies non-functional concerns as runtime controllers;
// this package extends that discipline to *failure*, following the
// contract-aware component argument (Beugnard et al.) that a
// component framework must also enforce what happens when a component
// violates its behavioural contract:
//
//   - Injector wraps a dist transport with deterministic, seeded
//     fault injection (drop / delay / duplicate / corrupt) so failure
//     scenarios replay exactly;
//   - PanicInterceptor converts content panics into a FAILED
//     lifecycle state instead of crashing the process; the lifecycle
//     controller counts the failure and records it in the flight
//     recorder;
//   - RetryPort, TimeoutPort and BreakerPort harden distributed
//     bindings with exponential backoff, per-call deadlines and a
//     circuit breaker;
//   - Supervisor polls per-component health probes (FAILED lifecycle,
//     queue overflow rate, deadline misses, latency) and applies
//     restart policies (one-for-one restart, quarantine, escalate)
//     through the reconfiguration manager.
package fault

import "errors"

// ErrPanic wraps a recovered component panic.
var ErrPanic = errors.New("fault: component panicked")
