package membrane

import (
	"errors"
	"fmt"

	"soleil/internal/comm"
	"soleil/internal/rtsj/sched"
	"soleil/internal/rtsj/thread"
)

// ErrSyncPort is returned by Send on synchronous ports; callers that
// probe a port's direction (e.g. the generic content stub) match it
// with errors.Is and fall back to Call.
var ErrSyncPort = errors.New("membrane: synchronous binding; use Call")

// FirePort wraps a port so that each Send also releases a sporadic
// task when running under the simulated scheduler — the generated
// infrastructure's hook between asynchronous bindings and sporadic
// activation.
type FirePort struct {
	Inner Port
	Task  *sched.Task
}

var _ Port = (*FirePort)(nil)

// Call implements Port.
func (p *FirePort) Call(env *thread.Env, op string, arg any) (any, error) {
	return p.Inner.Call(env, op, arg)
}

// Send implements Port: it forwards and then fires the target task.
func (p *FirePort) Send(env *thread.Env, op string, arg any) error {
	if err := p.Inner.Send(env, op, arg); err != nil {
		return err
	}
	if tc := env.Sched(); tc != nil && p.Task != nil {
		return tc.Fire(p.Task)
	}
	return nil
}

// SyncPort is the client side of a synchronous binding: invocations
// run through the client-side interceptors (e.g. the binding's memory
// interceptor) and then dispatch into the server membrane.
type SyncPort struct {
	target *Membrane
	itf    string
	pre    []Interceptor
}

var _ Port = (*SyncPort)(nil)

// NewSyncPort creates the port for a synchronous binding to the
// server membrane's interface itf.
func NewSyncPort(target *Membrane, itf string, pre ...Interceptor) (*SyncPort, error) {
	if target == nil {
		return nil, fmt.Errorf("membrane: sync port needs a target")
	}
	return &SyncPort{target: target, itf: itf, pre: pre}, nil
}

// Call implements Port.
func (p *SyncPort) Call(env *thread.Env, op string, arg any) (any, error) {
	inv := &Invocation{Interface: p.itf, Op: op, Arg: arg, Env: env}
	return p.runFrom(0, inv)
}

func (p *SyncPort) runFrom(i int, inv *Invocation) (any, error) {
	if i >= len(p.pre) {
		return p.target.Dispatch(inv)
	}
	return p.pre[i].Invoke(inv, func(next *Invocation) (any, error) {
		return p.runFrom(i+1, next)
	})
}

// Send implements Port; synchronous bindings have no asynchronous
// half.
func (p *SyncPort) Send(env *thread.Env, op string, arg any) error {
	return fmt.Errorf("%w (%s)", ErrSyncPort, p.itf)
}

// AsyncStub is the client side of an asynchronous binding: Send
// queues the message on the binding's buffer, which deep-copies its
// argument. Releasing the server is left to the port that wraps the
// stub.
type AsyncStub struct {
	buf *comm.RTBuffer
	itf string
}

var _ Port = (*AsyncStub)(nil)

// NewAsyncStub creates the stub for an asynchronous binding.
func NewAsyncStub(buf *comm.RTBuffer, itf string) (*AsyncStub, error) {
	if buf == nil {
		return nil, fmt.Errorf("membrane: async stub needs a buffer")
	}
	return &AsyncStub{buf: buf, itf: itf}, nil
}

// Send implements Port. The sender's current span rides along in the
// message, so the receiving dispatch parents correctly even though it
// runs later, on the server's thread.
func (p *AsyncStub) Send(env *thread.Env, op string, arg any) error {
	return p.buf.Enqueue(env.Mem(), comm.Message{Interface: p.itf, Op: op, Arg: arg, Trace: env.Span()})
}

// Call implements Port; asynchronous bindings cannot return results.
func (p *AsyncStub) Call(env *thread.Env, op string, arg any) (any, error) {
	return nil, fmt.Errorf("membrane: %s is an asynchronous binding; use Send", p.itf)
}

// AsyncSkeleton is the server side of an asynchronous binding: it
// drains the buffer and dispatches each message into the server
// membrane under the server thread's environment.
//
// Every dispatch goes through one Invocation the skeleton reuses, so
// a drain allocates nothing. That is safe because a skeleton has one
// consumer, its component's driver: the component's thread under the
// simulated scheduler, or the driver of the one Pacer that may run the
// system at a time (a second Pacer's Run is refused). A skeleton must
// not be drained from two goroutines at once.
type AsyncSkeleton struct {
	buf    *comm.RTBuffer
	target *Membrane
	inv    Invocation // the dispatch in progress; zero between dispatches
}

// NewAsyncSkeleton creates the skeleton draining buf into target.
func NewAsyncSkeleton(buf *comm.RTBuffer, target *Membrane) (*AsyncSkeleton, error) {
	if buf == nil || target == nil {
		return nil, fmt.Errorf("membrane: async skeleton needs a buffer and a target")
	}
	return &AsyncSkeleton{buf: buf, target: target}, nil
}

// Buffer returns the drained buffer.
func (s *AsyncSkeleton) Buffer() *comm.RTBuffer { return s.buf }

// DrainOne dequeues and dispatches at most one message. It reports
// whether a message was processed.
func (s *AsyncSkeleton) DrainOne(env *thread.Env) (bool, error) {
	msg, ok, err := s.buf.Dequeue(env.Mem())
	if err != nil || !ok {
		return false, err
	}
	s.inv = Invocation{Interface: msg.Interface, Op: msg.Op, Arg: msg.Arg, Env: env, Trace: msg.Trace}
	_, err = s.target.Dispatch(&s.inv)
	s.inv = Invocation{}
	return true, err
}

// Drain processes queued messages until the buffer is empty,
// returning the number processed.
func (s *AsyncSkeleton) Drain(env *thread.Env) (int, error) {
	n := 0
	for {
		ok, err := s.DrainOne(env)
		if err != nil {
			return n, err
		}
		if !ok {
			return n, nil
		}
		n++
	}
}
