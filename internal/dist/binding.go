package dist

import (
	"errors"
	"fmt"
	"sync"

	"soleil/internal/assembly"
	"soleil/internal/membrane"
	"soleil/internal/rtsj/thread"
)

// RemotePort is the client half of a distributed binding: a port
// whose Send serializes the message onto a transport. Distribution is
// asynchronous-only (value messages), matching the deep-copy
// discipline; Call is refused.
type RemotePort struct {
	transport Transport
	itf       string
}

var _ membrane.Port = (*RemotePort)(nil)

// NewRemotePort creates the port for the remote server interface itf.
func NewRemotePort(t Transport, itf string) (*RemotePort, error) {
	if t == nil {
		return nil, fmt.Errorf("dist: remote port needs a transport")
	}
	return &RemotePort{transport: t, itf: itf}, nil
}

// Send implements membrane.Port. The sender's current span rides in
// the envelope so the remote dispatch joins the sender's trace.
func (p *RemotePort) Send(env *thread.Env, op string, arg any) error {
	payload, err := AppendMessage(nil, p.itf, op, arg, env.Span())
	if err != nil {
		return err
	}
	return p.transport.Send(payload)
}

// Call implements membrane.Port.
func (p *RemotePort) Call(env *thread.Env, op string, arg any) (any, error) {
	return nil, fmt.Errorf("dist: distributed bindings are asynchronous; use Send")
}

// Export routes the client interface of a component in sys onto a
// transport: subsequent Sends travel to whatever imports the other
// end.
func Export(sys *assembly.System, client, clientItf, serverItf string, t Transport) error {
	port, err := NewRemotePort(t, serverItf)
	if err != nil {
		return err
	}
	return sys.BindPort(client, clientItf, port)
}

// Importer is the server half: it receives envelopes from a transport
// and dispatches them into a component of the local system under a
// local execution environment.
type Importer struct {
	transport Transport
	node      assembly.Node
	env       *thread.Env
	closeEnv  func()

	mu        sync.Mutex
	delivered int64
	dropped   int64
	onError   func(error) bool

	done chan struct{}
	err  error
}

// Import attaches the transport to the named component of sys.
func Import(sys *assembly.System, server string, t Transport) (*Importer, error) {
	if t == nil {
		return nil, fmt.Errorf("dist: importer needs a transport")
	}
	node, ok := sys.Node(server)
	if !ok {
		return nil, fmt.Errorf("dist: unknown server component %q", server)
	}
	env, closeEnv, err := sys.NewEnv(false)
	if err != nil {
		return nil, err
	}
	return &Importer{
		transport: t,
		node:      node,
		env:       env,
		closeEnv:  closeEnv,
		done:      make(chan struct{}),
	}, nil
}

// Delivered returns the number of messages dispatched so far.
func (i *Importer) Delivered() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.delivered
}

// Dropped returns the number of messages Serve discarded because a
// delivery error was absorbed by the error handler.
func (i *Importer) Dropped() int64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.dropped
}

// SetErrorHandler installs the self-healing hook of the binding:
// when Serve hits a delivery or decode error it consults h, and
// continues pumping if h returns true (the message is counted as
// dropped) instead of terminating. Without a handler — or when h
// returns false — Serve stops on the error, the original behaviour.
// Terminal errors (a poisoned stream, e.g. ErrFrameTooLarge on
// Receive) are also reported through h so a reconnecting owner can
// observe them, but pumping cannot resume: the transport has been
// closed and Serve returns regardless of h's verdict. Install the
// handler before Serve starts.
func (i *Importer) SetErrorHandler(h func(error) bool) { i.onError = h }

// PumpOne receives and dispatches exactly one message. It reports
// false (with a nil error) when the transport has closed.
func (i *Importer) PumpOne() (bool, error) {
	payload, err := i.transport.Receive()
	if errors.Is(err, ErrClosed) {
		return false, nil
	}
	if err != nil {
		if errors.Is(err, ErrFrameTooLarge) {
			// After a framing failure no further frame boundary can be
			// trusted: the stream is poisoned. Close the transport so
			// both ends unblock and reconnect with a fresh stream
			// instead of pumping garbage.
			_ = i.transport.Close()
		}
		return false, err
	}
	// A decode failure (corrupt frame, unregistered payload type)
	// consumes the message but leaves the transport usable: report it
	// with ok=true so a resilient server can absorb it and pump on.
	e, err := decode(payload)
	if err != nil {
		return true, err
	}
	// Adopt the sender's span for the delivery so the local dispatch
	// parents into the remote caller's trace.
	prev := i.env.SetSpan(e.Trace)
	_, err = i.node.Invoke(i.env, e.Interface, e.Op, e.Arg)
	i.env.SetSpan(prev)
	if err != nil {
		return true, fmt.Errorf("dist: deliver %s.%s: %w", e.Interface, e.Op, err)
	}
	i.mu.Lock()
	i.delivered++
	i.mu.Unlock()
	return true, nil
}

// Serve pumps messages until the transport closes, then releases the
// importer's environment. Run it on its own goroutine; Err reports
// the terminal error after done.
func (i *Importer) Serve() {
	defer close(i.done)
	defer i.closeEnv()
	for {
		ok, err := i.PumpOne()
		if err != nil {
			// The handler sees every error; only resumable ones
			// (ok=true) let it keep the pump alive.
			absorbed := i.onError != nil && i.onError(err)
			if ok && absorbed {
				i.mu.Lock()
				i.dropped++
				i.mu.Unlock()
				continue
			}
			i.mu.Lock()
			i.err = err
			i.mu.Unlock()
			return
		}
		if !ok {
			return
		}
	}
}

// Wait blocks until Serve has returned.
func (i *Importer) Wait() { <-i.done }

// Err returns the terminal error of Serve, if any.
func (i *Importer) Err() error {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.err
}

// Close releases the importer's environment; use it when driving the
// importer manually with PumpOne instead of Serve.
func (i *Importer) Close() { i.closeEnv() }
