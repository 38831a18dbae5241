package model

import "fmt"

// Protocol is the interaction style of a binding.
type Protocol int

// Binding protocols.
const (
	// Synchronous bindings are direct method invocations.
	Synchronous Protocol = iota + 1
	// Asynchronous bindings decouple caller and callee through a
	// bounded message buffer (the ADL's bufferSize).
	Asynchronous
)

// String returns the ADL spelling.
func (p Protocol) String() string {
	switch p {
	case Synchronous:
		return "synchronous"
	case Asynchronous:
		return "asynchronous"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// ParseProtocol parses the ADL spelling.
func ParseProtocol(s string) (Protocol, error) {
	switch s {
	case "synchronous", "sync":
		return Synchronous, nil
	case "asynchronous", "async":
		return Asynchronous, nil
	default:
		return 0, fmt.Errorf("model: unknown binding protocol %q", s)
	}
}

// Endpoint identifies one side of a binding: a component and one of
// its interfaces.
type Endpoint struct {
	Component string
	Interface string
}

func (e Endpoint) String() string { return e.Component + "." + e.Interface }

// MaxBufferSize bounds an asynchronous binding's buffer capacity.
// A buffer preallocates all of its slots at deploy time, so an
// unbounded size would turn one ADL attribute into an allocation the
// runtime cannot satisfy; the bound sits far above every size a
// synthesized or shipped architecture declares (the load synthesizer
// defaults to 256).
const MaxBufferSize = 1 << 16

// Binding connects a client interface to a server interface.
type Binding struct {
	Client   Endpoint
	Server   Endpoint
	Protocol Protocol
	// BufferSize is the message buffer capacity of asynchronous
	// bindings, in 1..MaxBufferSize.
	BufferSize int
	// Pattern optionally names the cross-scope communication pattern
	// the memory interceptor must deploy (chosen at design time per
	// Sect. 3.1); empty means "no cross-scope machinery needed" or
	// "let the validator choose".
	Pattern string
	// Contract, when set, is the binding's QoS contract (the ADL's
	// <Contract> element): latency budget, admission rate and overload
	// policy. The validator checks its feasibility (RT16/RT17) and the
	// assembly deploys an admission gate enforcing it.
	Contract *Contract
}

func (b *Binding) String() string {
	return fmt.Sprintf("%s -> %s (%s)", b.Client, b.Server, b.Protocol)
}

// Bind records a binding between a client interface and a server
// interface, after structural checks: both endpoints must exist, with
// the right roles and matching signatures, and a client interface can
// be bound at most once.
func (a *Architecture) Bind(b Binding) (*Binding, error) {
	cli, ok := a.components[b.Client.Component]
	if !ok {
		return nil, fmt.Errorf("model: binding client component %q not found", b.Client.Component)
	}
	srv, ok := a.components[b.Server.Component]
	if !ok {
		return nil, fmt.Errorf("model: binding server component %q not found", b.Server.Component)
	}
	cliItf, ok := cli.Interface(b.Client.Interface)
	if !ok {
		return nil, fmt.Errorf("model: binding client interface %s not found", b.Client)
	}
	srvItf, ok := srv.Interface(b.Server.Interface)
	if !ok {
		return nil, fmt.Errorf("model: binding server interface %s not found", b.Server)
	}
	if cliItf.Role != ClientRole {
		return nil, fmt.Errorf("model: %s is not a client interface", b.Client)
	}
	if srvItf.Role != ServerRole {
		return nil, fmt.Errorf("model: %s is not a server interface", b.Server)
	}
	if cliItf.Signature != srvItf.Signature {
		return nil, fmt.Errorf("model: binding %s -> %s has mismatched signatures %q vs %q",
			b.Client, b.Server, cliItf.Signature, srvItf.Signature)
	}
	switch b.Protocol {
	case Synchronous:
		if b.BufferSize != 0 {
			return nil, fmt.Errorf("model: synchronous binding %s -> %s cannot have a buffer",
				b.Client, b.Server)
		}
	case Asynchronous:
		if b.BufferSize <= 0 {
			return nil, fmt.Errorf("model: asynchronous binding %s -> %s needs a positive buffer size",
				b.Client, b.Server)
		}
		if b.BufferSize > MaxBufferSize {
			return nil, fmt.Errorf("model: asynchronous binding %s -> %s: buffer size %d exceeds the limit of %d",
				b.Client, b.Server, b.BufferSize, MaxBufferSize)
		}
	default:
		return nil, fmt.Errorf("model: binding %s -> %s has unknown protocol %v",
			b.Client, b.Server, b.Protocol)
	}
	if b.Contract != nil {
		if err := b.Contract.Validate(); err != nil {
			return nil, fmt.Errorf("model: binding %s -> %s: %w", b.Client, b.Server, err)
		}
	}
	for _, prev := range a.bindings {
		if prev.Client == b.Client {
			return nil, fmt.Errorf("model: client interface %s already bound to %s",
				b.Client, prev.Server)
		}
	}
	bound := b
	if b.Contract != nil {
		// The architecture owns its copy: later mutation of the
		// caller's Contract must not alter the recorded binding.
		c := *b.Contract
		if c.Policy == 0 {
			c.Policy = Shed
		}
		bound.Contract = &c
	}
	a.bindings = append(a.bindings, &bound)
	return &bound, nil
}

// Bindings returns the architecture's bindings in creation order.
func (a *Architecture) Bindings() []*Binding {
	out := make([]*Binding, len(a.bindings))
	copy(out, a.bindings)
	return out
}

// BindingsOf returns the bindings where the named component is the
// client or the server.
func (a *Architecture) BindingsOf(name string) []*Binding {
	var out []*Binding
	for _, b := range a.bindings {
		if b.Client.Component == name || b.Server.Component == name {
			out = append(out, b)
		}
	}
	return out
}
