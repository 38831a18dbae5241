package dist

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"soleil/internal/assembly"
	"soleil/internal/membrane"
	"soleil/internal/model"
	"soleil/internal/rtsj/thread"
)

// tick is the distributed payload.
type tick struct {
	Seq int64
}

// sinkContent counts received ticks.
type sinkContent struct {
	got []int64
}

func (s *sinkContent) Init(*membrane.Services) error { return nil }

func (s *sinkContent) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	t, ok := arg.(tick)
	if !ok {
		return nil, errors.New("sink received a foreign payload")
	}
	s.got = append(s.got, t.Seq)
	return nil, nil
}

// sourceContent emits ticks through its single port.
type sourceContent struct {
	svc *membrane.Services
	seq int64
}

func (s *sourceContent) Init(svc *membrane.Services) error { s.svc = svc; return nil }

func (s *sourceContent) Invoke(*thread.Env, string, string, any) (any, error) {
	return nil, errors.New("source serves nothing")
}

func (s *sourceContent) Activate(env *thread.Env) error {
	s.seq++
	port, err := s.svc.Port("out")
	if err != nil {
		return err
	}
	return port.Send(env, "tick", tick{Seq: s.seq})
}

// producerSystem deploys a single active component whose client
// interface is unbound locally (it will be exported).
func producerSystem(t *testing.T, content membrane.Content) *assembly.System {
	t.Helper()
	a := model.NewArchitecture("producer")
	src, err := a.NewActive("Source", model.Activation{Kind: model.SporadicActivation})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.AddInterface(model.Interface{Name: "out", Role: model.ClientRole, Signature: "ITick"}); err != nil {
		t.Fatal(err)
	}
	if err := src.SetContent("SourceImpl"); err != nil {
		t.Fatal(err)
	}
	td, _ := a.NewThreadDomain("rt", model.DomainDesc{Kind: model.RealtimeThread, Priority: 20})
	imm, _ := a.NewMemoryArea("imm", model.AreaDesc{Kind: model.ImmortalMemory})
	if err := a.AddChild(imm, td); err != nil {
		t.Fatal(err)
	}
	if err := a.AddChild(td, src); err != nil {
		t.Fatal(err)
	}
	reg := assembly.NewRegistry()
	if err := reg.Register("SourceImpl", func() membrane.Content { return content }); err != nil {
		t.Fatal(err)
	}
	sys, err := assembly.Deploy(a, assembly.Config{Mode: assembly.Soleil, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// consumerSystem deploys a single passive sink component.
func consumerSystem(t *testing.T, content membrane.Content) *assembly.System {
	t.Helper()
	a := model.NewArchitecture("consumer")
	snk, err := a.NewPassive("Sink")
	if err != nil {
		t.Fatal(err)
	}
	if err := snk.AddInterface(model.Interface{Name: "in", Role: model.ServerRole, Signature: "ITick"}); err != nil {
		t.Fatal(err)
	}
	if err := snk.SetContent("SinkImpl"); err != nil {
		t.Fatal(err)
	}
	imm, _ := a.NewMemoryArea("imm", model.AreaDesc{Kind: model.ImmortalMemory})
	if err := a.AddChild(imm, snk); err != nil {
		t.Fatal(err)
	}
	reg := assembly.NewRegistry()
	if err := reg.Register("SinkImpl", func() membrane.Content { return content }); err != nil {
		t.Fatal(err)
	}
	sys, err := assembly.Deploy(a, assembly.Config{Mode: assembly.Soleil, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestDistributedBindingOverPipe(t *testing.T) {
	RegisterPayload(tick{})
	src := &sourceContent{}
	snk := &sinkContent{}
	producer := producerSystem(t, src)
	consumer := consumerSystem(t, snk)

	a, b := NewPipe()
	if err := Export(producer, "Source", "out", "in", a); err != nil {
		t.Fatal(err)
	}
	imp, err := Import(consumer, "Sink", b)
	if err != nil {
		t.Fatal(err)
	}
	defer imp.Close()
	if err := producer.Start(); err != nil {
		t.Fatal(err)
	}
	if err := consumer.Start(); err != nil {
		t.Fatal(err)
	}

	env, closeEnv, err := producer.NewEnv(false)
	if err != nil {
		t.Fatal(err)
	}
	defer closeEnv()
	node, _ := producer.Node("Source")
	for i := 0; i < 5; i++ {
		if err := node.Activate(env); err != nil {
			t.Fatal(err)
		}
		ok, err := imp.PumpOne()
		if err != nil || !ok {
			t.Fatalf("pump %d: %v, %v", i, ok, err)
		}
	}
	if len(snk.got) != 5 || snk.got[4] != 5 {
		t.Fatalf("sink got %v", snk.got)
	}
	if imp.Delivered() != 5 {
		t.Fatalf("delivered = %d", imp.Delivered())
	}
	// Closed transport ends pumping cleanly.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	ok, err := imp.PumpOne()
	if err != nil || ok {
		t.Fatalf("pump after close: %v, %v", ok, err)
	}
}

func TestDistributedBindingOverTCP(t *testing.T) {
	RegisterPayload(tick{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	serverConn := <-accepted

	src := &sourceContent{}
	snk := &sinkContent{}
	producer := producerSystem(t, src)
	consumer := consumerSystem(t, snk)
	if err := Export(producer, "Source", "out", "in", NewConn(dialed)); err != nil {
		t.Fatal(err)
	}
	imp, err := Import(consumer, "Sink", NewConn(serverConn))
	if err != nil {
		t.Fatal(err)
	}
	if err := producer.Start(); err != nil {
		t.Fatal(err)
	}
	if err := consumer.Start(); err != nil {
		t.Fatal(err)
	}
	go imp.Serve()

	env, closeEnv, err := producer.NewEnv(false)
	if err != nil {
		t.Fatal(err)
	}
	defer closeEnv()
	node, _ := producer.Node("Source")
	for i := 0; i < 20; i++ {
		if err := node.Activate(env); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.After(5 * time.Second)
	for imp.Delivered() < 20 {
		select {
		case <-deadline:
			t.Fatalf("timeout: delivered %d/20", imp.Delivered())
		default:
			time.Sleep(time.Millisecond)
		}
	}
	_ = dialed.Close()
	imp.Wait()
	if err := imp.Err(); err != nil {
		t.Fatalf("serve: %v", err)
	}
	if len(snk.got) != 20 {
		t.Fatalf("sink got %d", len(snk.got))
	}
}

func TestRemotePortRefusesCall(t *testing.T) {
	a, _ := NewPipe()
	p, err := NewRemotePort(a, "in")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Call(nil, "op", nil); err == nil {
		t.Fatal("synchronous distributed call accepted")
	}
	if _, err := NewRemotePort(nil, "in"); err == nil {
		t.Fatal("nil transport accepted")
	}
}

func TestImportValidation(t *testing.T) {
	snk := &sinkContent{}
	consumer := consumerSystem(t, snk)
	if _, err := Import(consumer, "Sink", nil); err == nil {
		t.Fatal("nil transport accepted")
	}
	_, b := NewPipe()
	if _, err := Import(consumer, "Ghost", b); err == nil {
		t.Fatal("unknown server accepted")
	}
}

func TestExportRefusedAfterStartInStaticMode(t *testing.T) {
	// An ULTRA-MERGE system refuses port changes after start.
	a := model.NewArchitecture("static")
	src, _ := a.NewActive("Source", model.Activation{Kind: model.SporadicActivation})
	_ = src.AddInterface(model.Interface{Name: "out", Role: model.ClientRole, Signature: "ITick"})
	_ = src.SetContent("SourceImpl")
	td, _ := a.NewThreadDomain("rt", model.DomainDesc{Kind: model.RealtimeThread, Priority: 20})
	imm, _ := a.NewMemoryArea("imm", model.AreaDesc{Kind: model.ImmortalMemory})
	_ = a.AddChild(imm, td)
	_ = a.AddChild(td, src)
	reg := assembly.NewRegistry()
	_ = reg.Register("SourceImpl", func() membrane.Content { return &sourceContent{} })
	sys, err := assembly.Deploy(a, assembly.Config{Mode: assembly.UltraMerge, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	pipeA, _ := NewPipe()
	// Before start: allowed (deployment-time wiring).
	if err := Export(sys, "Source", "out", "in", pipeA); err != nil {
		t.Fatal(err)
	}
	if err := sys.Start(); err != nil {
		t.Fatal(err)
	}
	// After start: refused in the static mode.
	err = Export(sys, "Source", "out", "in", pipeA)
	if err == nil || !strings.Contains(err.Error(), "static") {
		t.Fatalf("post-start export in ULTRA-MERGE: %v", err)
	}
}

func TestPipeSendAfterCloseRefused(t *testing.T) {
	a, b := NewPipe()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if err := b.Send([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("peer send after close: %v", err)
	}
	if _, err := b.Receive(); !errors.Is(err, ErrClosed) {
		t.Fatalf("receive after close: %v", err)
	}
}

func TestPipeDrainsQueuedAfterClose(t *testing.T) {
	a, b := NewPipe()
	if err := a.Send([]byte("queued")); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	msg, err := b.Receive()
	if err != nil || string(msg) != "queued" {
		t.Fatalf("drain = %q, %v", msg, err)
	}
}
