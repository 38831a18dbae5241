package membrane

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"soleil/internal/comm"
	"soleil/internal/patterns"
	"soleil/internal/rtsj/memory"
	"soleil/internal/rtsj/thread"
)

// echoContent records invocations and echoes arguments.
type echoContent struct {
	svc      *Services
	calls    []string
	initErr  error
	lastArg  any
	response any
}

func (c *echoContent) Init(svc *Services) error {
	c.svc = svc
	return c.initErr
}

func (c *echoContent) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	c.calls = append(c.calls, itf+"."+op)
	c.lastArg = arg
	if c.response != nil {
		return c.response, nil
	}
	return arg, nil
}

func testEnv(t *testing.T, rt *memory.Runtime, noHeap bool) *thread.Env {
	t.Helper()
	initial := rt.Immortal()
	ctx, err := memory.NewContext(initial, noHeap)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctx.Close)
	return thread.NewEnv(nil, ctx)
}

func TestNewValidation(t *testing.T) {
	if _, err := New("", &echoContent{}); err == nil {
		t.Error("unnamed membrane accepted")
	}
	if _, err := New("m", nil); err == nil {
		t.Error("contentless membrane accepted")
	}
}

func TestLifecycleGatesDispatch(t *testing.T) {
	rt := memory.NewRuntime()
	env := testEnv(t, rt, false)
	content := &echoContent{}
	m, err := New("ms", content)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Dispatch(&Invocation{Interface: "i", Op: "op", Env: env}); err == nil {
		t.Fatal("dispatch on stopped component accepted")
	}
	if err := m.Lifecycle().Start(); err != nil {
		t.Fatal(err)
	}
	if !m.Lifecycle().Started() {
		t.Fatal("not started")
	}
	if content.svc == nil || content.svc.Name() != "ms" {
		t.Fatal("Init not called with services")
	}
	if _, err := m.Dispatch(&Invocation{Interface: "i", Op: "op", Arg: 1, Env: env}); err != nil {
		t.Fatal(err)
	}
	if len(content.calls) != 1 || content.calls[0] != "i.op" {
		t.Fatalf("calls = %v", content.calls)
	}
	// Start is idempotent; Init runs once.
	if err := m.Lifecycle().Start(); err != nil {
		t.Fatal(err)
	}
	m.Lifecycle().Stop()
	if _, err := m.Dispatch(&Invocation{Interface: "i", Op: "op", Env: env}); err == nil {
		t.Fatal("dispatch on re-stopped component accepted")
	}
}

func TestStartPropagatesInitError(t *testing.T) {
	m, err := New("m", &echoContent{initErr: errors.New("boom")})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Lifecycle().Start(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("start error = %v", err)
	}
}

func TestControllersPresent(t *testing.T) {
	m, err := New("m", &echoContent{})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, c := range m.Controllers() {
		names[c.ControllerName()] = true
	}
	for _, want := range []string{"name-controller", "lifecycle-controller", "binding-controller"} {
		if !names[want] {
			t.Errorf("missing %s", want)
		}
	}
	var nc *NameController
	for _, c := range m.Controllers() {
		if v, ok := c.(*NameController); ok {
			nc = v
		}
	}
	if nc == nil || nc.Name() != "m" {
		t.Fatal("name controller")
	}
}

func TestBindingController(t *testing.T) {
	rt := memory.NewRuntime()
	env := testEnv(t, rt, false)
	server := &echoContent{}
	sm, _ := New("server", server)
	if err := sm.Lifecycle().Start(); err != nil {
		t.Fatal(err)
	}
	port, err := NewSyncPort(sm, "in")
	if err != nil {
		t.Fatal(err)
	}
	client, _ := New("client", &echoContent{})
	bc := client.Binding()
	if err := bc.Bind("out", port); err != nil {
		t.Fatal(err)
	}
	if err := bc.Bind("out", nil); err == nil {
		t.Error("nil port accepted")
	}
	got, err := client.Services().Port("out")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.Call(env, "ping", 7); err != nil {
		t.Fatal(err)
	}
	if server.lastArg != 7 {
		t.Fatalf("arg = %v", server.lastArg)
	}
	if bound := bc.Bound(); len(bound) != 1 || bound[0] != "out" {
		t.Fatalf("bound = %v", bound)
	}
	if err := bc.Unbind("out"); err != nil {
		t.Fatal(err)
	}
	if err := bc.Unbind("out"); err == nil {
		t.Error("double unbind accepted")
	}
	if _, err := client.Services().Port("out"); err == nil {
		t.Error("lookup of unbound port succeeded")
	}
}

func TestActiveInterceptorSerializesAndCounts(t *testing.T) {
	rt := memory.NewRuntime()
	env := testEnv(t, rt, false)
	ai := &ActiveInterceptor{}
	m, _ := New("m", &echoContent{}, ai)
	if err := m.Lifecycle().Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := m.Dispatch(&Invocation{Interface: "i", Op: "op", Env: env}); err != nil {
			t.Fatal(err)
		}
	}
	if ai.Invocations() != 5 {
		t.Fatalf("invocations = %d", ai.Invocations())
	}
	if ai.Name() != "active-interceptor" {
		t.Fatal("name")
	}
}

func TestMemoryInterceptorScopeEnter(t *testing.T) {
	rt := memory.NewRuntime()
	scope, err := rt.NewScoped("cscope", 28<<10)
	if err != nil {
		t.Fatal(err)
	}
	env := testEnv(t, rt, true) // NHRT-style no-heap caller

	content := &scopeProbe{scope: scope}
	mi, err := NewMemoryInterceptor(patterns.ScopeEnter, scope)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := New("console", content, mi)
	if err := m.Lifecycle().Start(); err != nil {
		t.Fatal(err)
	}
	res, err := m.Dispatch(&Invocation{Interface: "iConsole", Op: "display", Arg: "alert", Env: env})
	if err != nil {
		t.Fatal(err)
	}
	if res != "displayed" {
		t.Fatalf("result = %v", res)
	}
	if !content.sawScope {
		t.Fatal("content did not execute inside the scope")
	}
	if scope.Consumed() != 0 {
		t.Fatal("scope not reclaimed after call")
	}
	if mi.Crossings() != 1 {
		t.Fatalf("crossings = %d", mi.Crossings())
	}
	if !strings.Contains(mi.Name(), "scope-enter") {
		t.Fatalf("name = %s", mi.Name())
	}
	if mi.Pattern() != patterns.ScopeEnter {
		t.Fatal("pattern accessor")
	}
}

// scopeProbe checks that its invocation runs with the scope as the
// current allocation area.
type scopeProbe struct {
	scope    *memory.Area
	sawScope bool
}

func (c *scopeProbe) Init(*Services) error { return nil }
func (c *scopeProbe) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	if env.Mem().Current() == c.scope {
		c.sawScope = true
	}
	if _, err := env.Mem().Alloc(64, arg); err != nil {
		return nil, err
	}
	return "displayed", nil
}

func TestMemoryInterceptorDeepCopy(t *testing.T) {
	rt := memory.NewRuntime()
	env := testEnv(t, rt, false)
	content := &echoContent{}
	mi, err := NewMemoryInterceptor(patterns.DeepCopy, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := New("srv", content, mi)
	if err := m.Lifecycle().Start(); err != nil {
		t.Fatal(err)
	}
	arg := copyTracked{data: []int{1, 2}}
	res, err := m.Dispatch(&Invocation{Interface: "i", Op: "op", Arg: arg, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	seen, ok := content.lastArg.(copyTracked)
	if !ok {
		t.Fatalf("arg type = %T", content.lastArg)
	}
	if !seen.copied {
		t.Fatal("argument not deep-copied across the boundary")
	}
	if res.(copyTracked).copies() < 2 {
		t.Fatal("result not deep-copied back")
	}
}

type copyTracked struct {
	data   []int
	copied bool
	nCopy  int
}

func (c copyTracked) copies() int { return c.nCopy }
func (c copyTracked) DeepCopy() any {
	cp := copyTracked{data: append([]int(nil), c.data...), copied: true, nCopy: c.nCopy + 1}
	return cp
}

func TestNewMemoryInterceptorValidation(t *testing.T) {
	rt := memory.NewRuntime()
	if _, err := NewMemoryInterceptor(patterns.ScopeEnter, nil); err == nil {
		t.Error("scope-enter without scope accepted")
	}
	if _, err := NewMemoryInterceptor(patterns.ScopeEnter, rt.Heap()); err == nil {
		t.Error("scope-enter on heap accepted")
	}
	if _, err := NewMemoryInterceptor(patterns.MultiScope, nil); err == nil {
		t.Error("unimplemented pattern accepted")
	}
}

func TestAsyncStubSkeleton(t *testing.T) {
	rt := memory.NewRuntime()
	buf, err := comm.NewRTBuffer("pl->ms", 10, rt.Immortal(), 128)
	if err != nil {
		t.Fatal(err)
	}
	producer := testEnv(t, rt, true)
	consumer := testEnv(t, rt, true)

	server := &echoContent{}
	sm, _ := New("ms", server, &ActiveInterceptor{})
	if err := sm.Lifecycle().Start(); err != nil {
		t.Fatal(err)
	}
	stub, err := NewAsyncStub(buf, "iMonitor")
	if err != nil {
		t.Fatal(err)
	}
	skel, err := NewAsyncSkeleton(buf, sm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stub.Call(producer, "x", nil); err == nil {
		t.Error("Call on async stub accepted")
	}
	for i := 0; i < 3; i++ {
		if err := stub.Send(producer, "report", i); err != nil {
			t.Fatal(err)
		}
	}
	n, err := skel.Drain(consumer)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(server.calls) != 3 {
		t.Fatalf("drained %d, calls %v", n, server.calls)
	}
	if server.calls[0] != "iMonitor.report" {
		t.Fatalf("call = %s", server.calls[0])
	}
	if server.lastArg != 2 {
		t.Fatalf("last arg = %v", server.lastArg)
	}
	// Empty drain.
	ok, err := skel.DrainOne(consumer)
	if err != nil || ok {
		t.Fatalf("empty DrainOne = %v, %v", ok, err)
	}
	if skel.Buffer() != buf {
		t.Fatal("buffer accessor")
	}
}

func TestSyncPortErrors(t *testing.T) {
	if _, err := NewSyncPort(nil, "i"); err == nil {
		t.Error("nil target accepted")
	}
	if _, err := NewAsyncStub(nil, "i"); err == nil {
		t.Error("nil buffer accepted")
	}
	if _, err := NewAsyncSkeleton(nil, nil); err == nil {
		t.Error("nil skeleton parts accepted")
	}
	rt := memory.NewRuntime()
	env := testEnv(t, rt, false)
	m, _ := New("m", &echoContent{})
	if err := m.Lifecycle().Start(); err != nil {
		t.Fatal(err)
	}
	p, _ := NewSyncPort(m, "i")
	if err := p.Send(env, "op", nil); err == nil {
		t.Error("Send on sync port accepted")
	}
}

func TestAsyncMessageDeepCopy(t *testing.T) {
	msg := AsyncMessage{Interface: "i", Op: "o", Arg: copyTracked{data: []int{1}}}
	cp, ok := msg.DeepCopy().(AsyncMessage)
	if !ok || cp.Interface != "i" || cp.Op != "o" {
		t.Fatalf("copy = %#v", cp)
	}
	if !cp.Arg.(copyTracked).copied {
		t.Fatal("payload not deep-copied")
	}
	plain := AsyncMessage{Arg: 42}
	if plain.DeepCopy().(AsyncMessage).Arg != 42 {
		t.Fatal("plain payload copy")
	}
}

// errorContent returns an error on invoke to exercise propagation
// through the chain.
type errorContent struct{}

func (errorContent) Init(*Services) error { return nil }
func (errorContent) Invoke(*thread.Env, string, string, any) (any, error) {
	return nil, fmt.Errorf("content failure")
}

func TestErrorPropagationThroughChain(t *testing.T) {
	rt := memory.NewRuntime()
	scope, _ := rt.NewScoped("s", 1024)
	env := testEnv(t, rt, false)
	mi, _ := NewMemoryInterceptor(patterns.ScopeEnter, scope)
	m, _ := New("m", errorContent{}, &ActiveInterceptor{}, mi)
	if err := m.Lifecycle().Start(); err != nil {
		t.Fatal(err)
	}
	_, err := m.Dispatch(&Invocation{Interface: "i", Op: "op", Env: env})
	if err == nil || !strings.Contains(err.Error(), "content failure") {
		t.Fatalf("err = %v", err)
	}
	if scope.Consumed() != 0 || scope.Active() {
		t.Fatal("scope leaked after error")
	}
}

// lifecycleFlipper flips the lifecycle to FAILED on a marker op — a
// minimal fault interceptor standing in for internal/fault's.
type lifecycleFlipper struct {
	lc *LifecycleController
}

func (f *lifecycleFlipper) Name() string                            { return "flipper" }
func (f *lifecycleFlipper) AttachLifecycle(lc *LifecycleController) { f.lc = lc }

func (f *lifecycleFlipper) Invoke(inv *Invocation, next Handler) (any, error) {
	if inv.Op == "fail" {
		cause := errors.New("contract violated")
		f.lc.Fail(cause)
		return nil, cause
	}
	return next(inv)
}

func TestFailedStateIsolatesAndRestartClears(t *testing.T) {
	content := &echoContent{}
	flipper := &lifecycleFlipper{}
	m, err := New("c", content, flipper)
	if err != nil {
		t.Fatal(err)
	}
	// New attaches the lifecycle controller to LifecycleAware
	// interceptors automatically.
	if flipper.lc != m.Lifecycle() {
		t.Fatal("lifecycle not attached to LifecycleAware interceptor")
	}
	if err := m.Lifecycle().Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Dispatch(&Invocation{Interface: "in", Op: "fail"}); err == nil {
		t.Fatal("marker op succeeded")
	}
	if failed, cause := m.Lifecycle().Failure(); !failed || cause == nil {
		t.Fatalf("failure = %v, %v", failed, cause)
	}
	if m.Lifecycle().Started() {
		t.Fatal("FAILED component still reports started")
	}
	// Dispatch reports the failure cause via ErrFailed, taking
	// priority over the plain stopped refusal.
	_, err = m.Dispatch(&Invocation{Interface: "in", Op: "echo"})
	if !errors.Is(err, ErrFailed) || !strings.Contains(err.Error(), "contract violated") {
		t.Fatalf("dispatch while failed: %v", err)
	}
	// Start is the supervisor's restart path: failure cleared,
	// content re-initialized, invocations served again.
	if err := m.Lifecycle().Start(); err != nil {
		t.Fatal(err)
	}
	if failed, cause := m.Lifecycle().Failure(); failed || cause != nil {
		t.Fatalf("failure survives restart: %v, %v", failed, cause)
	}
	if _, err := m.Dispatch(&Invocation{Interface: "in", Op: "echo"}); err != nil {
		t.Fatalf("dispatch after restart: %v", err)
	}
}
