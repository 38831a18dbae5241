package generate

import "text/template"

// Header marks every generated file; the requirements of [6] demand a
// clear distinction between generated and manually written code
// (Sect. 5.2).
const Header = "// Code generated by Soleil"

// tmplContents generates the content stubs — the placeholder for the
// single manually-written part of the system. Stubs count their
// activity and forward through their client interfaces, so the
// generated program exercises the complete infrastructure out of the
// box.
var tmplContents = template.Must(template.New("contents").Parse(Header + `; mode {{.Mode}}. DO NOT EDIT the infrastructure files.
//
// This file holds CONTENT STUBS: replace their bodies with your
// functional implementation. Everything else in this program is
// generated infrastructure.

package {{.Package}}

import (
	"sync/atomic"

	"soleil/internal/membrane"
	"soleil/internal/rtsj/thread"
)
{{range .Components}}
// {{.Type}} is the content stub of component {{.Name}}.
type {{.Type}} struct {
	svc         *membrane.Services
	invocations int64
	activations int64
}

// Init implements membrane.Content.
func (c *{{.Type}}) Init(svc *membrane.Services) error {
	c.svc = svc
	return nil
}

// Invoke implements membrane.Content.
func (c *{{.Type}}) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	atomic.AddInt64(&c.invocations, 1)
{{- range .ClientCalls}}
	{
		port, err := c.svc.Port({{printf "%q" .Itf}})
		if err != nil {
			return nil, err
		}
{{- if .Async}}
		if err := port.Send(env, {{printf "%q" .Op}}, arg); err != nil {
			return nil, err
		}
{{- else}}
		if _, err := port.Call(env, {{printf "%q" .Op}}, arg); err != nil {
			return nil, err
		}
{{- end}}
	}
{{- end}}
	return arg, nil
}
{{if .Active}}
// Activate implements membrane.ActiveContent.
func (c *{{.Type}}) Activate(env *thread.Env) error {
	n := atomic.AddInt64(&c.activations, 1)
	_ = n
{{- range .ClientCalls}}
	{
		port, err := c.svc.Port({{printf "%q" .Itf}})
		if err != nil {
			return err
		}
{{- if .Async}}
		if err := port.Send(env, {{printf "%q" .Op}}, n); err != nil {
			return err
		}
{{- else}}
		if _, err := port.Call(env, {{printf "%q" .Op}}, n); err != nil {
			return err
		}
{{- end}}
	}
{{- end}}
	return nil
}
{{end}}
// Invocations reports the stub's served invocation count.
func (c *{{.Type}}) Invocations() int64 { return atomic.LoadInt64(&c.invocations) }
{{end}}`))

// tmplComponentSoleil generates one reified-membrane component file
// (SOLEIL mode).
var tmplComponentSoleil = template.Must(template.New("compSoleil").Parse(Header + `; mode SOLEIL. DO NOT EDIT.

package {{.Pkg}}

import "soleil/internal/membrane"

// new{{.GoName}}Membrane assembles the membrane of component
// {{.Name}}: its controllers plus the generated interceptor chain.
func new{{.GoName}}Membrane(content membrane.Content) (*membrane.Membrane, error) {
	return membrane.New({{printf "%q" .Name}}, content{{if .Active}}, &membrane.ActiveInterceptor{}{{end}})
}
`))

// tmplComponentMerged generates one merged component file (MERGE-ALL
// mode): component and membrane collapsed into a single type with
// direct dispatch; the binding table survives for functional-level
// reconfiguration.
var tmplComponentMerged = template.Must(template.New("compMerged").Parse(Header + `; mode MERGE-ALL. DO NOT EDIT.

package {{.Pkg}}

import (
{{- if .Active}}
	"sync"
{{end}}
	"soleil/internal/comm"
	"soleil/internal/membrane"
	"soleil/internal/rtsj/thread"
)

// {{.GoName}}Component is component {{.Name}} merged with its
// membrane: interceptor indirections are replaced by direct calls.
type {{.GoName}}Component struct {
	content *{{.Type}}
{{- if .Active}}
	mu sync.Mutex // run-to-completion, inlined from the active interceptor
{{- end}}
	binds   *membrane.BindingController
	inbound []*comm.RTBuffer
}

func new{{.GoName}}Component(content *{{.Type}}) *{{.GoName}}Component {
	c := &{{.GoName}}Component{content: content}
	c.binds = membrane.NewBindingController({{printf "%q" .Name}})
	return c
}

// Init bootstraps the merged component.
func (c *{{.GoName}}Component) Init() error {
	return c.content.Init(membrane.NewServices({{printf "%q" .Name}}, c.binds))
}

// Invoke dispatches an incoming invocation directly into the content.
func (c *{{.GoName}}Component) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
{{- if .Active}}
	c.mu.Lock()
	defer c.mu.Unlock()
{{- end}}
	return c.content.Invoke(env, itf, op, arg)
}

// Deliver drains the component's inbound asynchronous buffers.
func (c *{{.GoName}}Component) Deliver(env *thread.Env) (int, error) {
	total := 0
	for _, buf := range c.inbound {
		for {
			msg, ok, err := buf.Dequeue(env.Mem())
			if err != nil {
				return total, err
			}
			if !ok {
				break
			}
			if _, err := c.Invoke(env, msg.Interface, msg.Op, msg.Arg); err != nil {
				return total, err
			}
			total++
		}
	}
	return total, nil
}
`))
