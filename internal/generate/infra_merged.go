package generate

import "text/template"

// tmplInfraMerged is the MERGE-ALL-mode infrastructure: merged
// component types (see tmplComponentMerged), direct dispatch with
// inlined patterns, functional-level rebinding preserved.
var tmplInfraMerged = template.Must(template.New("infraMerged").Funcs(tmplFuncs).Parse(Header + `; mode MERGE-ALL. DO NOT EDIT.
//
// Generated execution infrastructure for architecture {{printf "%q" .ArchName}}:
// each component is merged with its membrane into a single type; the
// interceptor indirections of the SOLEIL mode are replaced by direct
// calls. Functional-level rebinding remains available through the
// components' binding controllers.

package {{.Package}}

import (
	"fmt"
	"io"
	"time"

	"soleil/internal/comm"
	"soleil/internal/membrane"
	"soleil/internal/patterns"
	"soleil/internal/rtsj/memory"
	"soleil/internal/rtsj/sched"
	"soleil/internal/rtsj/thread"
)

var (
	_ = patterns.None
	_ = comm.ErrFull
)

// syncRoute adapts an inlined synchronous route to the port contract
// (so merged components stay rebindable).
type syncRoute struct {
	invoke func(env *thread.Env, op string, arg any) (any, error)
}

func (r *syncRoute) Call(env *thread.Env, op string, arg any) (any, error) {
	return r.invoke(env, op, arg)
}

func (r *syncRoute) Send(env *thread.Env, op string, arg any) error {
	return fmt.Errorf("synchronous binding; use Call")
}

// System is the generated execution infrastructure.
type System struct {
	Mem *memory.Runtime
{{- range .Scopes}}
	{{.Var}} *memory.Area
{{- end}}
{{- range .Components}}
	{{.Var}} *{{.GoName}}Component
{{- end}}
{{- range .Buffers}}
	{{.Var}} *comm.RTBuffer
	{{.Var}}Stub *membrane.AsyncStub
{{- end}}
}

// BuildSystem wires the complete infrastructure and bootstraps it.
func BuildSystem() (*System, error) {
	s := &System{}
	s.Mem = memory.NewRuntime(memory.WithImmortalSize({{.ImmortalSize}}))
	mem := s.Mem
	_ = mem
{{- range .Scopes}}
	{
		a, err := mem.NewScoped({{printf "%q" .Name}}, {{.Size}})
		if err != nil {
			return nil, err
		}
		s.{{.Var}} = a
	}
{{- end}}
{{- range .Components}}
	s.{{.Var}} = new{{.GoName}}Component(&{{.Type}}{})
{{- end}}
{{- range .Buffers}}
	{
		buf, err := comm.NewRTBuffer({{printf "%q" .Name}}, {{.Cap}}, {{.AreaExpr}}, 256)
		if err != nil {
			return nil, err
		}
		s.{{.Var}} = buf
		stub, err := membrane.NewAsyncStub(buf, {{printf "%q" .ServerItf}})
		if err != nil {
			return nil, err
		}
		s.{{.Var}}Stub = stub
		if err := s.{{.ClientVar}}.binds.Bind({{printf "%q" .ClientItf}}, stub); err != nil {
			return nil, err
		}
		s.{{.ServerVar}}.inbound = append(s.{{.ServerVar}}.inbound, buf)
	}
{{- end}}
{{- range .Syncs}}
	{
		srv := s.{{.ServerVar}}
		route := &syncRoute{invoke: func(env *thread.Env, op string, arg any) (any, error) {
{{- if .ScopeVar}}
			var out any
			err := patterns.EnterAndCall(env.Mem(), s.{{.ScopeVar}}, func() error {
				v, err := srv.Invoke(env, {{printf "%q" .ServerItf}}, op, arg)
				out = v
				return err
			})
			return patterns.CopyValue(out), err
{{- else if .Pattern}}
			v, err := srv.Invoke(env, {{printf "%q" .ServerItf}}, op, patterns.CopyValue(arg))
			return patterns.CopyValue(v), err
{{- else}}
			return srv.Invoke(env, {{printf "%q" .ServerItf}}, op, arg)
{{- end}}
		}}
		if err := s.{{.ClientVar}}.binds.Bind({{printf "%q" .ClientItf}}, route); err != nil {
			return nil, err
		}
	}
{{- end}}
	// Bootstrap: passive services first, then active producers.
{{- range .Components}}{{if not .Active}}
	if err := s.{{.Var}}.Init(); err != nil {
		return nil, err
	}
{{- end}}{{end}}
{{- range .Components}}{{if .Active}}
	if err := s.{{.Var}}.Init(); err != nil {
		return nil, err
	}
{{- end}}{{end}}
	return s, nil
}
{{range .Components}}{{if .Active}}
// Activate{{.GoName}} runs one release of component {{.Name}}.
func (s *System) Activate{{.GoName}}(env *thread.Env) error {
	return s.{{.Var}}.content.Activate(env)
}

// Deliver{{.GoName}} drains the asynchronous messages pending for
// component {{.Name}}.
func (s *System) Deliver{{.GoName}}(env *thread.Env) (int, error) {
	return s.{{.Var}}.Deliver(env)
}
{{end}}{{end}}
// Transaction drives one complete iteration of the system.
func (s *System) Transaction(env *thread.Env) error {
{{- range .ActivateRoots}}
	if err := s.Activate{{.}}(env); err != nil {
		return err
	}
{{- end}}
{{- range .DeliverOrder}}
	if _, err := s.Deliver{{.}}(env); err != nil {
		return err
	}
{{- end}}
	return nil
}

// RunSimulation executes the system on the simulated real-time
// scheduler until the virtual-time horizon.
func (s *System) RunSimulation(d time.Duration) error {
	sch := sched.New()
	rt := thread.NewRuntime(sch, s.Mem)
	tasks := make(map[string]*sched.Task)
{{- range .Threads}}
	{
		th, err := rt.Spawn(thread.Config{
			Name:     {{printf "%q" .Name}},
			Kind:     {{threadKindExpr .Kind}},
			Priority: {{.Priority}},
			Release: sched.Release{
				{{- if .Periodic}}Kind: sched.Periodic, Period: time.Duration({{.PeriodNS}}),
				{{- else if .Sporadic}}Kind: sched.Sporadic, MinInterarrival: time.Duration({{.PeriodNS}}),
				{{- else}}Kind: sched.Aperiodic,
				{{- end}}
				{{- if .DeadlineNS}}
				Deadline: time.Duration({{.DeadlineNS}}),
				{{- end}}
				{{- if .CostNS}}
				Cost: time.Duration({{.CostNS}}),
				{{- end}}
			},
			InitialArea: {{.AreaExpr}},
			Run: func(env *thread.Env) {
				for {
{{- if .Sporadic}}
					if _, err := s.Deliver{{.CompGoName}}(env); err != nil {
						return
					}
					if !env.Sched().WaitForRelease() {
						return
					}
{{- else if .Periodic}}
					if err := s.Activate{{.CompGoName}}(env); err != nil {
						return
					}
					if !env.Sched().WaitForNextPeriod() {
						return
					}
{{- else}}
					_ = s.Activate{{.CompGoName}}(env)
					return
{{- end}}
				}
			},
		})
		if err != nil {
			return err
		}
		tasks[{{printf "%q" .CompVar}}] = th.Task()
	}
{{- end}}
{{- range .Buffers}}
	if t := tasks[{{printf "%q" .ServerVar}}]; t != nil {
		err := s.{{.ClientVar}}.binds.Bind({{printf "%q" .ClientItf}},
			&membrane.FirePort{Inner: s.{{.Var}}Stub, Task: t})
		if err != nil {
			return err
		}
	}
{{- end}}
	return sch.Run(d)
}

// Report prints the per-component activity counters.
func (s *System) Report(w io.Writer) {
{{- range .Components}}
	fmt.Fprintf(w, "%-24s invocations=%d\n", {{printf "%q" .Name}}, s.{{.Var}}.content.Invocations())
{{- end}}
	f := s.Mem.Footprint()
	fmt.Fprintf(w, "memory: immortal=%dB heap=%dB scoped-budget=%dB\n",
		f.ImmortalBytes, f.HeapBytes, f.ScopedBudget)
}
`))
