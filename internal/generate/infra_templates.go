package generate

import (
	"text/template"

	"soleil/internal/model"
	"soleil/internal/patterns"
)

// tmplFuncs are shared template helpers.
var tmplFuncs = template.FuncMap{
	"patternExpr": func(k patterns.Kind) string {
		switch k {
		case patterns.ScopeEnter:
			return "patterns.ScopeEnter"
		case patterns.Portal:
			return "patterns.Portal"
		case patterns.DeepCopy:
			return "patterns.DeepCopy"
		default:
			return "patterns.None"
		}
	},
	"threadKindExpr": func(k model.ThreadKind) string {
		switch k {
		case model.NoHeapRealtimeThread:
			return "thread.NoHeap"
		case model.RealtimeThread:
			return "thread.Realtime"
		default:
			return "thread.Regular"
		}
	},
}

// tmplInfraSoleil is the SOLEIL-mode infrastructure: reified
// membranes, interceptor chains, full bootstrap, simulation wiring.
var tmplInfraSoleil = template.Must(template.New("infraSoleil").Funcs(tmplFuncs).Parse(Header + `; mode SOLEIL. DO NOT EDIT.
//
// Generated execution infrastructure for architecture {{printf "%q" .ArchName}}:
// full componentization — membranes, controllers and interceptors are
// reified at runtime and reconfiguration is available at both the
// functional and the membrane level.

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
	_ = patterns.None // unused when no binding crosses areas
	_ = comm.ErrFull  // unused when the architecture has no async binding
)

// System is the generated execution infrastructure.
type System struct {
	Mem *memory.Runtime
{{- range .Scopes}}
	{{.Var}} *memory.Area
{{- end}}
{{- range .Components}}
	{{.Var}}Content *{{.Type}}
	{{.Var}} *membrane.Membrane
	{{.Var}}Skeletons []*membrane.AsyncSkeleton
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
	s.{{.Var}}Content = &{{.Type}}{}
	{
		m, err := new{{.GoName}}Membrane(s.{{.Var}}Content)
		if err != nil {
			return nil, err
		}
		s.{{.Var}} = m
	}
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
		if err := s.{{.ClientVar}}.Binding().Bind({{printf "%q" .ClientItf}}, stub); err != nil {
			return nil, err
		}
		skel, err := membrane.NewAsyncSkeleton(buf, s.{{.ServerVar}})
		if err != nil {
			return nil, err
		}
		s.{{.ServerVar}}Skeletons = append(s.{{.ServerVar}}Skeletons, skel)
	}
{{- end}}
{{- range .Syncs}}
	{
{{- if .Pattern}}
		mi, err := membrane.NewMemoryInterceptor({{patternExpr .Pattern}}, {{if .ScopeVar}}s.{{.ScopeVar}}{{else}}nil{{end}})
		if err != nil {
			return nil, err
		}
		port, err := membrane.NewSyncPort(s.{{.ServerVar}}, {{printf "%q" .ServerItf}}, mi)
{{- else}}
		port, err := membrane.NewSyncPort(s.{{.ServerVar}}, {{printf "%q" .ServerItf}})
{{- end}}
		if err != nil {
			return nil, err
		}
		if err := s.{{.ClientVar}}.Binding().Bind({{printf "%q" .ClientItf}}, port); err != nil {
			return nil, err
		}
	}
{{- end}}
	// Bootstrap: passive services first, then active producers.
{{- range .Components}}{{if not .Active}}
	if err := s.{{.Var}}.Lifecycle().Start(); err != nil {
		return nil, err
	}
{{- end}}{{end}}
{{- range .Components}}{{if .Active}}
	if err := s.{{.Var}}.Lifecycle().Start(); err != nil {
		return nil, err
	}
{{- end}}{{end}}
	return s, nil
}
{{range .Components}}{{if .Active}}
// Activate{{.GoName}} runs one release of component {{.Name}}.
func (s *System) Activate{{.GoName}}(env *thread.Env) error {
	return s.{{.Var}}Content.Activate(env)
}

// Deliver{{.GoName}} drains the asynchronous messages pending for
// component {{.Name}}.
func (s *System) Deliver{{.GoName}}(env *thread.Env) (int, error) {
	total := 0
	for _, sk := range s.{{.Var}}Skeletons {
		n, err := sk.Drain(env)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
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
		err := s.{{.ClientVar}}.Binding().Bind({{printf "%q" .ClientItf}},
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
	fmt.Fprintf(w, "%-24s invocations=%d\n", {{printf "%q" .Name}}, s.{{.Var}}Content.Invocations())
{{- end}}
	f := s.Mem.Footprint()
	fmt.Fprintf(w, "memory: immortal=%dB heap=%dB scoped-budget=%dB\n",
		f.ImmortalBytes, f.HeapBytes, f.ScopedBudget)
}
`))
