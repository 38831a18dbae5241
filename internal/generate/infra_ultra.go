package generate

import "text/template"

// tmplInfraUltra is the ULTRA-MERGE-mode infrastructure: the whole
// system — functional stubs, activation, asynchronous plumbing and
// the RTSJ-dedicated code — merged into one purely static type. No
// binding tables, no locks, no reconfiguration capabilities.
var tmplInfraUltra = template.Must(template.New("infraUltra").Funcs(tmplFuncs).Parse(Header + `; mode ULTRA-MERGE. DO NOT EDIT.
//
// Generated execution infrastructure for architecture {{printf "%q" .ArchName}}:
// the whole resulting source merges into this single static unit. The
// functional implementations (stub counters below — replace their
// bodies) are embedded together with component activation, the
// asynchronous communication and the RTSJ-dedicated code.

package {{.Package}}

import (
	"fmt"
	"io"
	"time"

	"soleil/internal/comm"
	"soleil/internal/rtsj/memory"
	"soleil/internal/rtsj/sched"
	"soleil/internal/rtsj/thread"
)

var _ = comm.ErrFull

// System is the generated, fully static execution infrastructure.
type System struct {
	Mem *memory.Runtime
{{- range .Scopes}}
	{{.Var}} *memory.Area
{{- end}}
{{- range .Components}}
	{{.Var}}Invocations int64
	{{.Var}}Activations int64
{{- end}}
{{- range .Buffers}}
	{{.Var}} *comm.RTBuffer
{{- end}}
{{- range .Components}}{{if .Sporadic}}
	{{.Var}}Task *sched.Task
{{- end}}{{end}}
}

// BuildSystem wires the complete infrastructure.
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
{{- range .Buffers}}
	{
		buf, err := comm.NewRTBuffer({{printf "%q" .Name}}, {{.Cap}}, {{.AreaExpr}}, 256)
		if err != nil {
			return nil, err
		}
		s.{{.Var}} = buf
	}
{{- end}}
	return s, nil
}
{{range .Components}}
// invoke{{.GoName}} is the statically routed invocation path of
// component {{.Name}} (functional stub merged with its outgoing
// routes — replace the counter with your implementation).
func (s *System) invoke{{.GoName}}(env *thread.Env, op string, arg any) (any, error) {
	s.{{.Var}}Invocations++
{{- range .ClientCalls}}
{{- if .Async}}
	if err := s.{{.BufferVar}}.Enqueue(env.Mem(), comm.Message{Interface: {{printf "%q" .ServerItf}}, Op: {{printf "%q" .Op}}, Arg: arg}); err != nil {
		return nil, err
	}
	if tc := env.Sched(); tc != nil && s.{{.ServerVar}}Task != nil {
		if err := tc.Fire(s.{{.ServerVar}}Task); err != nil {
			return nil, err
		}
	}
{{- else if .ScopeExpr}}
	if err := env.Mem().Enter(s.{{.ScopeExpr}}, func() error {
		_, err := s.invoke{{.ServerGoName}}(env, {{printf "%q" .Op}}, arg)
		return err
	}); err != nil {
		return nil, err
	}
{{- else}}
	if _, err := s.invoke{{.ServerGoName}}(env, {{printf "%q" .Op}}, arg); err != nil {
		return nil, err
	}
{{- end}}
{{- end}}
	return arg, nil
}
{{if .Active}}
// Activate{{.GoName}} runs one release of component {{.Name}}.
func (s *System) Activate{{.GoName}}(env *thread.Env) error {
	s.{{.Var}}Activations++
	n := s.{{.Var}}Activations
	_ = n
{{- range .ClientCalls}}
{{- if .Async}}
	if err := s.{{.BufferVar}}.Enqueue(env.Mem(), comm.Message{Interface: {{printf "%q" .ServerItf}}, Op: {{printf "%q" .Op}}, Arg: n}); err != nil {
		return err
	}
	if tc := env.Sched(); tc != nil && s.{{.ServerVar}}Task != nil {
		if err := tc.Fire(s.{{.ServerVar}}Task); err != nil {
			return err
		}
	}
{{- else if .ScopeExpr}}
	if err := env.Mem().Enter(s.{{.ScopeExpr}}, func() error {
		_, err := s.invoke{{.ServerGoName}}(env, {{printf "%q" .Op}}, n)
		return err
	}); err != nil {
		return err
	}
{{- else}}
	if _, err := s.invoke{{.ServerGoName}}(env, {{printf "%q" .Op}}, n); err != nil {
		return err
	}
{{- end}}
{{- end}}
	return nil
}

// Deliver{{.GoName}} drains the asynchronous messages pending for
// component {{.Name}}.
func (s *System) Deliver{{.GoName}}(env *thread.Env) (int, error) {
	total := 0
{{- $comp := .}}
{{- range .InboundBuffers}}
	for {
		msg, ok, err := s.{{.}}.Dequeue(env.Mem())
		if err != nil {
			return total, err
		}
		if !ok {
			break
		}
		if _, err := s.invoke{{$comp.GoName}}(env, msg.Op, msg.Arg); err != nil {
			return total, err
		}
		total++
	}
{{- end}}
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
{{- if .Sporadic}}
		s.{{.CompVar}}Task = th.Task()
{{- else}}
		_ = th
{{- end}}
	}
{{- end}}
	return sch.Run(d)
}

// Report prints the per-component activity counters.
func (s *System) Report(w io.Writer) {
{{- range .Components}}
	fmt.Fprintf(w, "%-24s invocations=%d\n", {{printf "%q" .Name}}, s.{{.Var}}Invocations)
{{- end}}
	f := s.Mem.Footprint()
	fmt.Fprintf(w, "memory: immortal=%dB heap=%dB scoped-budget=%dB\n",
		f.ImmortalBytes, f.HeapBytes, f.ScopedBudget)
}
`))
