// Benchmarks regenerating the paper's evaluation (Sect. 5.1, Fig. 7)
// plus the ablations called out in DESIGN.md §6.
//
//	go test -bench 'Fig7' -benchmem          # the paper's three panels
//	go test -bench 'Ablation' -benchmem      # design-choice ablations
//
// Fig. 7(a/b): execution time of one complete iteration of the
// motivation example (ProductionLine -> MonitoringSystem -> Console ->
// AuditLog) on the four implementations. Fig. 7(c): memory footprint
// of the deployed infrastructure. The absolute numbers differ from
// the paper's 2008 testbed; the shape (ordering, relative overhead)
// is the reproduction target — see EXPERIMENTS.md.
package soleil_test

import (
	"testing"
	"time"

	"soleil/internal/assembly"
	"soleil/internal/comm"
	"soleil/internal/evaluation"
	"soleil/internal/fixture"
	"soleil/internal/membrane"
	"soleil/internal/patterns"
	"soleil/internal/rtsj/memory"
	"soleil/internal/rtsj/thread"
	"soleil/internal/scenario"
)

// --- Fig. 7(a): execution-time distribution --------------------------------------

func benchVariant(b *testing.B, name string) {
	b.Helper()
	v, err := evaluation.New(name)
	if err != nil {
		b.Fatal(err)
	}
	defer v.Close()
	// Steady state: discard the cold start before timing.
	for i := 0; i < 200; i++ {
		if err := v.Transaction(); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.Transaction(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7a_OO(b *testing.B)         { benchVariant(b, "OO") }
func BenchmarkFig7a_Soleil(b *testing.B)     { benchVariant(b, "SOLEIL") }
func BenchmarkFig7a_MergeAll(b *testing.B)   { benchVariant(b, "MERGE-ALL") }
func BenchmarkFig7a_UltraMerge(b *testing.B) { benchVariant(b, "ULTRA-MERGE") }

// --- Fig. 7(b): median and jitter --------------------------------------------------

// BenchmarkFig7b reproduces the median/jitter table: each sub-bench
// collects the paper's 10,000 steady-state observations once and
// reports them as custom metrics (median-ns, jitter-ns).
func BenchmarkFig7b(b *testing.B) {
	for _, name := range evaluation.VariantNames {
		name := name
		b.Run(name, func(b *testing.B) {
			v, err := evaluation.New(name)
			if err != nil {
				b.Fatal(err)
			}
			defer v.Close()
			var last evaluation.Summary
			for i := 0; i < b.N; i++ {
				r, err := evaluation.MeasureTiming(v, evaluation.DefaultWarmup, evaluation.DefaultObservations)
				if err != nil {
					b.Fatal(err)
				}
				last = r.Summary
			}
			b.ReportMetric(float64(last.Median), "median-ns")
			b.ReportMetric(float64(last.Jitter), "jitter-ns")
			b.ReportMetric(float64(last.P99), "p99-ns")
		})
	}
}

// --- Fig. 7(c): memory footprint ----------------------------------------------------

// BenchmarkFig7c reports the live-heap footprint of constructing each
// variant's infrastructure.
func BenchmarkFig7c(b *testing.B) {
	for _, name := range evaluation.VariantNames {
		name := name
		b.Run(name, func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				r, err := evaluation.MeasureFootprint(name)
				if err != nil {
					b.Fatal(err)
				}
				bytes = r.Bytes
			}
			b.ReportMetric(float64(bytes), "footprint-B")
		})
	}
}

// --- Ablations ----------------------------------------------------------------------

// BenchmarkAblationAssignChecks isolates the cost of the dynamic RTSJ
// assignment-rule check — the price of simulating scoped memory.
func BenchmarkAblationAssignChecks(b *testing.B) {
	rt := memory.NewRuntime()
	ctx, err := memory.NewContext(rt.Immortal(), false)
	if err != nil {
		b.Fatal(err)
	}
	defer ctx.Close()
	holder, err := ctx.Alloc(16, nil)
	if err != nil {
		b.Fatal(err)
	}
	value, err := ctx.Alloc(16, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("checked-store", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := holder.SetField("x", value); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("raw-check-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := memory.CheckAssign(holder.Area(), value.Area()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationInterceptorChain measures membrane dispatch as the
// interceptor chain deepens — the indirection MERGE-ALL removes.
func BenchmarkAblationInterceptorChain(b *testing.B) {
	rt := memory.NewRuntime()
	ctx, err := memory.NewContext(rt.Immortal(), false)
	if err != nil {
		b.Fatal(err)
	}
	defer ctx.Close()
	env := thread.NewEnv(nil, ctx)
	for _, depth := range []int{0, 1, 2, 3} {
		var ints []membrane.Interceptor
		for i := 0; i < depth; i++ {
			ints = append(ints, &membrane.ActiveInterceptor{})
		}
		m, err := membrane.New("bench", &assembly.StubContent{}, ints...)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Lifecycle().Start(); err != nil {
			b.Fatal(err)
		}
		b.Run(string(rune('0'+depth))+"-interceptors", func(b *testing.B) {
			inv := &membrane.Invocation{Interface: "i", Op: "op", Arg: 1, Env: env}
			for i := 0; i < b.N; i++ {
				if _, err := m.Dispatch(inv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationBufferCapacity sweeps the async buffer capacity
// around the paper's bufferSize="10".
func BenchmarkAblationBufferCapacity(b *testing.B) {
	rt := memory.NewRuntime()
	ctx, err := memory.NewContext(rt.Immortal(), false)
	if err != nil {
		b.Fatal(err)
	}
	defer ctx.Close()
	for _, capacity := range []int{1, 10, 64, 256} {
		buf, err := comm.NewRTBuffer("bench", capacity, rt.Immortal(), 64)
		if err != nil {
			b.Fatal(err)
		}
		name := map[int]string{1: "cap-1", 10: "cap-10", 64: "cap-64", 256: "cap-256"}[capacity]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := buf.Enqueue(ctx, i); err != nil {
					b.Fatal(err)
				}
				if _, ok, err := buf.Dequeue(ctx); err != nil || !ok {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationScopeEnter measures the scoped-memory round trip
// behind the scope-enter pattern (enter, allocate, reclaim).
func BenchmarkAblationScopeEnter(b *testing.B) {
	rt := memory.NewRuntime()
	scope, err := rt.NewScoped("bench", 28<<10)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := memory.NewContext(rt.Immortal(), false)
	if err != nil {
		b.Fatal(err)
	}
	defer ctx.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := ctx.Enter(scope, func() error {
			_, err := ctx.Alloc(64, nil)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPatternDispatch compares the sync-call cost across
// the deployed cross-scope patterns.
func BenchmarkAblationPatternDispatch(b *testing.B) {
	rt := memory.NewRuntime()
	scope, err := rt.NewScoped("bench", 28<<10)
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := memory.NewContext(rt.Immortal(), false)
	if err != nil {
		b.Fatal(err)
	}
	defer ctx.Close()
	env := thread.NewEnv(nil, ctx)

	cases := []struct {
		name    string
		pattern patterns.Kind
		scope   *memory.Area
	}{
		{"none", patterns.None, nil},
		{"deep-copy", patterns.DeepCopy, nil},
		{"scope-enter", patterns.ScopeEnter, scope},
	}
	for _, c := range cases {
		m, err := membrane.New("srv", &assembly.StubContent{})
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Lifecycle().Start(); err != nil {
			b.Fatal(err)
		}
		var pre []membrane.Interceptor
		if c.pattern != patterns.None {
			mi, err := membrane.NewMemoryInterceptor(c.pattern, c.scope)
			if err != nil {
				b.Fatal(err)
			}
			pre = append(pre, mi)
		}
		port, err := membrane.NewSyncPort(m, "i", pre...)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := port.Call(env, "op", i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSimulatedSchedule measures a full scheduled run of
// the motivation example per mode (virtual 100ms, wall-clock cost of
// the simulation machinery itself).
func BenchmarkAblationSimulatedSchedule(b *testing.B) {
	for _, mode := range []assembly.Mode{assembly.Soleil, assembly.MergeAll, assembly.UltraMerge} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				arch, err := fixture.MotivationExample()
				if err != nil {
					b.Fatal(err)
				}
				reg := assembly.NewRegistry()
				if err := scenario.NewContents().Register(reg); err != nil {
					b.Fatal(err)
				}
				sys, err := assembly.Deploy(arch, assembly.Config{Mode: mode, Registry: reg})
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.RunFor(100 * time.Millisecond); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
