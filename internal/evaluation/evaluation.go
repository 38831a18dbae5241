// Package evaluation reproduces the paper's evaluation (Sect. 5.1,
// Fig. 7): the motivation-example transaction — one complete
// iteration starting from the ProductionLine, through the
// MonitoringSystem's evaluation, the synchronous Console call on
// anomalies and the asynchronous AuditLog hop — measured on four
// implementations: the hand-written OO baseline and the framework
// infrastructure in its SOLEIL, MERGE-ALL and ULTRA-MERGE modes.
//
// Timing follows the paper's method: wall-clock measurement of the
// complete iteration, steady-state observations only (a warm-up
// prefix is discarded), 10,000 observations by default.
package evaluation

import (
	"fmt"
	"time"

	"soleil/internal/assembly"
	"soleil/internal/baseline"
	"soleil/internal/fixture"
	"soleil/internal/rtsj/memory"
	"soleil/internal/rtsj/thread"
	"soleil/internal/scenario"
)

// Defaults of the paper's benchmarking method.
const (
	// DefaultObservations is the paper's 10,000 steady-state
	// observations.
	DefaultObservations = 10000
	// DefaultWarmup is the cold-start prefix discarded before
	// steady state.
	DefaultWarmup = 2000
)

// VariantNames in the paper's order.
var VariantNames = []string{"OO", "SOLEIL", "MERGE-ALL", "ULTRA-MERGE"}

// Variant is one runnable implementation of the evaluation scenario.
type Variant struct {
	Name string
	// Transaction runs one complete iteration.
	Transaction func() error
	// Checksum exposes the audit checksum for cross-validation.
	Checksum func() uint64
	// Close releases the variant's resources.
	Close func()
}

// New builds the named variant.
func New(name string) (*Variant, error) {
	switch name {
	case "OO":
		return NewOO()
	case "SOLEIL":
		return NewFramework(assembly.Soleil)
	case "MERGE-ALL":
		return NewFramework(assembly.MergeAll)
	case "ULTRA-MERGE":
		return NewFramework(assembly.UltraMerge)
	default:
		return nil, fmt.Errorf("evaluation: unknown variant %q (have %v)", name, VariantNames)
	}
}

// NewOO builds the hand-written baseline.
func NewOO() (*Variant, error) {
	app, err := baseline.New()
	if err != nil {
		return nil, err
	}
	return &Variant{
		Name:        "OO",
		Transaction: app.Transaction,
		Checksum:    app.Checksum,
		Close:       app.Close,
	}, nil
}

// NewFramework deploys the motivation example (Fig. 4) in the given
// assembly mode and drives its dataplane directly: the same membranes,
// ports, buffers and pattern machinery the scheduled system uses, but
// called synchronously so each iteration's wall-clock time is the
// infrastructure cost the paper measures.
func NewFramework(mode assembly.Mode) (*Variant, error) {
	arch, err := fixture.MotivationExample()
	if err != nil {
		return nil, err
	}
	contents := scenario.NewContents()
	reg := assembly.NewRegistry()
	if err := contents.Register(reg); err != nil {
		return nil, err
	}
	sys, err := assembly.Deploy(arch, assembly.Config{Mode: mode, Registry: reg})
	if err != nil {
		return nil, err
	}
	if err := sys.Start(); err != nil {
		return nil, err
	}
	// The driving environment mirrors the NHRT producers: a no-heap
	// context rooted in immortal memory.
	ctx, err := memory.NewContext(sys.MemoryRuntime().Immortal(), true)
	if err != nil {
		return nil, err
	}
	env := thread.NewEnv(nil, ctx)

	line, ok := sys.Node(fixture.ProductionLine)
	if !ok {
		return nil, fmt.Errorf("evaluation: ProductionLine node missing")
	}
	monitor, ok := sys.Node(fixture.MonitoringSystem)
	if !ok {
		return nil, fmt.Errorf("evaluation: MonitoringSystem node missing")
	}
	audit, ok := sys.Node(fixture.Audit)
	if !ok {
		return nil, fmt.Errorf("evaluation: Audit node missing")
	}

	return &Variant{
		Name: mode.String(),
		Transaction: func() error {
			if err := line.Activate(env); err != nil {
				return err
			}
			if _, err := monitor.Deliver(env); err != nil {
				return err
			}
			_, err := audit.Deliver(env)
			return err
		},
		Checksum: contents.Audit.Checksum,
		Close:    ctx.Close,
	}, nil
}

// TimingResult is one variant's Fig. 7(a)/(b) measurement.
type TimingResult struct {
	Variant string
	Summary Summary
	Samples []time.Duration
}

// MeasureTiming runs warmup+observations transactions on v and
// summarizes the steady-state samples: the first warmup (cold-start)
// timings are discarded.
func MeasureTiming(v *Variant, warmup, observations int) (TimingResult, error) {
	samples := make([]time.Duration, 0, observations)
	for i := 0; i < warmup+observations; i++ {
		start := time.Now()
		if err := v.Transaction(); err != nil {
			return TimingResult{}, fmt.Errorf("%s transaction %d: %w", v.Name, i, err)
		}
		d := time.Since(start)
		if i >= warmup {
			samples = append(samples, d)
		}
	}
	return TimingResult{Variant: v.Name, Summary: Summarize(samples), Samples: samples}, nil
}

// MeasureAllTimings measures every variant in the paper's order.
func MeasureAllTimings(warmup, observations int) ([]TimingResult, error) {
	out := make([]TimingResult, 0, len(VariantNames))
	for _, name := range VariantNames {
		v, err := New(name)
		if err != nil {
			return nil, err
		}
		r, err := MeasureTiming(v, warmup, observations)
		v.Close()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// FootprintResult is one variant's Fig. 7(c) measurement.
type FootprintResult struct {
	Variant string
	// Bytes is the live-heap growth attributable to constructing the
	// variant (infrastructure + contents + simulated memory regions).
	Bytes int64
}

// MeasureFootprint builds the named variant under heap accounting.
func MeasureFootprint(name string) (FootprintResult, error) {
	var buildErr error
	bytes, kept := heapGrowth(func() any {
		v, err := New(name)
		if err != nil {
			buildErr = err
			return nil
		}
		// Run a few transactions so lazily-allocated paths are
		// materialized, as in the paper's runtime footprints.
		for i := 0; i < 64; i++ {
			if err := v.Transaction(); err != nil {
				buildErr = err
				return nil
			}
		}
		return v
	})
	if buildErr != nil {
		return FootprintResult{}, buildErr
	}
	if v, ok := kept.(*Variant); ok && v != nil {
		defer v.Close()
	}
	return FootprintResult{Variant: name, Bytes: bytes}, nil
}

// MeasureAllFootprints measures every variant in the paper's order.
func MeasureAllFootprints() ([]FootprintResult, error) {
	out := make([]FootprintResult, 0, len(VariantNames))
	for _, name := range VariantNames {
		r, err := MeasureFootprint(name)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
