// Command soleil is the framework's toolchain front end:
//
//	soleil validate [-json] [-sarif F] [-max-severity S] <arch.xml>  RTSJ conformance check (ADL level)
//	soleil vet [-json] [-sarif F] [-adl arch.xml] [packages]   RTSJ conformance check (source level)
//	soleil vet -arch -adl arch.xml [-deploy deploy.xml] [packages]   whole-architecture suite (SA05–SA11)
//	soleil analyze <arch.xml>                  schedulability analysis
//	soleil generate -mode M -out DIR <arch.xml>  emit infrastructure source
//	soleil genreport <arch.xml>                Sect. 5.2 requirements report
//	soleil suggest <arch.xml>                  apply suggested patterns, emit completed ADL
//	soleil run -mode M -duration D <arch.xml>  deploy (stub contents) and simulate
//	soleil load -scenario S -components N -rate R -duration D -seed S   open-loop load scenario
//	soleil serve -node N -adl arch.xml -deploy deploy.xml   run one cluster node
//	soleil cluster -adl arch.xml -deploy deploy.xml [-serve ADDR]   cluster-wide status
//	soleil top ADDR                            one-shot snapshot of a serving system
//
// validate and vet print human-readable diagnostics on stderr; with
// -json the machine-readable form — one shared {rule, severity,
// subject, message, suggestion, pos} schema for both — goes to
// stdout. -max-severity picks the severity that makes the exit status
// non-zero, so CI can gate on warnings when desired.
//
// run accepts -metrics ADDR to serve live observability endpoints
// (/metrics, /healthz, /arch, /top, /trace, /debug/flightrecorder),
// -trace-json FILE to write a Chrome trace_event file of the run,
// -flightrecorder-json FILE to write the black-box event timeline,
// and -hold D to keep the endpoints up after the simulation finishes.
//
// top works against a single node or a cluster coordinator (whose
// /top federates every node); top -flightrecorder fetches the flight
// recorder instead — merged cluster-wide from a coordinator. A
// serving node also dumps its flight recorder to stderr on SIGQUIT.
//
// Modes: SOLEIL, MERGE-ALL, ULTRA-MERGE.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"soleil/internal/adl"
	"soleil/internal/assembly"
	"soleil/internal/cluster"
	"soleil/internal/fault"
	"soleil/internal/generate"
	"soleil/internal/lint"
	"soleil/internal/membrane"
	"soleil/internal/model"
	"soleil/internal/obs"
	"soleil/internal/reconfig"
	"soleil/internal/rtsj/analysis"
	"soleil/internal/validate"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: soleil <validate|vet|analyze|generate|genreport|suggest|run|load|serve|cluster|top> [flags] [args]")
	}
	switch args[0] {
	case "validate":
		return cmdValidate(args[1:])
	case "vet":
		return cmdVet(args[1:])
	case "analyze":
		return cmdAnalyze(args[1:])
	case "generate":
		return cmdGenerate(args[1:])
	case "genreport":
		return cmdGenReport(args[1:])
	case "suggest":
		return cmdSuggest(args[1:])
	case "run":
		return cmdRun(args[1:])
	case "load":
		return cmdLoad(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "cluster":
		return cmdCluster(args[1:])
	case "top":
		return cmdTop(args[1:])
	default:
		return fmt.Errorf("soleil: unknown command %q", args[0])
	}
}

// cmdTop fetches the one-shot textual snapshot from a system serving
// its observability endpoints: a single node (soleil run -metrics
// ADDR, soleil serve, or any program calling obs.Serve) or a cluster
// coordinator (soleil cluster -serve ADDR), whose /top federates
// every node's view. -flightrecorder fetches the black-box event
// timeline instead — per-node from an agent, merged cluster-wide
// from a coordinator.
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	dump := fs.Bool("flightrecorder", false,
		"fetch the flight-recorder timeline instead of the metrics snapshot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: soleil top [-flightrecorder] HOST:PORT")
	}
	host := fs.Arg(0)
	paths := []string{"/top"}
	if *dump {
		// A node agent serves /debug/flightrecorder; a coordinator
		// serves the merged timeline on /flightrecorder. Try both so
		// the command works against either.
		paths = []string{"/debug/flightrecorder?format=text", "/flightrecorder?format=text"}
	}
	var lastErr error
	for _, p := range paths {
		resp, err := http.Get("http://" + host + p)
		if err != nil {
			lastErr = fmt.Errorf("soleil: %w", err)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			lastErr = fmt.Errorf("soleil: %s%s returned %s", host, p, resp.Status)
			continue
		}
		_, err = io.Copy(os.Stdout, resp.Body)
		resp.Body.Close()
		return err
	}
	return lastErr
}

// cmdSuggest applies the validator's cross-scope pattern suggestions
// and re-emits the completed ADL on stdout — the design flow's
// "possible solutions proposed" step as a batch tool.
func cmdSuggest(args []string) error {
	arch, err := loadArch(args)
	if err != nil {
		return err
	}
	changed, err := validate.ApplySuggestedPatterns(arch)
	if err != nil {
		return err
	}
	for _, b := range changed {
		fmt.Fprintf(os.Stderr, "applied pattern %q to %s\n", b.Pattern, b)
	}
	if report := validate.Validate(arch); !report.OK() {
		for _, d := range report.Errors() {
			fmt.Fprintln(os.Stderr, d)
		}
		return fmt.Errorf("soleil: %d errors remain beyond pattern selection", len(report.Errors()))
	}
	return adl.Encode(os.Stdout, arch)
}

func loadArch(args []string) (*model.Architecture, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("soleil: expected exactly one architecture file, got %d args", len(args))
	}
	return adl.DecodeFile(args[0])
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false,
		"emit diagnostics as JSON on stdout (shared schema with soleil vet -json)")
	deployPath := fs.String("deploy", "",
		"deployment descriptor to check against the architecture (RT14/RT15/RT17 cross-node rules)")
	maxSev := fs.String("max-severity", "error",
		"lowest severity that makes the exit status non-zero (info, warning, error)")
	sarifOut := fs.String("sarif", "",
		"write diagnostics as a SARIF 2.1.0 log to FILE (\"-\" for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	threshold, err := validate.ParseSeverity(*maxSev)
	if err != nil {
		return err
	}
	arch, err := loadArch(fs.Args())
	if err != nil {
		return err
	}
	report := validate.Validate(arch)
	if *deployPath != "" {
		dep, err := adl.DecodeDeploymentFile(*deployPath)
		if err != nil {
			return err
		}
		depReport, err := validate.ValidateDeployment(arch, dep)
		if err != nil {
			return err
		}
		report.Diagnostics = append(report.Diagnostics, depReport.Diagnostics...)
	}
	// Human-readable diagnostics go to stderr; stdout is reserved for
	// the machine-readable form.
	for _, d := range report.Diagnostics {
		fmt.Fprintln(os.Stderr, d)
	}
	if *jsonOut {
		if err := validate.EncodeJSON(os.Stdout, report.Diagnostics); err != nil {
			return err
		}
	}
	if *sarifOut != "" {
		if err := writeSARIF(*sarifOut, report.Diagnostics, "soleil-validate", nil); err != nil {
			return err
		}
	}
	if n := validate.CountAtLeast(report.Diagnostics, threshold); n > 0 {
		return fmt.Errorf("soleil: architecture %q has %d finding(s) at or above severity %v",
			arch.Name(), n, threshold)
	}
	fmt.Fprintf(os.Stderr, "architecture %q is RTSJ-compliant (%d components, %d bindings)\n",
		arch.Name(), len(arch.Components()), len(arch.Bindings()))
	return nil
}

// cmdVet runs the source-level conformance suite (internal/lint) over
// Go packages: the static counterpart of cmdValidate's model checks.
func cmdVet(args []string) error {
	fs := flag.NewFlagSet("vet", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false,
		"emit diagnostics as JSON on stdout (shared schema with soleil validate -json)")
	adlPath := fs.String("adl", "",
		"architecture file for the archconform pass (omit to skip SA04)")
	deployPath := fs.String("deploy", "",
		"deployment descriptor checked against -adl (adds RT14/RT15/RT17 cross-node findings)")
	analyzers := fs.String("analyzers", "", "comma-separated analyzer selection (default: all)")
	archMode := fs.Bool("arch", false,
		"run the whole-architecture suite (SA05–SA11) instead of the per-function passes; requires -adl")
	maxSev := fs.String("max-severity", "warning",
		"lowest severity that makes the exit status non-zero (info, warning, error)")
	sarifOut := fs.String("sarif", "",
		"write diagnostics as a SARIF 2.1.0 log to FILE (\"-\" for stdout)")
	factsDir := fs.String("facts", defaultFactsDir(),
		"directory for the interprocedural summary cache (empty to disable)")
	factsStats := fs.Bool("facts-stats", false,
		"print the summary-cache hit/miss counters on stderr")
	baseline := fs.String("baseline", "",
		"baseline gating: write:FILE snapshots the findings as accepted debt, "+
			"check:FILE (or FILE) subtracts the snapshot so only new findings gate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	threshold, err := validate.ParseSeverity(*maxSev)
	if err != nil {
		return err
	}
	baseMode, basePath, err := lint.ParseBaselineFlag(*baseline)
	if err != nil {
		return err
	}
	var stats lint.CacheStats
	opts := lint.Options{
		Patterns: fs.Args(),
		ADL:      *adlPath,
		Deploy:   *deployPath,
		FactsDir: *factsDir,
		Stats:    &stats,
	}
	var diags []validate.Diagnostic
	if *archMode {
		if *adlPath == "" {
			return fmt.Errorf("soleil: vet -arch needs -adl (the wait graph comes from the bindings)")
		}
		if opts.ArchAnalyzers, err = lint.ArchByName(*analyzers); err != nil {
			return err
		}
		diags, err = lint.RunArch(opts)
	} else {
		if opts.Analyzers, err = lint.ByName(*analyzers); err != nil {
			return err
		}
		diags, err = lint.Run(opts)
	}
	if err != nil {
		return err
	}
	if *factsStats {
		fmt.Fprintln(os.Stderr, stats)
	}
	switch baseMode {
	case "write":
		if err := lint.WriteBaseline(basePath, diags); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "soleil: baseline %s accepted %d finding(s)\n", basePath, len(diags))
		return nil
	case "check":
		fresh, stale, err := lint.CheckBaseline(basePath, diags)
		if err != nil {
			return err
		}
		if stale > 0 {
			fmt.Fprintf(os.Stderr, "soleil: baseline %s has %d stale entr(ies) — rewrite it with -baseline write:%s\n",
				basePath, stale, basePath)
		}
		diags = fresh
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if *jsonOut {
		if err := validate.EncodeJSON(os.Stdout, diags); err != nil {
			return err
		}
	}
	if *sarifOut != "" {
		if err := writeSARIF(*sarifOut, diags, "soleil-vet", lint.RuleDocs()); err != nil {
			return err
		}
	}
	if n := validate.CountAtLeast(diags, threshold); n > 0 {
		return fmt.Errorf("soleil: %d finding(s) at or above severity %v", n, threshold)
	}
	return nil
}

// defaultFactsDir is where `soleil vet` keeps its summary cache when
// -facts is not given: the user cache directory, so repeated runs in
// one checkout warm each other up. Empty (cache disabled) when no
// cache directory exists.
func defaultFactsDir() string {
	dir, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(dir, "soleil-lint-facts")
}

// writeSARIF renders diagnostics as a SARIF 2.1.0 log, relativizing
// positions against the working directory so code-scanning uploads
// resolve paths inside the repository checkout.
func writeSARIF(path string, diags []validate.Diagnostic, tool string, ruleDocs map[string]string) error {
	base, _ := os.Getwd()
	opts := validate.SARIFOptions{Tool: tool, Base: base, RuleDocs: ruleDocs}
	if path == "-" {
		return validate.EncodeSARIF(os.Stdout, diags, opts)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := validate.EncodeSARIF(f, diags, opts); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdAnalyze(args []string) error {
	arch, err := loadArch(args)
	if err != nil {
		return err
	}
	var tasks []analysis.Task
	for _, c := range arch.ComponentsOfKind(model.Active) {
		act := c.Activation()
		if act.Kind != model.PeriodicActivation || act.Cost <= 0 {
			continue
		}
		td, err := arch.EffectiveThreadDomain(c)
		if err != nil {
			return err
		}
		tasks = append(tasks, analysis.Task{
			Name: c.Name(), Period: act.Period, Cost: act.Cost,
			Deadline: act.Deadline, Priority: td.Domain().Priority,
		})
	}
	if len(tasks) == 0 {
		fmt.Println("no periodic components with cost budgets; nothing to analyze")
		return nil
	}
	u := analysis.Utilization(tasks)
	ok, _, bound := analysis.RMUtilizationTest(tasks)
	fmt.Printf("utilization %.3f (Liu-Layland bound for n=%d: %.3f, sufficient test: %v)\n",
		u, len(tasks), bound, ok)
	rs, err := analysis.ResponseTimeAnalysis(tasks)
	if err != nil {
		return err
	}
	schedulable := true
	for _, r := range rs {
		status := "OK"
		if !r.Schedulable {
			status = "MISS"
			schedulable = false
		}
		fmt.Printf("  %-20s worst-case response %10v  deadline %10v  [%s]\n",
			r.Task, r.WorstCase, r.Deadline, status)
	}
	if !schedulable {
		return fmt.Errorf("soleil: task set is not schedulable")
	}
	return nil
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	modeName := fs.String("mode", "SOLEIL", "generation mode: SOLEIL, MERGE-ALL or ULTRA-MERGE")
	out := fs.String("out", "gen", "output directory")
	withMain := fs.Bool("main", true, "emit a runnable main")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode, err := assembly.ParseMode(*modeName)
	if err != nil {
		return err
	}
	arch, err := loadArch(fs.Args())
	if err != nil {
		return err
	}
	files, err := generate.Generate(arch, generate.Options{Mode: mode, Main: *withMain})
	if err != nil {
		return err
	}
	if err := generate.WriteFiles(*out, files); err != nil {
		return err
	}
	for _, f := range files {
		fmt.Printf("wrote %s/%s\n", *out, f.Name)
	}
	report := generate.CheckRequirements(files, mode)
	return report.Render(os.Stdout)
}

func cmdGenReport(args []string) error {
	arch, err := loadArch(args)
	if err != nil {
		return err
	}
	for _, mode := range []assembly.Mode{assembly.Soleil, assembly.MergeAll, assembly.UltraMerge} {
		files, err := generate.Generate(arch, generate.Options{Mode: mode, Main: true})
		if err != nil {
			return err
		}
		report := generate.CheckRequirements(files, mode)
		if err := report.Render(os.Stdout); err != nil {
			return err
		}
		if !report.OK() {
			return fmt.Errorf("soleil: mode %v fails the code-generation requirements", mode)
		}
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	modeName := fs.String("mode", "SOLEIL", "infrastructure mode")
	duration := fs.Duration("duration", 100*time.Millisecond, "virtual-time horizon")
	traceN := fs.Int("trace", 0, "print the first N scheduling events (0 = off)")
	faults := fs.String("faults", "",
		"run under injected faults, e.g. \"panic=0.05,seed=42\"; deploys panic guards, resilient threads and a restarting supervisor (SOLEIL mode)")
	metricsAddr := fs.String("metrics", "",
		"serve live observability endpoints (/metrics, /healthz, /arch, /top, /trace) on HOST:PORT (\":0\" picks a free port)")
	traceJSON := fs.String("trace-json", "",
		"write a Chrome trace_event JSON file of the run (open in Perfetto or chrome://tracing)")
	frJSON := fs.String("flightrecorder-json", "",
		"write the flight-recorder event timeline (deadline misses, over-budget dispatches, lifecycle and SLO transitions) to this JSON file")
	hold := fs.Duration("hold", 0,
		"keep the observability endpoints up this long after the run (needs -metrics)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode, err := assembly.ParseMode(*modeName)
	if err != nil {
		return err
	}
	arch, err := loadArch(fs.Args())
	if err != nil {
		return err
	}
	cfg := assembly.Config{Mode: mode, AllowStubs: true}
	observing := *metricsAddr != "" || *traceJSON != "" || *frJSON != ""
	var reg *obs.Registry
	var tracer *obs.Tracer
	var rec *obs.Recorder
	if observing {
		reg = obs.NewRegistry()
		tracer = obs.NewTracer(0)
		rec = obs.NewRecorder(arch.Name(), 0)
		reg.SetRecorder(rec)
		defer rec.Close()
		cfg.Metrics = reg
		cfg.Tracer = tracer
	}
	var spec fault.Spec
	var guards []*fault.PanicInterceptor
	if *faults != "" {
		if spec, err = fault.ParseSpec(*faults); err != nil {
			return err
		}
		if mode != assembly.Soleil {
			return fmt.Errorf("soleil: -faults needs the SOLEIL mode (membranes carry the panic guards)")
		}
		cfg.Resilient = true
		cfg.Interceptors = func(component string) []membrane.Interceptor {
			guard := fault.NewPanicInterceptor(component)
			guards = append(guards, guard)
			ints := []membrane.Interceptor{guard}
			if spec.Panic > 0 {
				ints = append(ints, fault.NewChaosInterceptor(spec.Panic, spec.Seed))
			}
			return ints
		}
	}
	sys, err := assembly.Deploy(arch, cfg)
	if err != nil {
		return err
	}
	if *traceN > 0 {
		sys.Scheduler().EnableTrace(*traceN)
	} else if *traceJSON != "" {
		sys.Scheduler().EnableTrace(0) // unbounded: the whole schedule joins the exported trace
	}
	mgr, err := reconfig.NewManager(sys)
	if err != nil {
		return err
	}
	var sup *fault.Supervisor
	if *faults != "" {
		var supOpts []fault.SupervisorOption
		if reg != nil {
			supOpts = append(supOpts, fault.WithRegistry(reg))
		}
		if sup, err = fault.NewSupervisor(mgr, supOpts...); err != nil {
			return err
		}
		for _, c := range arch.Components() {
			if c.Kind() != model.Active && c.Kind() != model.Passive {
				continue
			}
			name := c.Name()
			probes := []fault.Probe{
				fault.FailureProbe(func() (bool, error) { return sys.ComponentFailed(name) }),
			}
			if reg != nil {
				// The shared registry doubles as the supervisor's
				// health source: deadline-miss bursts trip a restart.
				probes = append(probes, fault.MetricsMissProbe(reg.Component(name), 3))
			}
			sup.Watch(name, fault.Policy{Directive: fault.RestartOneForOne, MaxRestarts: 10, Window: time.Second},
				probes...)
		}
		sup.Start(time.Millisecond)
		defer sup.Close()
	}
	if *metricsAddr != "" {
		bound, shutdown, err := obs.Serve(*metricsAddr, obs.HandlerOptions{
			Registry: reg,
			Tracer:   tracer,
			Recorder: rec,
			Arch:     archView(mgr),
		})
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Printf("observability: http://%s/{metrics,healthz,arch,top,trace}\n", bound)
	}
	epoch := time.Now()
	if err := sys.RunFor(*duration); err != nil {
		return err
	}
	if observing {
		sys.FlushSchedTrace(epoch)
	}
	if *traceJSON != "" {
		f, err := os.Create(*traceJSON)
		if err != nil {
			return err
		}
		if err := tracer.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d trace spans to %s\n", tracer.Total(), *traceJSON)
	}
	if *frJSON != "" {
		f, err := os.Create(*frJSON)
		if err != nil {
			return err
		}
		evs := rec.Events()
		if err := obs.WriteEventsJSON(f, evs); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d flight-recorder events to %s (%d recorded)\n", len(evs), *frJSON, rec.Total())
	}
	if sup != nil {
		sup.Close()
		sup.Poll() // one final pass over anything recorded late
	}
	if *traceN > 0 {
		fmt.Println("schedule trace:")
		if err := sys.Scheduler().WriteTrace(os.Stdout); err != nil {
			return err
		}
	}
	fmt.Printf("simulated %v of %q in mode %v\n", *duration, arch.Name(), mode)
	for _, c := range arch.ComponentsOfKind(model.Active) {
		th, ok := sys.Thread(c.Name())
		if !ok {
			continue
		}
		st := th.Task().Stats()
		fmt.Printf("  %-20s releases=%-5d completions=%-5d misses=%-3d maxResponse=%v\n",
			c.Name(), st.Releases, st.Completions, st.Misses, st.MaxResponse)
	}
	f := sys.MemoryRuntime().Footprint()
	fmt.Printf("  memory: immortal=%dB heap=%dB scoped-budget=%dB allocations=%d\n",
		f.ImmortalBytes, f.HeapBytes, f.ScopedBudget, f.Allocations)
	for _, b := range sys.Buffers() {
		st := b.Stats()
		fmt.Printf("  buffer %-40s enq=%-5d deq=%-5d dropped=%-3d maxDepth=%d overflow=%.1f%%\n",
			b.Name(), st.Enqueued, st.Dequeued, st.Dropped, st.MaxDepth, st.OverflowRate()*100)
	}
	if sup != nil {
		var panics int64
		for _, g := range guards {
			panics += g.Recovered()
		}
		fmt.Printf("  faults: %d panics recovered; system errors absorbed: %d\n", panics, len(sys.Errors()))
		actions := sup.Actions()
		fmt.Printf("  supervisor: %d action(s)\n", len(actions))
		for i, a := range actions {
			if i >= 10 {
				fmt.Printf("    ... %d more\n", len(actions)-10)
				break
			}
			fmt.Printf("    %s\n", a)
		}
	}
	if reg != nil {
		fmt.Println()
		if err := reg.WriteTop(os.Stdout); err != nil {
			return err
		}
	}
	if *metricsAddr != "" && *hold > 0 {
		fmt.Printf("holding observability endpoints for %v (try: soleil top HOST:PORT)\n", *hold)
		time.Sleep(*hold)
	}
	return nil
}

// cmdServe runs one node of a cluster deployment: the architecture is
// partitioned by the deployment descriptor and this process brings up
// the named node's slice — components, export/import links, fault
// supervisor, pacer and observability endpoint — with no hand-written
// transport wiring.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	node := fs.String("node", "", "node name from the deployment descriptor (required)")
	adlPath := fs.String("adl", "", "architecture file (required)")
	deployPath := fs.String("deploy", "", "deployment descriptor file (required)")
	listen := fs.String("listen", "", "override the node's link address (\":0\" picks a free port)")
	metricsAddr := fs.String("metrics", "", "override the node's observability address")
	beat := fs.Duration("beat", 0, "link heartbeat interval (default 250ms)")
	allowStubs := fs.Bool("allow-stubs", true, "deploy stub content for unregistered classes")
	forDur := fs.Duration("for", 0, "serve this long then exit (0 = until SIGINT/SIGTERM)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *node == "" || *adlPath == "" || *deployPath == "" {
		return fmt.Errorf("usage: soleil serve -node N -adl arch.xml -deploy deploy.xml")
	}
	arch, err := adl.DecodeFile(*adlPath)
	if err != nil {
		return err
	}
	dep, err := adl.DecodeDeploymentFile(*deployPath)
	if err != nil {
		return err
	}
	plan, err := cluster.Compute(arch, dep)
	if err != nil {
		return err
	}
	ag, err := cluster.Start(cluster.AgentConfig{
		Node:        *node,
		Plan:        plan,
		ListenAddr:  *listen,
		MetricsAddr: *metricsAddr,
		Beat:        *beat,
		AllowStubs:  *allowStubs,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, "serve: "+format+"\n", a...)
		},
	})
	if err != nil {
		return err
	}
	defer ag.Close()
	np, _ := plan.Node(*node)
	fmt.Printf("node %s up: links on %s", *node, ag.Addr())
	if ag.MetricsAddr() != "" {
		fmt.Printf(", observability on http://%s/{metrics,healthz,arch,top,debug/flightrecorder}", ag.MetricsAddr())
	}
	fmt.Printf(" (%d components, %d exports, %d imports)\n",
		len(np.Primitives), len(np.Exports), len(np.Imports))

	// SIGQUIT dumps the flight recorder without stopping the node —
	// the embedded-systems equivalent of pulling the black box.
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	defer signal.Stop(quit)
	go func() {
		for range quit {
			rec := ag.FlightRecorder()
			rec.Trigger("sigquit")
			fmt.Fprintf(os.Stderr, "serve: flight recorder (%d events recorded):\n", rec.Total())
			_ = obs.WriteEventsText(os.Stderr, rec.Events())
		}
	}()

	if *forDur > 0 {
		time.Sleep(*forDur)
		return nil
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "serve: shutting down")
	return nil
}

// cmdCluster is the coordinator face: one-shot aggregated health for
// scripts, or -serve to keep federated /status and /metrics endpoints
// up for scrapers.
func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	adlPath := fs.String("adl", "", "architecture file (required)")
	deployPath := fs.String("deploy", "", "deployment descriptor file (required)")
	serveAddr := fs.String("serve", "",
		"serve the aggregated /status, /metrics, /top and /flightrecorder on HOST:PORT instead of printing once")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *adlPath == "" || *deployPath == "" {
		return fmt.Errorf("usage: soleil cluster -adl arch.xml -deploy deploy.xml [-serve ADDR]")
	}
	arch, err := adl.DecodeFile(*adlPath)
	if err != nil {
		return err
	}
	dep, err := adl.DecodeDeploymentFile(*deployPath)
	if err != nil {
		return err
	}
	plan, err := cluster.Compute(arch, dep)
	if err != nil {
		return err
	}
	coord := cluster.NewCoordinator(plan, nil)
	if *serveAddr != "" {
		bound, shutdown, err := coord.Serve(*serveAddr)
		if err != nil {
			return err
		}
		defer shutdown()
		fmt.Printf("coordinator: http://%s/{status,metrics,top,flightrecorder}\n", bound)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		return nil
	}
	st := coord.Status()
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(st); err != nil {
		return err
	}
	if !st.Healthy {
		return fmt.Errorf("soleil: cluster %q is unhealthy", st.Architecture)
	}
	return nil
}

// archView adapts the reconfiguration manager's introspection
// snapshot into the JSON the /arch endpoint serves.
func archView(mgr *reconfig.Manager) func() any {
	type component struct {
		Name         string   `json:"name"`
		Kind         string   `json:"kind"`
		Started      bool     `json:"started"`
		Failed       bool     `json:"failed,omitempty"`
		FailureCause string   `json:"failureCause,omitempty"`
		Membrane     bool     `json:"membrane"`
		Controllers  []string `json:"controllers,omitempty"`
	}
	type view struct {
		Mode       string      `json:"mode"`
		Components []component `json:"components"`
		Domains    []string    `json:"threadDomains,omitempty"`
		Areas      []string    `json:"memoryAreas,omitempty"`
		Composites []string    `json:"composites,omitempty"`
	}
	return func() any {
		snap := mgr.Introspect()
		v := view{
			Mode:       snap.Mode.String(),
			Domains:    snap.Domains,
			Areas:      snap.Areas,
			Composites: snap.Composites,
		}
		for _, c := range snap.Components {
			cc := component{
				Name: c.Name, Kind: c.Kind.String(), Started: c.Started,
				Failed: c.Failed, Membrane: c.HasMembrane, Controllers: c.Controllers,
			}
			if c.FailureCause != nil {
				cc.FailureCause = c.FailureCause.Error()
			}
			v.Components = append(v.Components, cc)
		}
		return v
	}
}
