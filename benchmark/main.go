// Command benchmark measures the framework end to end on four seeded
// workloads and, in a separate traced run, splits the end-to-end
// latency into the layers a message crosses. README.md describes the
// workloads, the metrics and how to run and compare.
//
// Run it from the repository root (bash benchmark/run.sh builds and
// runs it) or from this directory with `go run .`; either way it reads
// the metric definitions and bounds from the repository's
// BENCHMARK.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// benchSpec is the part of BENCHMARK.json the benchmark reads: which
// metrics the last output line carries, and the regression bounds
// -compare judges by.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory or its
// parent (the repository root, when run from this directory).
func loadSpec() (*benchSpec, error) {
	var errs []error
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		b, err := os.ReadFile(p)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found: %w", errors.Join(errs...))
}

// buildDir is where run.sh puts build outputs; traces go under it by
// default.
func buildDir() string {
	if d := os.Getenv("BENCH_BUILD_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: pipeline-inproc, fanin-cluster3, sporadic-storm, fig7-closed or all")
	seed := fs.Int64("seed", 11, "seed of every generated input")
	seconds := fs.Float64("seconds", 30, "measuring time per workload, in seconds")
	trace := fs.String("trace", "0", "traced run: 1 writes spans under "+filepath.Join(buildDir(), "trace")+", any other value but 0 names the directory")
	quick := fs.Bool("quick", false, "2 rounds of 300 ms windows and, with -search, a search of a few short probes, for tests and smoke runs")
	search := fs.Bool("search", false, "search the highest sustainable rate of pipeline-inproc and fanin-cluster3 (adds about a minute each)")
	out := fs.String("out", "", "append each workload's full result as a JSON line to this file")
	compare := fs.Bool("compare", false, "compare two files written by -out: -compare OLD NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files: OLD NEW")
			return 2
		}
		if err := compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}

	o := options{seed: *seed, seconds: *seconds, quick: *quick, search: *search}
	switch *trace {
	case "0", "":
	case "1":
		o.traceDir = filepath.Join(buildDir(), "trace")
	default:
		o.traceDir = *trace
	}
	ws := workloads
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		ws = []workload{w}
	}

	results, err := runAll(ws, o, stdout, *out)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := summarize(spec, results, o.traceDir != "")
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// runAll runs each workload, prints its metrics and appends its result
// to the -out file.
func runAll(ws []workload, o options, stdout io.Writer, out string) ([]*result, error) {
	var results []*result
	for _, w := range ws {
		res, err := runWorkload(w, o)
		if err != nil {
			return nil, err
		}
		printResult(stdout, res)
		if out != "" {
			if err := appendResult(out, res); err != nil {
				return nil, err
			}
		}
		results = append(results, res)
	}
	return results, nil
}

func printResult(w io.Writer, r *result) {
	p := r.Provenance
	fmt.Fprintf(w, "%s: fingerprint %.16s, seed %d, %d rounds, commit %.12s, %s, GOMAXPROCS %d of %d CPUs (%s)\n",
		r.Workload, r.Fingerprint, p.Seed, p.Rounds, p.Commit, p.GoVersion, p.GOMAXPROCS, p.NumCPU, p.CPUModel)
	for _, m := range []map[string]metric{r.Metrics, r.Layers} {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-16s %-40s %16.4f %s\n", r.Workload, n, m[n].Value, m[n].Unit)
		}
	}
	if r.Search != nil {
		for _, pr := range r.Search.Probes {
			fmt.Fprintf(w, "  %-16s probe %9.0f/s  pass=%-5v valid=%-5v p99 %.0f us, failed %.4f, lateness p99 %.0f us\n",
				r.Workload, pr.Rate, pr.Pass, pr.Valid, pr.P99us, pr.FailedRatio, pr.LatenessP99us)
		}
	}
	if r.SpanFile != "" {
		fmt.Fprintf(w, "  %-16s spans written to %s\n", r.Workload, r.SpanFile)
	}
}

func appendResult(path string, r *result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summarize builds the last output line: the ledger totals and the
// metrics BENCHMARK.json names, end-to-end ones for an untraced run
// and per-layer ones for a traced run. With more than one workload
// each metric name is prefixed by its workload.
func summarize(spec *benchSpec, results []*result, traced bool) (string, error) {
	var names []string
	if traced {
		for _, m := range spec.PerLayer {
			names = append(names, m.Name)
		}
	} else {
		for _, m := range spec.EndToEnd {
			names = append(names, m.Name)
		}
	}
	sum := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, r := range results {
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		for _, n := range names {
			m, ok := r.Metrics[n]
			if !ok {
				m, ok = r.Layers[n]
			}
			if !ok {
				return "", fmt.Errorf("%s: BENCHMARK.json names %s, which this run did not measure", r.Workload, n)
			}
			key := n
			if len(results) > 1 {
				key = r.Workload + "/" + n
			}
			sum.Metrics[key] = m
		}
	}
	b, err := json.Marshal(sum)
	return string(b), err
}
