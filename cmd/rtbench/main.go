// Command rtbench regenerates the paper's evaluation (Sect. 5.1,
// Fig. 7) on this machine:
//
//	rtbench -panel a    # Fig. 7(a): execution-time distributions
//	rtbench -panel b    # Fig. 7(b): median and jitter table
//	rtbench -panel c    # Fig. 7(c): memory footprints
//	rtbench -panel d    # cluster links vs in-process bindings
//	rtbench -panel e    # observability-plane hot paths (ns/op, allocs/op)
//	rtbench -panel f    # open-loop scenario fleet: sustainable throughput
//	rtbench -panel all  # everything
//
// The workload is the motivation example's complete iteration,
// measured over steady-state observations on the four implementations
// (hand-written OO, SOLEIL, MERGE-ALL, ULTRA-MERGE). Use -csv to dump
// the raw panel-(a) samples.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"testing"
	"time"

	"soleil/internal/assembly"
	"soleil/internal/evaluation"
	"soleil/internal/fixture"
	"soleil/internal/generate"
	"soleil/internal/obs"
)

func main() {
	panel := flag.String("panel", "all", "which panel to regenerate: a, b, c (Fig. 7), d (cluster), e (observability) or all")
	observations := flag.Int("observations", evaluation.DefaultObservations, "steady-state observations per variant")
	warmup := flag.Int("warmup", evaluation.DefaultWarmup, "cold-start transactions discarded")
	buckets := flag.Int("buckets", 20, "histogram buckets for panel a")
	csv := flag.Bool("csv", false, "emit raw panel-(a) samples as CSV")
	messages := flag.Int("messages", 2000, "panel-(d) round trips per scenario")
	inflight := flag.Int("inflight", 4, "panel-(d) closed-loop window")
	clusterOut := flag.String("cluster-out", "BENCH_cluster.json", "panel-(d) JSON output file (empty = skip)")
	obsOut := flag.String("obs-out", "BENCH_obs.json", "panel-(e) JSON output file (empty = skip)")
	scenariosOut := flag.String("scenarios-out", "BENCH_scenarios.json", "panel-(f) JSON output file (empty = skip)")
	scenarioComponents := flag.Int("scenario-components", 24, "panel-(f) components per synthesized scenario")
	scenarioTrial := flag.Duration("scenario-trial", time.Second, "panel-(f) duration of each rate-search trial")
	scenarioBound := flag.Duration("scenario-bound", 50*time.Millisecond, "panel-(f) p99.9 ceiling a rate must sustain")
	flag.Parse()

	if err := run(os.Stdout, *panel, *observations, *warmup, *buckets, *csv, *messages, *inflight, *clusterOut, *obsOut,
		*scenariosOut, *scenarioComponents, *scenarioTrial, *scenarioBound); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(w io.Writer, panel string, observations, warmup, buckets int, csv bool, messages, inflight int, clusterOut, obsOut string,
	scenariosOut string, scenarioComponents int, scenarioTrial, scenarioBound time.Duration) error {
	wantTiming := panel == "a" || panel == "b" || panel == "all"
	var timings []evaluation.TimingResult
	if wantTiming {
		fmt.Fprintf(w, "collecting %d observations per variant (%d warm-up) ...\n\n", observations, warmup)
		var err error
		timings, err = evaluation.MeasureAllTimings(warmup, observations)
		if err != nil {
			return err
		}
	}

	switch panel {
	case "a":
		return panelA(w, timings, buckets, csv)
	case "b":
		return panelB(w, timings)
	case "c":
		return panelC(w)
	case "d":
		return panelD(w, messages, inflight, clusterOut)
	case "e":
		return panelE(w, obsOut)
	case "f":
		return panelF(w, scenariosOut, scenarioComponents, scenarioTrial, scenarioBound)
	case "all":
		if err := panelA(w, timings, buckets, csv); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := panelB(w, timings); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := panelC(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := panelD(w, messages, inflight, clusterOut); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := panelE(w, obsOut); err != nil {
			return err
		}
		fmt.Fprintln(w)
		return panelF(w, scenariosOut, scenarioComponents, scenarioTrial, scenarioBound)
	default:
		return fmt.Errorf("rtbench: unknown panel %q (want a, b, c, d, e, f or all)", panel)
	}
}

func panelA(w io.Writer, timings []evaluation.TimingResult, buckets int, csv bool) error {
	fmt.Fprintln(w, "=== Fig. 7(a): execution-time distribution ===")
	var ooSamples []time.Duration
	for _, r := range timings {
		if r.Variant == "OO" {
			ooSamples = r.Samples
		}
		if csv {
			fmt.Fprintf(w, "# %s\n", r.Variant)
			if err := evaluation.WriteCSV(w, r.Samples); err != nil {
				return err
			}
			continue
		}
		if err := evaluation.RenderHistogram(w, r.Variant, evaluation.Histogram(r.Samples, buckets)); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if csv {
		return nil
	}
	// The paper's non-determinism claim: the framework adds a constant
	// overhead, not new behaviour modes. Two views: tail heaviness
	// (p99/median — a framework-induced mode would fatten the tail
	// beyond the baseline's) and the median-aligned Kolmogorov-Smirnov
	// distance to the OO curve (0 = identical shapes).
	fmt.Fprintln(w, "determinism check (vs OO):")
	fmt.Fprintf(w, "  %-12s %12s %10s\n", "variant", "p99/median", "KS vs OO")
	for _, r := range timings {
		ratio := float64(r.Summary.P99) / float64(r.Summary.Median)
		if r.Variant == "OO" {
			fmt.Fprintf(w, "  %-12s %12.2f %10s\n", r.Variant, ratio, "-")
			continue
		}
		fmt.Fprintf(w, "  %-12s %12.2f %10.3f\n",
			r.Variant, ratio, evaluation.ShiftedKS(ooSamples, r.Samples))
	}
	return nil
}

// Fig. 7(b) reference values from the paper (µs, Pentium-4 2.66 GHz,
// Sun RTS 2.1, RT-Preempt Linux).
var paperB = map[string][2]float64{
	"OO":          {31.9, 0.457},
	"SOLEIL":      {33.5, 0.453},
	"MERGE-ALL":   {33.3, 0.387},
	"ULTRA-MERGE": {31.1, 0.384},
}

func panelB(w io.Writer, timings []evaluation.TimingResult) error {
	fmt.Fprintln(w, "=== Fig. 7(b): execution time median and jitter ===")
	fmt.Fprintf(w, "%-12s %14s %14s %10s | %12s %12s\n",
		"variant", "median", "jitter", "Δ vs OO", "paper-median", "paper-jitter")
	var ooMedian float64
	for _, r := range timings {
		if r.Variant == "OO" {
			ooMedian = float64(r.Summary.Median)
		}
	}
	for _, r := range timings {
		delta := "-"
		if r.Variant != "OO" && ooMedian > 0 {
			delta = fmt.Sprintf("%+.1f%%", (float64(r.Summary.Median)-ooMedian)/ooMedian*100)
		}
		ref := paperB[r.Variant]
		fmt.Fprintf(w, "%-12s %14v %14v %10s | %9.1fµs %9.3fµs\n",
			r.Variant, r.Summary.Median, r.Summary.Jitter, delta, ref[0], ref[1])
	}
	return nil
}

// Fig. 7(c) reference: the paper reports SOLEIL ≈ OO + 280 KB,
// MERGE-ALL ≈ OO + 4.7 KB, ULTRA-MERGE below OO.
func panelC(w io.Writer) error {
	fmt.Fprintf(w, "=== Fig. 7(c): memory footprint (median of %d builds per variant) ===\n", evaluation.FootprintBuilds)
	results, err := evaluation.MeasureAllFootprints()
	if err != nil {
		return err
	}
	var oo int64
	for _, r := range results {
		if r.Variant == "OO" {
			oo = r.Bytes
		}
	}
	fmt.Fprintf(w, "%-12s %12s %12s\n", "variant", "footprint", "Δ vs OO")
	for _, r := range results {
		delta := "-"
		if r.Variant != "OO" {
			delta = fmt.Sprintf("%+d B", r.Bytes-oo)
		}
		fmt.Fprintf(w, "%-12s %10d B %12s\n", r.Variant, r.Bytes, delta)
	}
	fmt.Fprintln(w, "paper: SOLEIL ≈ OO+280KB, MERGE-ALL ≈ OO+4.7KB, ULTRA-MERGE < OO")

	// The ULTRA-MERGE compactness the paper reports at runtime shows
	// up in this reproduction as generated-source compactness (Go has
	// no per-class metadata to shed): emit the generator's size
	// metrics alongside.
	fmt.Fprintln(w, "\ngenerated infrastructure source (motivation example):")
	arch, err := fixture.MotivationExample()
	if err != nil {
		return err
	}
	for _, mode := range []assembly.Mode{assembly.Soleil, assembly.MergeAll, assembly.UltraMerge} {
		files, err := generate.Generate(arch, generate.Options{Mode: mode, Main: true})
		if err != nil {
			return err
		}
		report := generate.CheckRequirements(files, mode)
		fmt.Fprintf(w, "%-12s %3d files %5d lines\n", mode, report.Files, report.Lines)
	}
	return nil
}

// panelD extends the evaluation past the paper: the cluster
// deployment plane's cost. The same ping-pong architecture runs once
// on one node (async bindings over in-process RTBuffers) and once
// partitioned across two nodes over loopback TCP; the table prices
// the node boundary in round-trip latency and throughput. Results
// also land in a JSON file so CI can archive the trend.
func panelD(w io.Writer, messages, inflight int, outFile string) error {
	fmt.Fprintln(w, "=== panel (d): cross-node links vs in-process async bindings ===")
	fmt.Fprintf(w, "%d round trips per scenario, %d in flight\n", messages, inflight)
	results, err := evaluation.MeasureCluster(messages, inflight)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %12s %12s %14s\n", "scenario", "RTT median", "RTT p99", "round trips/s")
	for _, r := range results {
		fmt.Fprintf(w, "%-18s %12v %12v %14.0f\n", r.Scenario, r.RTTMedian, r.RTTP99, r.Throughput)
	}
	meta := map[string]any{"messages": messages, "inflight": inflight}
	return writeBench(w, "d", outFile, meta, results)
}

// panelE prices the observability plane itself: the HDR histogram,
// the flight recorder and the heartbeat digest codec, measured with
// the testing harness so ns/op and allocs/op land in a JSON file CI
// can archive next to the soak summaries. Every recording path must
// report 0 allocs/op — the same claim `make benchcheck` enforces on
// the dispatch interceptors.
func panelE(w io.Writer, outFile string) error {
	fmt.Fprintln(w, "=== panel (e): observability-plane hot paths ===")

	type obsRow struct {
		Name        string  `json:"name"`
		NsPerOp     float64 `json:"nsPerOp"`
		AllocsPerOp int64   `json:"allocsPerOp"`
		BytesPerOp  int64   `json:"bytesPerOp"`
	}
	bench := func(name string, fn func(b *testing.B)) obsRow {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fn(b)
		})
		return obsRow{
			Name:        name,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
	}

	var hist obs.Histogram
	for i := 0; i < 10000; i++ {
		hist.Observe(time.Duration(1+i%4096) * time.Microsecond)
	}
	snap := hist.Snapshot()
	payload := obs.AppendDigest(nil, &snap, 0)
	rec := obs.NewRecorder("bench", 0)
	defer rec.Close()

	rows := []obsRow{
		bench("histogram-observe", func(b *testing.B) {
			var h obs.Histogram
			for i := 0; i < b.N; i++ {
				h.Observe(time.Duration(i%4096) * time.Microsecond)
			}
		}),
		bench("histogram-quantile-p99", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = hist.Quantile(0.99)
			}
		}),
		bench("recorder-record", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rec.Record(obs.EvDeadlineMiss, "bench", int64(i), obs.SpanContext{})
			}
		}),
		bench("digest-encode", func(b *testing.B) {
			buf := make([]byte, 0, 512)
			for i := 0; i < b.N; i++ {
				buf = obs.AppendDigest(buf[:0], &snap, 0)
			}
		}),
		bench("digest-decode", func(b *testing.B) {
			var s obs.HistogramSnapshot
			for i := 0; i < b.N; i++ {
				if _, err := obs.DecodeDigest(payload, &s); err != nil {
					b.Fatal(err)
				}
			}
		}),
	}

	fmt.Fprintf(w, "%-24s %12s %10s %10s\n", "path", "ns/op", "allocs/op", "B/op")
	hot := map[string]bool{"histogram-observe": true, "recorder-record": true}
	var bad []string
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %12.1f %10d %10d\n", r.Name, r.NsPerOp, r.AllocsPerOp, r.BytesPerOp)
		if hot[r.Name] && r.AllocsPerOp != 0 {
			bad = append(bad, r.Name)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("rtbench: recording paths allocate: %v", bad)
	}
	fmt.Fprintf(w, "digest size: %d bytes for %d observations\n", len(payload), snap.Count)
	meta := map[string]any{"digestBytes": len(payload)}
	return writeBench(w, "e", outFile, meta, rows)
}
