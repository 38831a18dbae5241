package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"soleil/internal/evaluation"
	"soleil/internal/fixture"
	"soleil/internal/load"
)

// options of one benchmark invocation.
type options struct {
	seed     int64
	seconds  float64 // measuring time per workload
	quick    bool    // 2 short rounds and a short search, for tests and smoke runs
	traceDir string  // "" = untraced
	search   bool    // run the max-rate search
}

// Round and probe shapes. Many short rounds on fresh deployments
// repeat better than one long run: the largest source of variance is
// the phase of each deployment's pacer tickers.
var (
	fullShape  = shape{warmup: 100 * time.Millisecond, window: 200 * time.Millisecond, drain: 2 * time.Second}
	quickShape = shape{warmup: 100 * time.Millisecond, window: 300 * time.Millisecond, drain: 2 * time.Second}
	probeShape = shape{warmup: 500 * time.Millisecond, window: 3 * time.Second, drain: 2 * time.Second}
	quickProbe = shape{warmup: 50 * time.Millisecond, window: 150 * time.Millisecond, drain: 2 * time.Second}

	fullFig7  = fig7Shape{warmup: 2000, block: 250, measured: 2500}
	quickFig7 = fig7Shape{warmup: 200, block: 50, measured: 250}

	// The quick search takes a few probes: it exercises the probe path,
	// its rate means little.
	fullSearch  = searchBounds{start: 2000, floor: 2000.0 / 64, ceiling: 256000, bracket: 0.05}
	quickSearch = searchBounds{start: 2000, floor: 1000, ceiling: 4000, bracket: 0.5}
)

// Rate search pass criteria.
const (
	passP99      = 50 * time.Millisecond
	passFailed   = 0.001
	validLateP99 = 5 * time.Millisecond
)

const (
	minRounds     = 2
	traceCapacity = 8192 // spans per traced round
	// Stamps pushed through the pacer-less pipeline for the assembly
	// floor, in full and quick runs.
	directStamps = 2000
	quickDirect  = 200
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's run: every metric, the ledger totals and
// the provenance needed to decide whether two results are comparable.
type result struct {
	Workload    string            `json:"workload"`
	Fingerprint string            `json:"fingerprint"`
	SynthSeed   int64             `json:"synth_seed,omitempty"`
	Traced      bool              `json:"traced"`
	Provenance  provenance        `json:"provenance"`
	Correct     bool              `json:"correct"`
	Attempted   int64             `json:"attempted"`
	Failed      int64             `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
	Layers      map[string]metric `json:"layers"`
	Search      *searchResult     `json:"search,omitempty"`
	SpanFile    string            `json:"span_file,omitempty"`
}

func newResult(w workload, o options) *result {
	return &result{
		Workload:   w.name,
		Traced:     o.traceDir != "",
		Provenance: newProvenance(o.seed, o.seconds, o.quick),
		Metrics:    map[string]metric{},
		Layers:     map[string]metric{},
	}
}

func (r *result) e2e(name string, v float64, unit string)   { r.Metrics[name] = metric{v, unit} }
func (r *result) layer(name string, v float64, unit string) { r.Layers[name] = metric{v, unit} }

// rounds calls round until the measuring budget is spent: at least
// minRounds, then more while the mean round still fits. Quick runs
// take exactly minRounds.
func rounds(o options, round func(i int) error) (int, error) {
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	i := 0
	for ; ; i++ {
		if i >= minRounds && (o.quick || time.Since(start)+time.Since(start)/time.Duration(i) > budget) {
			break
		}
		if err := round(i); err != nil {
			return i, err
		}
	}
	return i, nil
}

func runWorkload(w workload, o options) (*result, error) {
	if w.closed {
		return runFig7(w, o)
	}
	return runOpenLoop(w, o)
}

func runOpenLoop(w workload, o options) (*result, error) {
	res := newResult(w, o)
	synth, err := synthSeed(w, o.seed)
	if err != nil {
		return nil, err
	}
	spec := w.spec
	spec.Seed = synth
	scn, err := load.Synthesize(spec)
	if err != nil {
		return nil, err
	}
	if res.Fingerprint, err = fingerprint(w, scn.Arch, scn.Deploy); err != nil {
		return nil, err
	}
	res.SynthSeed = synth
	order := entryOrder(o.seed, len(scn.Entries))
	rng := rand.New(rand.NewSource(o.seed))
	compName := map[uint16]string{}
	for i, c := range scn.Arch.Components() {
		compName[uint16(i)] = c.Name()
	}

	sh := fullShape
	if o.quick {
		sh = quickShape
	}
	res.Provenance.WarmupS, res.Provenance.WindowS, res.Provenance.DrainS = sh.warmup.Seconds(), sh.window.Seconds(), sh.drain.Seconds()
	// Trace every k-th stamp, k chosen so a round's spans fit the
	// preallocated buffer: a stamp visiting h components after its
	// entry leaves 2h+3 spans.
	hops := 0
	for _, e := range scn.Entries {
		hops = max(hops, len(chain(scn.Arch, e)))
	}
	stamps := int(w.rate * (sh.warmup + sh.window).Seconds())
	every := int(math.Ceil(float64(stamps*(2*hops+3)) / traceCapacity))

	// In a traced run, rounds alternate untraced/traced: end-to-end
	// metrics and counts come from the untraced rounds, spans from the
	// traced ones, and their difference is the tracing overhead.
	var plain, traced []*roundResult
	n, err := rounds(o, func(i int) error {
		isTraced := o.traceDir != "" && i%2 == 1
		k := 0
		if isTraced {
			k = every
		}
		rr, err := runRound(w, synth, rng, order, sh, k, traceCapacity, true)
		if err != nil {
			return fmt.Errorf("%s round %d: %w", w.name, i, err)
		}
		if isTraced {
			traced = append(traced, rr)
		} else {
			plain = append(plain, rr)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Provenance.Rounds = n
	all := append(append([]*roundResult(nil), plain...), traced...)

	var setup, synthT, deployT, startT, foot []float64
	for _, rr := range all {
		setup = append(setup, (rr.synth + rr.deploy + rr.start).Seconds())
		synthT = append(synthT, ms(rr.synth))
		deployT = append(deployT, ms(rr.deploy))
		startT = append(startT, ms(rr.start))
		foot = append(foot, float64(rr.footprint)/1024)
		res.Attempted += rr.injected + rr.injectErr
		res.Failed += rr.injectErr + rr.refused + rr.unresolved
	}
	res.e2e("setup_s", medianF(setup), "s")
	res.e2e("footprint_kb", medianF(foot), "KiB")
	res.layer("setup.synthesize_ms", medianF(synthT), "ms")
	res.layer("setup.deploy_ms", medianF(deployT), "ms")
	res.layer("setup.start_ms", medianF(startT), "ms")

	var lat, late []int64
	var cpu []float64
	var c layerCounts
	var injected, gcCount int64
	var gcPause time.Duration
	goroutines := 0
	for _, rr := range plain {
		lat = append(lat, rr.lat...)
		late = append(late, rr.lateness...)
		cpu = append(cpu, us(int64(rr.cpu))/float64(max(len(rr.lat), 1)))
		injected += rr.injected
		gcCount += int64(rr.gcCount)
		gcPause += rr.gcPause
		goroutines = max(goroutines, rr.goroutines)
		c.add(rr.counts)
	}
	lat = sortedCopy(lat)
	latencyMetrics(res, lat)
	res.e2e("cpu_us_per_msg", medianF(cpu), "us")
	res.e2e("failed_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")

	late = sortedCopy(late)
	res.layer("gen.lateness_p50_us", us(quantile(late, 0.5)), "us")
	res.layer("gen.lateness_p99_us", us(quantile(late, 0.99)), "us")
	res.layer("gen.injected", float64(injected), "count")
	res.layer("comm.enqueued", float64(c.commEnqueued), "count")
	res.layer("comm.refused", float64(c.commRefused), "count")
	res.layer("comm.max_fill_ratio", c.commMaxFill, "ratio")
	res.layer("qos.admitted", float64(c.admitted), "count")
	res.layer("qos.shed", float64(c.shed), "count")
	res.layer("qos.shed_ratio", ratio(c.shed, c.admitted+c.shed), "ratio")
	res.layer("cluster.delivered", float64(c.delivered), "count")
	res.layer("cluster.reconnects", float64(c.reconnects), "count")
	res.layer("cluster.link_enqueued", float64(c.linkEnqueued), "count")
	res.layer("assembly.pacer_deliveries", float64(c.pacerDeliveries), "count")
	res.layer("assembly.pacer_errors", float64(c.pacerErrors), "count")
	res.layer("go.gc_count", float64(gcCount), "count")
	res.layer("go.gc_pause_total_ms", ms(gcPause), "ms")
	res.layer("go.goroutines", float64(goroutines), "count")

	if len(traced) > 0 {
		var dc decomposition
		var tlat []int64
		var spans [][]span
		for _, rr := range traced {
			nodeOf := rr.nodeOf
			dc.add(rr.spans, func(c uint16) int { return nodeOf[compName[c]] })
			tlat = append(tlat, rr.lat...)
			spans = append(spans, rr.spans)
		}
		decompositionMetrics(res, &dc)
		if p50 := quantile(lat, 0.5); p50 > 0 {
			res.layer("trace.overhead_pct", 100*(float64(quantile(sortedCopy(tlat), 0.5))-float64(p50))/float64(p50), "%")
		}
		if res.SpanFile, err = writeSpans(o.traceDir, w.name, spans, func(c uint16) string { return compName[c] }); err != nil {
			return nil, err
		}
		if w.spec.Shape == load.Pipeline {
			k := directStamps
			if o.quick {
				k = quickDirect
			}
			d, err := directChain(w, synth, k)
			if err != nil {
				return nil, err
			}
			res.layer("assembly.direct_chain_p50_us", us(quantile(sortedCopy(d), 0.5)), "us")
		}
	}

	if o.search && w.volley == 0 && o.traceDir == "" {
		sb, ps := fullSearch, probeShape
		if o.quick {
			sb, ps = quickSearch, quickProbe
		}
		sr, err := searchMaxRate(w, synth, rng, order, sb, ps)
		if err != nil {
			return nil, err
		}
		res.Search = sr
		censored := 0.0
		if sr.Censored {
			censored = 1
		}
		res.e2e("max_rate_per_s", sr.Rate, "msg/s")
		res.e2e("max_rate_censored", censored, "flag")
		res.e2e("search.probes", float64(len(sr.Probes)), "count")
	}
	res.Correct = true
	return res, nil
}

// searchMaxRate runs the rate search on fresh deployments of the
// workload, one probe window at each offered rate.
func searchMaxRate(w workload, synth int64, rng *rand.Rand, order []int, b searchBounds, sh shape) (*searchResult, error) {
	sr, err := searchRate(b, func(rate float64) (probe, error) {
		pw := w
		pw.rate = rate
		rr, err := runRound(pw, synth, rng, order, sh, 0, 0, false)
		if err != nil {
			return probe{}, fmt.Errorf("%s probe at %.0f/s: %w", w.name, rate, err)
		}
		p := probe{
			Rate:          rate,
			P99us:         us(quantile(sortedCopy(rr.lat), 0.99)),
			FailedRatio:   ratio(rr.injectErr+rr.refused+rr.unresolved+rr.conflicts, rr.injected+rr.injectErr),
			LatenessP99us: us(quantile(sortedCopy(rr.lateness), 0.99)),
		}
		p.Valid = p.LatenessP99us <= us(int64(validLateP99))
		p.Pass = p.P99us <= us(int64(passP99)) && p.FailedRatio <= passFailed
		return p, nil
	})
	return &sr, err
}

// latencyMetrics reports the median and p99 of sorted, the p99.9 when
// at least ten samples lie beyond it, and the sample count.
func latencyMetrics(res *result, sorted []int64) {
	res.e2e("latency_p50_us", us(quantile(sorted, 0.5)), "us")
	res.e2e("latency_p99_us", us(quantile(sorted, 0.99)), "us")
	if supportedQuantile(len(sorted), 0.999) {
		res.e2e("latency_p999_us", us(quantile(sorted, 0.999)), "us")
	}
	res.e2e("latency_samples", float64(len(sorted)), "count")
}

func decompositionMetrics(res *result, dc *decomposition) {
	p := func(xs []int64, q float64) float64 { return us(quantile(sortedCopy(xs), q)) }
	res.layer("trace.stamps", float64(len(dc.e2e)), "count")
	res.layer("trace.unfinished", float64(dc.unfinished), "count")
	res.layer("trace.incomplete", float64(dc.incomplete), "count")
	res.layer("membrane.entry_invoke_p50_us", p(dc.entryInvoke, 0.5), "us")
	res.layer("membrane.entry_invoke_p99_us", p(dc.entryInvoke, 0.99), "us")
	res.layer("membrane.entry_dispatch_self_p50_us", p(dc.entrySelf, 0.5), "us")
	res.layer("membrane.send_p50_us", p(dc.sendLocal, 0.5), "us")
	res.layer("membrane.send_p99_us", p(dc.sendLocal, 0.99), "us")
	res.layer("content.self_p50_us", p(dc.contentSelf, 0.5), "us")
	res.layer("assembly.release_wait_p50_us", p(dc.releaseWait, 0.5), "us")
	res.layer("assembly.release_wait_p99_us", p(dc.releaseWait, 0.99), "us")
	res.layer("assembly.release_wait_share", ratio(dc.waitTotal, dc.e2eTotal), "ratio")
	res.layer("cluster.send_p50_us", p(dc.sendLink, 0.5), "us")
	res.layer("cluster.link_transit_p50_us", p(dc.linkTransit, 0.5), "us")
	res.layer("cluster.link_transit_p99_us", p(dc.linkTransit, 0.99), "us")
	res.layer("cluster.link_share", ratio(dc.linkTotal, dc.e2eTotal), "ratio")
	if e2e := quantile(sortedCopy(dc.e2e), 0.5); e2e > 0 {
		sum := quantile(sortedCopy(dc.sum), 0.5)
		res.layer("trace.decomposition_error_pct", 100*math.Abs(float64(sum-e2e))/float64(e2e), "%")
	}
}

func runFig7(w workload, o options) (*result, error) {
	res := newResult(w, o)
	arch, err := fixture.MotivationExample()
	if err != nil {
		return nil, err
	}
	if res.Fingerprint, err = fingerprint(w, arch, nil); err != nil {
		return nil, err
	}
	sh := fullFig7
	if o.quick {
		sh = quickFig7
	}
	rng := rand.New(rand.NewSource(o.seed))
	var all []*fig7Round
	n, err := rounds(o, func(i int) error {
		r, err := runFig7Round(rng, sh)
		if err != nil {
			return fmt.Errorf("%s round %d: %w", w.name, i, err)
		}
		all = append(all, r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Provenance.Rounds = n

	var setup, foot []float64
	samples := map[string][]int64{}
	footprints := map[string][]float64{}
	var cpu []float64
	var gcPause time.Duration
	var gcCount int64
	goroutines := 0
	for _, r := range all {
		setup = append(setup, r.setup.Seconds())
		foot = append(foot, float64(r.footprint)/1024)
		transactions := 0
		for name, s := range r.samples {
			samples[name] = append(samples[name], s...)
			transactions += len(s)
		}
		res.Attempted += int64(transactions)
		cpu = append(cpu, us(int64(r.cpu))/float64(max(transactions, 1)))
		for name, b := range r.footprints {
			footprints[name] = append(footprints[name], float64(b)/1024)
		}
		gcCount += int64(r.gcCount)
		gcPause += r.gcPause
		goroutines = max(goroutines, r.goroutines)
	}
	soleil := sortedCopy(samples["SOLEIL"])
	res.e2e("setup_s", medianF(setup), "s")
	res.e2e("footprint_kb", medianF(foot), "KiB")
	latencyMetrics(res, soleil)
	res.e2e("cpu_us_per_msg", medianF(cpu), "us")
	res.e2e("failed_ratio", 0, "ratio")

	res.layer("setup.deploy_ms", 1e3*medianF(setup), "ms")
	res.layer("membrane.entry_invoke_p50_us", us(quantile(soleil, 0.5)), "us")
	res.layer("membrane.entry_invoke_p99_us", us(quantile(soleil, 0.99)), "us")
	res.layer("gen.injected", float64(res.Attempted), "count")
	res.layer("assembly.release_wait_share", 0, "ratio")
	res.layer("cluster.link_share", 0, "ratio")
	res.layer("qos.shed_ratio", 0, "ratio")
	res.layer("go.gc_count", float64(gcCount), "count")
	res.layer("go.gc_pause_total_ms", ms(gcPause), "ms")
	res.layer("go.goroutines", float64(goroutines), "count")
	oo := float64(quantile(sortedCopy(samples["OO"]), 0.5))
	for _, name := range evaluation.VariantNames {
		key := variantKey(name)
		s := sortedCopy(samples[name])
		p50 := quantile(s, 0.5)
		res.layer("evaluation."+key+"_p50_us", us(p50), "us")
		res.layer("evaluation."+key+"_jitter_us", usF(madJitter(s)), "us")
		res.layer("evaluation."+key+"_footprint_kb", medianF(footprints[name]), "KiB")
		if name != "OO" && oo > 0 {
			res.layer("evaluation."+key+"_overhead_pct", 100*(float64(p50)-oo)/oo, "%")
		}
	}
	res.Correct = true
	return res, nil
}

// variantKey turns an evaluation variant name into a metric name part:
// "MERGE-ALL" -> "merge_all".
func variantKey(name string) string {
	b := []byte(name)
	for i, c := range b {
		switch {
		case c == '-':
			b[i] = '_'
		case c >= 'A' && c <= 'Z':
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
