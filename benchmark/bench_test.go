package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soleil/internal/load"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0, 10}, {0.1, 10}, {0.11, 20}, {0.5, 50}, {0.51, 60}, {0.99, 100}, {1, 100}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %d, want 0", got)
	}
	if !supportedQuantile(1000, 0.99) || supportedQuantile(999, 0.99) {
		t.Error("p99 needs at least 1000 samples to leave ten beyond it")
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(xs, n=4) on the same inputs.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
	} {
		q1, med, q3 := quartiles(c.xs)
		got := [3]float64{q1, med, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestMADJitter(t *testing.T) {
	// Median 3; deviations 2,1,0,1,7.
	if got := madJitter([]int64{1, 2, 3, 4, 10}); got != 11.0/5 {
		t.Errorf("madJitter = %v, want %v", got, 11.0/5)
	}
}

func TestSearchRate(t *testing.T) {
	threshold := func(limit, invalidAbove float64) func(float64) (probe, error) {
		return func(r float64) (probe, error) {
			return probe{Rate: r, Pass: r <= limit, Valid: invalidAbove == 0 || r <= invalidAbove}, nil
		}
	}
	t.Run("censored at the ceiling", func(t *testing.T) {
		res, err := searchRate(fullSearch, threshold(math.Inf(1), 0))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rate != 256000 || !res.Censored {
			t.Errorf("got %.0f censored=%v, want the ceiling, censored", res.Rate, res.Censored)
		}
	})
	t.Run("stops at a 5% bracket", func(t *testing.T) {
		res, err := searchRate(fullSearch, threshold(10000, 0))
		if err != nil {
			t.Fatal(err)
		}
		if res.Censored || res.Rate > 10000 || res.Rate < 10000/1.05 {
			t.Errorf("got %.0f censored=%v, want within 5%% below 10000, uncensored", res.Rate, res.Censored)
		}
		lowestFail := math.Inf(1)
		for _, p := range res.Probes {
			if !p.Pass {
				lowestFail = math.Min(lowestFail, p.Rate)
			}
		}
		if (lowestFail-res.Rate)/res.Rate > 0.05 {
			t.Errorf("bracket [%.0f, %.0f] wider than 5%%", res.Rate, lowestFail)
		}
	})
	t.Run("an invalid probe censors", func(t *testing.T) {
		res, err := searchRate(fullSearch, threshold(math.Inf(1), 9000))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Censored || res.Rate > 9000 {
			t.Errorf("got %.0f censored=%v, want at most 9000, censored", res.Rate, res.Censored)
		}
	})
	t.Run("start rate fails", func(t *testing.T) {
		res, err := searchRate(fullSearch, threshold(700, 0))
		if err != nil {
			t.Fatal(err)
		}
		if res.Censored || res.Rate > 700 || res.Rate < 700/1.05 {
			t.Errorf("got %.0f censored=%v, want within 5%% below 700", res.Rate, res.Censored)
		}
	})
	t.Run("stops at the floor", func(t *testing.T) {
		res, err := searchRate(quickSearch, threshold(10, 0))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rate != 0 || len(res.Probes) != 2 || res.Probes[1].Rate != quickSearch.floor {
			t.Errorf("got %.0f after %+v, want 0 after probing the start and the floor", res.Rate, res.Probes)
		}
	})
}

func TestDecomposition(t *testing.T) {
	// One stamp intended at 100: late by 50, entry c0 on node 0 whose
	// send returns at 180; c1 (node 0) entered at 1180 sends until
	// 1188; the sink (node 1) is entered at 2188.
	spans := []span{
		{stamp: 100, start: 100, end: 150, kind: kLateness, parent: -1},
		{stamp: 100, start: 150, end: 200, kind: kEntry, comp: 0, parent: 0},
		{stamp: 100, start: 160, end: 190, kind: kContent, comp: 0, parent: 1},
		{stamp: 100, start: 170, end: 180, kind: kSend, comp: 0, parent: 2},
		{stamp: 100, start: 1180, end: 1190, kind: kContent, comp: 1, parent: 3},
		{stamp: 100, start: 1182, end: 1188, kind: kSend, comp: 1, parent: 4},
		{stamp: 100, start: 2188, end: 2189, kind: kSink, comp: 2, parent: 5},
		// A second stamp shed after its entry never reaches the sink.
		{stamp: 500, start: 500, end: 510, kind: kLateness, parent: -1},
		{stamp: 500, start: 510, end: 530, kind: kEntry, comp: 0, parent: 7},
	}
	nodeOf := func(c uint16) int { return map[uint16]int{0: 0, 1: 0, 2: 1}[c] }
	var d decomposition
	d.add(spans, nodeOf)

	eq := func(name string, got []int64, want ...int64) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s = %v, want %v", name, got, want)
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s = %v, want %v", name, got, want)
				return
			}
		}
	}
	eq("lateness", d.lateness, 50)
	eq("entryInvoke", d.entryInvoke, 50)
	eq("entrySelf", d.entrySelf, 20)
	eq("contentSelf", d.contentSelf, 20, 4)
	eq("sendLocal", d.sendLocal, 10)
	eq("sendLink", d.sendLink, 6)
	eq("releaseWait", d.releaseWait, 1000)
	eq("linkTransit", d.linkTransit, 1000)
	eq("e2e", d.e2e, 2088)
	// The entry's and c1's returns after their sends (20 and 2) overlap
	// the following gaps.
	eq("sum", d.sum, 2110)
	if d.unfinished != 1 || d.incomplete != 0 {
		t.Errorf("unfinished %d incomplete %d, want 1 and 0", d.unfinished, d.incomplete)
	}
}

func TestLedgerStates(t *testing.T) {
	l := newLedger([]int64{10, 20, 30, 40})
	l.mark(l.seq(10), stCompleted)
	l.mark(l.seq(20), stShed)
	l.mark(l.seq(30), stRefused)
	if err := l.check(); err == nil {
		t.Fatal("ledger with a stamp in flight closed")
	}
	l.mark(l.seq(40), stInjectErr)
	if err := l.check(); err != nil {
		t.Fatalf("every stamp has one state: %v", err)
	}
	l.mark(l.seq(10), stCompleted)
	if err := l.check(); err == nil || !strings.Contains(err.Error(), "second final state") {
		t.Fatalf("duplicate completion not reported: %v", err)
	}
	l.mark(l.seq(15), stCompleted)
	if l.strays.Load() != 1 {
		t.Fatal("unscheduled stamp not counted")
	}
}

func TestSeedChangesFaninFingerprint(t *testing.T) {
	w, err := workloadByName("fanin-cluster3")
	if err != nil {
		t.Fatal(err)
	}
	fps := map[string]bool{}
	for _, seed := range []int64{11, 12} {
		s, err := synthSeed(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		spec := w.spec
		spec.Seed = s
		scn, err := load.Synthesize(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !w.pinned(scn) {
			t.Fatalf("seed %d: arity not pinned", seed)
		}
		fp, err := fingerprint(w, scn.Arch, scn.Deploy)
		if err != nil {
			t.Fatal(err)
		}
		fps[fp] = true
	}
	if len(fps) != 2 {
		t.Fatal("seeds 11 and 12 give the same fan-in fingerprint")
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 100, 101, 99, 100}
	for _, c := range []struct {
		cur    []float64
		better string
		want   string
	}{
		{[]float64{101, 100, 100, 102, 101}, "lower", "within"},
		{[]float64{130, 131, 129, 130, 130}, "lower", "worse"},
		{[]float64{70, 70, 71, 69, 70}, "lower", "better"},
		{[]float64{70, 70, 71, 69, 70}, "higher", "worse"},
		{[]float64{60, 140, 100, 80, 120}, "lower", "unresolved"},
	} {
		if _, got := verdict(steady, c.cur, c.better, 0.1); got != c.want {
			t.Errorf("verdict(%v, %s) = %s, want %s", c.cur, c.better, got, c.want)
		}
	}
}

func TestFailedVerdict(t *testing.T) {
	for _, c := range []struct {
		old, cur float64
		want     string
	}{{0, 0, "within"}, {0, 0.0005, "within"}, {0, 0.002, "worse"}, {0.01, 0.002, "better"}} {
		if got := failedVerdict(c.old, c.cur); got != c.want {
			t.Errorf("failedVerdict(%v, %v) = %s, want %s", c.old, c.cur, got, c.want)
		}
	}
}

// TestQuickRun runs every workload in quick mode, untraced and
// traced, through the command's own entry point: it must exit 0 (every
// ledger closed, the Fig. 7 checksums equal) and its last line must
// carry every metric BENCHMARK.json names for that mode. The untraced
// runs of the workloads with a rate search also search, with real
// probes, and must record the search's result in the -out file.
func TestQuickRun(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			out := filepath.Join(dir, "out.jsonl")
			args := []string{"-quick", "-workload", w.name, "-seed", "11", "-out", out}
			searched := !traced && !w.closed && w.volley == 0
			if traced {
				args = append(args, "-trace", dir)
			}
			if searched {
				args = append(args, "-search")
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%s traced=%v: exit %d: %s", w.name, traced, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var last struct {
				Correct   bool              `json:"correct"`
				Attempted int64             `json:"attempted"`
				Failed    int64             `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w.name, err)
			}
			if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, last.Correct, last.Attempted, last.Failed)
			}
			spec, err := loadSpec()
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			if traced {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				m, ok := last.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, name, m, unit)
				}
			}
			if traced && !w.closed {
				if _, err := os.Stat(filepath.Join(dir, w.name+".spans.jsonl")); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
			if searched {
				rs, err := readResults(out)
				if err != nil || len(rs) != 1 {
					t.Fatalf("%s: -out holds %d results: %v", w.name, len(rs), err)
				}
				sr, m := rs[0].Search, rs[0].Metrics
				if sr == nil || len(sr.Probes) == 0 || m["search.probes"].Value != float64(len(sr.Probes)) {
					t.Fatalf("%s: search not recorded: %+v", w.name, sr)
				}
				for _, p := range sr.Probes {
					if p.Rate < quickSearch.floor || p.Rate > quickSearch.ceiling {
						t.Errorf("%s: probe at %.0f/s outside [%.0f, %.0f]", w.name, p.Rate, quickSearch.floor, quickSearch.ceiling)
					}
				}
				if m["max_rate_per_s"].Value != sr.Rate || (m["max_rate_censored"].Value == 1) != sr.Censored {
					t.Errorf("%s: max_rate_per_s %+v censored %+v, search found %+v", w.name, m["max_rate_per_s"], m["max_rate_censored"], sr)
				}
			}
		}
	}
}
