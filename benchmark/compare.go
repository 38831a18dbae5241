package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readResults reads a file of results appended by -out, one JSON
// object a line. Traced results are skipped: their end-to-end numbers
// carry the tracing overhead.
func readResults(path string) ([]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Traced {
			out = append(out, &r)
		}
	}
	return out, sc.Err()
}

// verdict judges one workload x metric from the runs of two sets.
// Deltas are shares of the old median, signed so that positive is
// worse. The verdict is unresolved when either set's spread (distance
// between its quartiles, as a share of its median) is wider than the
// bound, worse or better when the medians differ by more than the
// bound, and within otherwise.
func verdict(old, cur []float64, better string, bound float64) (delta float64, v string) {
	oq1, om, oq3 := quartiles(old)
	nq1, nm, nq3 := quartiles(cur)
	if om == 0 {
		return 0, "unresolved"
	}
	delta = (nm - om) / om
	if better == "higher" {
		delta = -delta
	}
	spread := (oq3 - oq1) / om
	if nm != 0 {
		spread = max(spread, (nq3-nq1)/nm)
	}
	switch {
	case spread > bound:
		return delta, "unresolved"
	case delta > bound:
		return delta, "worse"
	case delta < -bound:
		return delta, "better"
	}
	return delta, "within"
}

// failedBound is how far the share of failed stamps may rise, in
// absolute terms, before a change counts as worse. BENCHMARK.json
// cannot hold it: its bounds are shares of the old median, and the
// workloads are chosen so that nothing fails.
const failedBound = 0.001

// failedVerdict judges the share of failed stamps, pooled over each
// set's runs. Stamps a change starts to refuse never reach the sink, so
// its latencies alone could look better.
func failedVerdict(old, cur float64) string {
	switch {
	case cur-old > failedBound:
		return "worse"
	case old-cur > failedBound:
		return "better"
	}
	return "within"
}

// compareFiles prints, per workload and end-to-end metric, both sets'
// quartiles, the delta and the verdict against the metric's bound.
func compareFiles(w io.Writer, spec *benchSpec, oldPath, newPath string) error {
	olds, err := readResults(oldPath)
	if err != nil {
		return err
	}
	news, err := readResults(newPath)
	if err != nil {
		return err
	}
	type set struct {
		fps               map[string]bool
		vals              map[string][]float64
		attempted, failed int64
	}
	group := func(rs []*result) map[string]*set {
		g := map[string]*set{}
		for _, r := range rs {
			s := g[r.Workload]
			if s == nil {
				s = &set{fps: map[string]bool{}, vals: map[string][]float64{}}
				g[r.Workload] = s
			}
			s.fps[r.Fingerprint] = true
			s.attempted += r.Attempted
			s.failed += r.Failed
			for n, m := range r.Metrics {
				s.vals[n] = append(s.vals[n], m.Value)
			}
		}
		return g
	}
	og, ng := group(olds), group(news)
	var names []string
	for n := range ng {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-16s %5s %30s %30s %8s %6s  %s\n", "workload", "metric", "runs", "old q1/median/q3", "new q1/median/q3", "delta", "bound", "verdict")
	for _, wl := range names {
		o, n := og[wl], ng[wl]
		if o == nil {
			fmt.Fprintf(w, "%-16s not in %s\n", wl, oldPath)
			continue
		}
		if !sameKeys(o.fps, n.fps) {
			fmt.Fprintf(w, "%-16s not comparable: fingerprints differ\n", wl)
			continue
		}
		for _, m := range spec.EndToEnd {
			ov, nv := o.vals[m.Name], n.vals[m.Name]
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			delta, v := verdict(ov, nv, m.Better, m.Bound)
			oq1, om, oq3 := quartiles(ov)
			nq1, nm, nq3 := quartiles(nv)
			fmt.Fprintf(w, "%-16s %-16s %2d/%-2d %30s %30s %+7.1f%% %5.0f%%  %s\n", wl, m.Name, len(ov), len(nv),
				fmt.Sprintf("%.4g/%.4g/%.4g", oq1, om, oq3), fmt.Sprintf("%.4g/%.4g/%.4g", nq1, nm, nq3),
				100*delta, 100*m.Bound, v)
		}
		of, nf := ratio(o.failed, o.attempted), ratio(n.failed, n.attempted)
		fmt.Fprintf(w, "%-16s %-16s %5s %30s %30s %+8.4f %6s  %s\n", wl, "failed_ratio", "all",
			fmt.Sprintf("%d/%d", o.failed, o.attempted), fmt.Sprintf("%d/%d", n.failed, n.attempted),
			nf-of, fmt.Sprintf("+%g", failedBound), failedVerdict(of, nf))
	}
	return nil
}

func sameKeys(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
