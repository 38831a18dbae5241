package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"soleil/internal/evaluation"
)

// fig7Shape sizes one closed-loop round: every variant first runs
// warmup transactions that are discarded, then the variants take
// turns, in seeded order, running blocks of block transactions until
// each has run measured.
type fig7Shape struct {
	warmup, block, measured int
}

// fig7Round is one round of the paper's Fig. 7 iteration on its four
// implementations.
type fig7Round struct {
	setup      time.Duration // evaluation.New("SOLEIL")
	footprint  int64         // evaluation.MeasureFootprint("SOLEIL"), bytes
	footprints map[string]int64
	samples    map[string][]int64 // per variant, ns per transaction
	cpu        time.Duration
	gcCount    uint32
	gcPause    time.Duration
	goroutines int
}

// runFig7Round builds the four variants fresh, runs the same number of
// transactions on each, and checks that their audit checksums agree.
func runFig7Round(rng *rand.Rand, sh fig7Shape) (*fig7Round, error) {
	r := &fig7Round{footprints: map[string]int64{}, samples: map[string][]int64{}}
	for _, name := range evaluation.VariantNames {
		fp, err := evaluation.MeasureFootprint(name)
		if err != nil {
			return nil, err
		}
		r.footprints[name] = fp.Bytes
	}
	r.footprint = r.footprints["SOLEIL"]

	vs := make([]*evaluation.Variant, len(evaluation.VariantNames))
	defer func() {
		for _, v := range vs {
			if v != nil {
				v.Close()
			}
		}
	}()
	for i, name := range evaluation.VariantNames {
		t0 := time.Now()
		v, err := evaluation.New(name)
		if err != nil {
			return nil, err
		}
		if name == "SOLEIL" {
			r.setup = time.Since(t0)
		}
		vs[i] = v
		r.samples[name] = make([]int64, 0, sh.measured)
		for j := 0; j < sh.warmup; j++ {
			if err := v.Transaction(); err != nil {
				return nil, fmt.Errorf("%s warmup: %w", name, err)
			}
		}
	}

	var ru0, ru1 syscall.Rusage
	var ms0, ms1 runtime.MemStats
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0) // RUSAGE_SELF cannot fail
	runtime.ReadMemStats(&ms0)
	r.goroutines = runtime.NumGoroutine()
	for done := 0; done < sh.measured; done += sh.block {
		for _, i := range rng.Perm(len(vs)) {
			v, s := vs[i], r.samples[vs[i].Name]
			for j := 0; j < sh.block; j++ {
				t0 := time.Now()
				if err := v.Transaction(); err != nil {
					return nil, fmt.Errorf("%s: %w", v.Name, err)
				}
				s = append(s, int64(time.Since(t0)))
			}
			r.samples[v.Name] = s
		}
	}
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	runtime.ReadMemStats(&ms1)
	r.cpu = cpuTime(ru1) - cpuTime(ru0)
	r.gcCount = ms1.NumGC - ms0.NumGC
	r.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)

	want := vs[0].Checksum()
	for _, v := range vs[1:] {
		if got := v.Checksum(); got != want {
			return nil, fmt.Errorf("checksum of %s is %#x after %d transactions, %s has %#x",
				v.Name, got, sh.warmup+len(r.samples[v.Name]), vs[0].Name, want)
		}
	}
	return r, nil
}
