package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"soleil/internal/adl"
	"soleil/internal/load"
	"soleil/internal/model"
)

// workload is one traffic mix the benchmark runs. README.md records
// why each was chosen.
type workload struct {
	name string
	// closed marks the closed-loop Fig. 7 workload; the fields below
	// describe the open-loop ones.
	closed bool
	spec   load.Spec
	// rate is the offered arrival rate across all entries, messages/s.
	rate float64
	// volley > 0 sends arrivals in volleys of this size, all to one
	// entry, one volley in each slot of the length that keeps the
	// average rate; 0 spaces them evenly and spreads them over the
	// entries.
	volley int
	// pinned reports whether a synthesized scenario has the structure
	// the workload fixes (see synthSeed); nil accepts any.
	pinned func(*load.Scenario) bool
}

// The structure seeds may not change: the fan-in tree's branching
// factor, and the band [stormMIT, stormMIT+50µs) of the sporadic
// workers' minimum interarrival time.
const (
	faninArity = 4
	stormMIT   = 200 * time.Microsecond
)

var workloads = []workload{
	{
		name: "pipeline-inproc",
		spec: load.Spec{Shape: load.Pipeline, Components: 24, Nodes: 1},
		rate: 2000,
	},
	{
		name: "fanin-cluster3",
		spec: load.Spec{Shape: load.Fanin, Components: 64, Nodes: 3},
		rate: 2000,
		pinned: func(s *load.Scenario) bool {
			children := 0
			for _, b := range s.Arch.Bindings() {
				if b.Server.Component == "c0000" {
					children++
				}
			}
			return children == faninArity
		},
	},
	{
		name:   "sporadic-storm",
		spec:   load.Spec{Shape: load.Sporadic, Components: 24, Nodes: 1, ContractRate: 200, ContractBurst: 16},
		rate:   4000,
		volley: 32,
		pinned: func(s *load.Scenario) bool {
			for _, c := range s.Arch.Components() {
				if act := c.Activation(); act != nil && act.Period > 0 {
					return act.Period >= stormMIT && act.Period < stormMIT+50*time.Microsecond
				}
			}
			return false
		},
	},
	{name: "fig7-closed", closed: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// synthSeed maps the benchmark seed to the seed handed to
// load.Synthesize. Seeds must give comparable runs, so the structural
// choices that set the latency and idle-CPU scale are pinned (the
// fan-in arity sets the tree's depth, the workers' minimum
// interarrival time their release cadence), and the benchmark seed
// picks among the synthesizer seeds that produce them. Distinct
// benchmark seeds map to distinct synthesizer seeds, and so to
// distinct architectures and fingerprints.
func synthSeed(w workload, seed int64) (int64, error) {
	if w.pinned == nil {
		return seed, nil
	}
	const span = 256
	for k := int64(0); k < span; k++ {
		s := seed*span + k
		spec := w.spec
		spec.Seed = s
		scn, err := load.Synthesize(spec)
		if err != nil {
			return 0, err
		}
		if w.pinned(scn) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("%s: no synthesizer seed in [%d, %d) has the pinned structure", w.name, seed*span, (seed+1)*span)
}

// fingerprint identifies what a workload ran: the encoded architecture
// and deployment plus the arrival parameters. Results with different
// fingerprints are not comparable.
func fingerprint(w workload, arch *model.Architecture, dep *model.Deployment) (string, error) {
	var buf bytes.Buffer
	if err := adl.Encode(&buf, arch); err != nil {
		return "", err
	}
	if dep != nil {
		if err := adl.EncodeDeployment(&buf, dep); err != nil {
			return "", err
		}
	}
	h := sha256.New()
	h.Write(buf.Bytes())
	fmt.Fprintf(h, "|%s|rate=%g|volley=%d", w.name, w.rate, w.volley)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// arrivals is one round's open-loop schedule, fixed before the round
// starts: the intended instant of every arrival (unique: arrivals that
// share an instant are separated by 1 ns) and the entry it goes to.
type arrivals struct {
	at           []int64
	entry        []uint16
	winLo, winHi int64
}

// schedule lays out warmup+window of arrivals from epoch. order is the
// seeded order in which entries take turns. A volley's instant is drawn
// uniformly within its slot: volleys spaced exactly would lock to the
// pacer's poll period, fixing each deployment's latency to one phase.
func schedule(w workload, rng *rand.Rand, epoch int64, warmup, window time.Duration, order []int) arrivals {
	total := int(w.rate * (warmup + window).Seconds())
	a := arrivals{
		at:    make([]int64, 0, total),
		entry: make([]uint16, 0, total),
		winLo: epoch + int64(warmup),
		winHi: epoch + int64(warmup+window),
	}
	if w.volley > 0 {
		slot := int64(float64(w.volley) / w.rate * 1e9)
		for k := 0; len(a.at) < total; k++ {
			at := epoch + int64(k)*slot + rng.Int63n(slot-int64(w.volley))
			for j := 0; j < w.volley && len(a.at) < total; j++ {
				a.at = append(a.at, at+int64(j))
				a.entry = append(a.entry, uint16(order[k%len(order)]))
			}
		}
		return a
	}
	step := int64(1e9 / w.rate)
	for i := 0; i < total; i++ {
		a.at = append(a.at, epoch+int64(i)*step)
		a.entry = append(a.entry, uint16(order[i%len(order)]))
	}
	return a
}

// entryOrder is the seeded order in which a workload's entries take
// turns receiving arrivals.
func entryOrder(seed int64, entries int) []int {
	return rand.New(rand.NewSource(seed)).Perm(entries)
}

// chain returns the components a stamp visits after entry, following
// each component's single outgoing binding, ending at the sink.
func chain(a *model.Architecture, entry string) []string {
	next := map[string]string{}
	for _, b := range a.Bindings() {
		next[b.Client.Component] = b.Server.Component
	}
	var out []string
	for c, ok := next[entry]; ok; c, ok = next[c] {
		out = append(out, c)
	}
	return out
}
