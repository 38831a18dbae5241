package fault

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"soleil/internal/dist"
)

// Spec parameterizes deterministic fault injection. Rates are
// probabilities in [0,1] evaluated independently per message; Seed
// makes the decision sequence replayable.
type Spec struct {
	// Drop is the probability a message is silently discarded.
	Drop float64
	// Delay is the probability a message is held back by DelayFor.
	Delay float64
	// DelayFor is the hold-back duration of a delayed message
	// (default 1ms).
	DelayFor time.Duration
	// Duplicate is the probability a message is transmitted twice.
	Duplicate float64
	// Corrupt is the probability one byte of the payload is flipped.
	Corrupt float64
	// Panic is the probability a chaos interceptor panics on an
	// invocation (unused by the transport injector).
	Panic float64
	// Seed seeds the PRNG; the same seed replays the same faults.
	Seed int64
}

// Zero reports whether the spec injects nothing.
func (s Spec) Zero() bool {
	return s.Drop == 0 && s.Delay == 0 && s.Duplicate == 0 && s.Corrupt == 0 && s.Panic == 0
}

func (s Spec) validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"drop", s.Drop}, {"delay", s.Delay}, {"dup", s.Duplicate}, {"corrupt", s.Corrupt}, {"panic", s.Panic}} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("fault: rate %s=%v outside [0,1]", r.name, r.v)
		}
	}
	return nil
}

// ParseSpec parses a comma-separated fault specification, e.g.
// "drop=0.02,delay=0.01,dup=0.01,corrupt=0.01,panic=0.02,seed=42".
func ParseSpec(s string) (Spec, error) {
	spec := Spec{DelayFor: time.Millisecond}
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return spec, fmt.Errorf("fault: malformed spec field %q (want key=value)", field)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return spec, fmt.Errorf("fault: seed %q: %w", val, err)
			}
			spec.Seed = n
		case "delayfor":
			d, err := time.ParseDuration(val)
			if err != nil {
				return spec, fmt.Errorf("fault: delayfor %q: %w", val, err)
			}
			spec.DelayFor = d
		default:
			rate, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return spec, fmt.Errorf("fault: rate %s=%q: %w", key, val, err)
			}
			switch key {
			case "drop":
				spec.Drop = rate
			case "delay":
				spec.Delay = rate
			case "dup":
				spec.Duplicate = rate
			case "corrupt":
				spec.Corrupt = rate
			case "panic":
				spec.Panic = rate
			default:
				return spec, fmt.Errorf("fault: unknown spec key %q", key)
			}
		}
	}
	return spec, spec.validate()
}

// InjectorStats counts the faults an injector has applied.
type InjectorStats struct {
	Sent       int64 // messages offered to Send
	Dropped    int64
	Delayed    int64
	Duplicated int64
	Corrupted  int64
}

// Injector is a dist.Transport wrapper that injects send-side faults
// according to a Spec. Decisions come from a seeded PRNG guarded by a
// mutex, so a single-producer run replays exactly for a given seed.
type Injector struct {
	inner dist.Transport
	spec  Spec
	sleep func(time.Duration)

	mu    sync.Mutex
	rng   *rand.Rand
	stats InjectorStats
}

var _ dist.Transport = (*Injector)(nil)

// InjectTransport wraps t with fault injection; Stats counts what it
// injected.
func InjectTransport(t dist.Transport, spec Spec) (*Injector, error) {
	if t == nil {
		return nil, fmt.Errorf("fault: injector needs a transport")
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if spec.DelayFor <= 0 {
		spec.DelayFor = time.Millisecond
	}
	return &Injector{
		inner: t,
		spec:  spec,
		sleep: time.Sleep,
		rng:   rand.New(rand.NewSource(spec.Seed)),
	}, nil
}

// Stats returns a copy of the injection counters.
func (j *Injector) Stats() InjectorStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.stats
}

// decide rolls all per-message dice under one lock so the decision
// sequence is a pure function of the seed and the message index.
func (j *Injector) decide() (drop, delay, dup, corrupt bool, corruptAt int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.stats.Sent++
	drop = j.rng.Float64() < j.spec.Drop
	delay = j.rng.Float64() < j.spec.Delay
	dup = j.rng.Float64() < j.spec.Duplicate
	corrupt = j.rng.Float64() < j.spec.Corrupt
	corruptAt = j.rng.Int()
	switch {
	case drop:
		j.stats.Dropped++
	case corrupt:
		j.stats.Corrupted++
	}
	if !drop && delay {
		j.stats.Delayed++
	}
	if !drop && dup {
		j.stats.Duplicated++
	}
	return drop, delay, dup, corrupt, corruptAt
}

// Send implements dist.Transport, applying the injection spec.
func (j *Injector) Send(payload []byte) error {
	drop, delay, dup, corrupt, corruptAt := j.decide()
	if drop {
		return nil // the network ate it; the sender cannot tell
	}
	if delay {
		j.sleep(j.spec.DelayFor)
	}
	out := payload
	if corrupt && len(payload) > 0 {
		out = make([]byte, len(payload))
		copy(out, payload)
		out[corruptAt%len(out)] ^= 0xFF
	}
	if err := j.inner.Send(out); err != nil {
		return err
	}
	if dup {
		return j.inner.Send(out)
	}
	return nil
}

// Receive implements dist.Transport.
func (j *Injector) Receive() ([]byte, error) { return j.inner.Receive() }

// Close implements dist.Transport.
func (j *Injector) Close() error { return j.inner.Close() }
