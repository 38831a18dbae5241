package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"soleil/internal/obs"
)

// remoteStaleFactor bounds how long a propagated digest keeps driving
// a gate after the last stats frame: a remote observation older than
// remoteStaleFactor beats is evidence of a dead or partitioned link,
// not of a healthy server, so the breach probe turns permissive
// rather than shedding on stale data.
const remoteStaleFactor = 16

// digestScratch is the one histogram snapshot (~9 KiB) an agent
// decodes and encodes all its links' heartbeat digests in, instead of
// two per link. Each use fills it and reads the few numbers it needs
// under mu; a link's beat comes once per interval, so contention on
// mu is one beat against another.
type digestScratch struct {
	mu   sync.Mutex
	snap obs.HistogramSnapshot
}

// remoteSLO is the client-side view of a server component's latency,
// reconstructed from the histogram digests the server piggybacks onto
// the link's heartbeats. It is the missing half of RT17: a degrade
// contract on a cross-node binding can now evaluate the *server's*
// p99 instead of going unwired because the histogram lives on the
// other node.
type remoteSLO struct {
	name       string         // "link <id>", for events and registration
	threshold  int64          // ns; breach when p99 exceeds it (0 = no latency contract)
	staleAfter time.Duration  // ignore digests older than this in probe()
	rec        *obs.Recorder  // may be nil; obs.Recorder methods are nil-safe
	scratch    *digestScratch // the agent's, shared with its other links

	p99     atomic.Int64 // ns, from the last good digest
	count   atomic.Int64 // server-side sample count
	lastAt  atomic.Int64 // unix nanos of the last good digest
	digests atomic.Int64 // digests decoded

	// breached is the client's own verdict (p99 > threshold);
	// serverBreached is the server's, forwarded in the digest flags
	// byte. Kept separate so link stats can tell them apart.
	breached       atomic.Bool
	serverBreached atomic.Bool
}

func newRemoteSLO(name string, budget time.Duration, beat time.Duration, scratch *digestScratch, rec *obs.Recorder) *remoteSLO {
	if beat <= 0 {
		beat = DefaultBeat
	}
	r := &remoteSLO{name: name, staleAfter: remoteStaleFactor * beat, rec: rec, scratch: scratch}
	if budget > 0 {
		// Same early-warning threshold the local degrade gate uses:
		// breach at 80% of the budget, before the contract is violated.
		r.threshold = int64(budget * 4 / 5)
	}
	return r
}

// ingest decodes one piggybacked digest and re-evaluates the breach
// state. Corrupt digests are dropped; the previous observation stands
// until it ages out.
func (r *remoteSLO) ingest(payload []byte) {
	if r == nil {
		return
	}
	sc := r.scratch
	sc.mu.Lock()
	flags, err := obs.DecodeDigest(payload, &sc.snap)
	if err != nil {
		sc.mu.Unlock()
		return
	}
	p99 := int64(sc.snap.Quantile(0.99))
	count := sc.snap.Count
	sc.mu.Unlock()

	r.digests.Add(1)
	r.lastAt.Store(time.Now().UnixNano())
	r.p99.Store(p99)
	r.count.Store(count)
	r.serverBreached.Store(flags&obs.DigestFlagBreached != 0)

	if r.threshold <= 0 {
		return
	}
	b := count > 0 && p99 > r.threshold
	if prev := r.breached.Swap(b); b != prev {
		if b {
			r.rec.Record(obs.EvRemoteBreach, r.name, p99, obs.SpanContext{})
			r.rec.Trigger("remote-breach")
		} else {
			r.rec.Record(obs.EvRemoteRecovered, r.name, p99, obs.SpanContext{})
		}
	}
}

// probe is the gate's SLO breach probe, sampled from Admit's hot
// path: allocation-free, three atomic loads. A stale observation
// reads as healthy — without fresh evidence the gate falls back to
// plain backpressure behavior instead of shedding on history.
//
//soleil:noheap
func (r *remoteSLO) probe() bool {
	if r.threshold <= 0 || !r.breached.Load() {
		return false
	}
	return time.Since(time.Unix(0, r.lastAt.Load())) <= r.staleAfter
}
