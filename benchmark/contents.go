package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"soleil/internal/assembly"
	"soleil/internal/membrane"
	"soleil/internal/rtsj/thread"
)

// clock is the round's time base: nanoseconds on the wall-clock scale,
// advanced by the monotonic clock so that a wall-clock step during a
// round cannot distort a latency.
type clock struct {
	base   time.Time
	baseNs int64
}

func newClock() clock {
	t := time.Now()
	return clock{base: t, baseNs: t.UnixNano()}
}

func (c clock) now() int64 { return c.baseNs + int64(time.Since(c.base)) }

// recorder is where a round's content classes report: the ledger, the
// latency samples of the measured window and, in a traced round, the
// tracer. The content classes below do the same fold-and-forward work
// as the load plane's, and report here instead of to its collector.
type recorder struct {
	clk        clock
	led        *ledger
	tr         *tracer
	comps      map[string]uint16
	winLo      int64 // stamps intended in [winLo, winHi) are measured
	winHi      int64
	lat        []int64
	latN       atomic.Int64
	sendErrors atomic.Int64
	firstErr   atomic.Pointer[error]
}

func (s *recorder) fail(err error) {
	s.sendErrors.Add(1)
	s.firstErr.CompareAndSwap(nil, &err)
}

// register installs the benchmark's content classes into a fresh
// registry under the names the synthesized architectures use.
func (s *recorder) register() (*assembly.Registry, error) {
	reg := assembly.NewRegistry()
	if err := reg.Register("LoadRelayImpl", func() membrane.Content { return &relayContent{s: s} }); err != nil {
		return nil, err
	}
	if err := reg.Register("LoadSinkImpl", func() membrane.Content { return &sinkContent{s: s} }); err != nil {
		return nil, err
	}
	return reg, nil
}

// relayContent is a pipeline stage, fan-in fold or sporadic
// gateway/worker: fold the stamp, forward it on "out".
type relayContent struct {
	s    *recorder
	svc  *membrane.Services
	comp uint16
	acc  atomic.Int64
}

func (r *relayContent) Init(svc *membrane.Services) error {
	r.svc = svc
	r.comp = r.s.comps[svc.Name()]
	return nil
}

func (r *relayContent) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	stamp, ok := arg.(int64)
	if !ok {
		return nil, fmt.Errorf("relay %s: payload %T, want int64", r.svc.Name(), arg)
	}
	s := r.s
	seq, traced := -1, false
	var start int64
	var parent, self, send int32
	if s.tr != nil {
		seq = s.led.seq(stamp)
		if traced = s.tr.traced(seq); traced {
			start = s.clk.now()
			parent = s.tr.last[seq].Load()
			self, send = s.tr.reserve(), s.tr.reserve()
			// Published before the send: the next component may run
			// before Send returns.
			s.tr.last[seq].Store(send)
		}
	}

	r.acc.Add(stamp & 0xffff)
	out, err := r.svc.Port("out")
	if err != nil {
		return nil, err
	}
	var sendStart int64
	if traced {
		sendStart = s.clk.now()
	}
	err = out.Send(env, "put", stamp)
	if traced {
		end := s.clk.now()
		s.tr.put(send, span{stamp: stamp, start: sendStart, end: end, parent: self, kind: kSend, comp: r.comp})
		s.tr.put(self, span{stamp: stamp, start: start, end: end, parent: parent, kind: kContent, comp: r.comp})
	}
	if err != nil {
		st, other := classifySend(out, err)
		if other != nil {
			s.fail(other)
			return nil, other
		}
		if seq < 0 {
			seq = s.led.seq(stamp)
		}
		s.led.mark(seq, st)
	}
	return nil, nil
}

// sinkContent completes stamps: one final state in the ledger, and a
// latency sample from the intended instant when the stamp was intended
// inside the measured window.
type sinkContent struct {
	s    *recorder
	comp uint16
}

func (k *sinkContent) Init(svc *membrane.Services) error {
	k.comp = k.s.comps[svc.Name()]
	return nil
}

func (k *sinkContent) Invoke(env *thread.Env, itf, op string, arg any) (any, error) {
	stamp, ok := arg.(int64)
	if !ok {
		return nil, fmt.Errorf("sink: payload %T, want int64", arg)
	}
	s := k.s
	now := s.clk.now()
	seq := s.led.seq(stamp)
	s.led.mark(seq, stCompleted)
	if stamp >= s.winLo && stamp < s.winHi {
		if i := s.latN.Add(1) - 1; int(i) < len(s.lat) {
			s.lat[i] = now - stamp
		}
	}
	if s.tr.traced(seq) {
		id := s.tr.reserve()
		s.tr.put(id, span{stamp: stamp, start: now, end: s.clk.now(), parent: s.tr.last[seq].Load(), kind: kSink, comp: k.comp})
	}
	return nil, nil
}
