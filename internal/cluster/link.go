package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"soleil/internal/dist"
	"soleil/internal/membrane"
	"soleil/internal/model"
	"soleil/internal/obs"
	"soleil/internal/qos"
	"soleil/internal/rtsj/thread"
)

// outLink is the client half of a cross-node binding: a membrane port
// the planner splices in place of the in-process RTBuffer. Send
// serializes the invocation on the calling thread (the deep-copy
// moment — after it, no reference is shared) into a bounded queue
// with the binding's declared capacity; a writer goroutine transmits
// from the queue so the component's release never blocks on the
// network. A full queue refuses the message with a preallocated typed
// qos.Backpressure (unwrapping to qos.ErrBackpressure), exactly as a
// full in-process buffer or a shedding admission gate would.
type outLink struct {
	link  *Link
	queue chan []byte

	// remote tracks the server component's latency from the digests
	// piggybacked on the link's heartbeats; the link's admission gate
	// probes it to evaluate a cross-node degrade contract.
	remote *remoteSLO

	enqueued atomic.Int64
	sent     atomic.Int64
	dropped  atomic.Int64
	highWm   atomic.Int64

	reject qos.Backpressure
}

var _ membrane.Port = (*outLink)(nil)

func newOutLink(l *Link) *outLink {
	capacity := l.BufferSize
	if capacity <= 0 {
		capacity = 16
	}
	policy := model.Shed
	if l.Contract != nil && l.Contract.Policy != 0 {
		policy = l.Contract.Policy
	}
	return &outLink{
		link:   l,
		queue:  make(chan []byte, capacity),
		reject: qos.Backpressure{Name: "link " + l.ID, Policy: policy},
	}
}

// dataHead is the first byte of every data frame. Its capacity is
// full, so appending to it always copies: each Send gets a frame of
// its own, and dataHead itself is never written.
var dataHead = []byte{frameData}

// Send implements membrane.Port: encode now, transmit later. The
// message is encoded straight into its data frame, the one allocation
// per message, and the writer sends that frame as it is. The caller's
// span rides in the envelope so the remote dispatch joins its trace.
func (o *outLink) Send(env *thread.Env, op string, arg any) error {
	frame, err := dist.AppendMessage(dataHead, o.link.Server.Interface, op, arg, env.Span())
	if err != nil {
		return err
	}
	select {
	case o.queue <- frame:
		n := o.enqueued.Add(1)
		if depth := n - o.sent.Load(); depth > o.highWm.Load() {
			o.highWm.Store(depth)
		}
		return nil
	default:
		o.dropped.Add(1)
		return &o.reject
	}
}

// Call implements membrane.Port. Cross-node bindings are
// asynchronous value messages (RT15); there is nothing to call.
func (o *outLink) Call(*thread.Env, string, any) (any, error) {
	return nil, fmt.Errorf("cluster: link %s is asynchronous; use Send", o.link.ID)
}

func (o *outLink) stats() obs.QueueStats {
	enq, sent := o.enqueued.Load(), o.sent.Load()
	return obs.QueueStats{
		Enqueued:      enq,
		Dequeued:      sent,
		Dropped:       o.dropped.Load(),
		Depth:         int(enq - sent),
		HighWatermark: int(o.highWm.Load()),
		Capacity:      cap(o.queue),
	}
}

// linkWriter owns an outLink's network side: it dials the server
// node with backoff, performs the hello handshake, and drains the
// queue onto the session. A send failure closes the session and
// reconnects — the in-flight message is retransmitted on the fresh
// connection, so a node restart loses at most what the kernel had
// buffered, never what the component had queued.
type linkWriter struct {
	out     *outLink
	local   string // local node name, announced in the hello
	resolve func(node string) (string, error)
	dial    dist.DialConfig
	beat    time.Duration
	logf    func(format string, args ...any)
	rec     *obs.Recorder // may be nil; set before start

	reconnects  atomic.Int64
	staleCloses atomic.Int64
	connected   atomic.Bool

	mu   sync.Mutex
	sess *session
	stop chan struct{}
	done chan struct{}
}

func newLinkWriter(out *outLink, local string, resolve func(string) (string, error),
	dial dist.DialConfig, beat time.Duration, logf func(string, ...any)) *linkWriter {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	// The writer runs its own stop-aware retry loop; each round is a
	// single dial attempt.
	dial.Attempts = 1
	return &linkWriter{
		out: out, local: local, resolve: resolve, dial: dial, beat: beat, logf: logf,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
}

func (w *linkWriter) start() { go w.run() }

func (w *linkWriter) run() {
	defer close(w.done)
	var pending []byte
	for {
		sess := w.connect()
		if sess == nil {
			return // stopped
		}
		w.connected.Store(true)
		// No data flows server->client, but the peer's heartbeats must
		// be drained or they would back up the stream — and the
		// stats-bearing ones feed the remote SLO via the session hooks.
		go func() {
			for {
				if _, err := sess.Receive(); err != nil {
					return
				}
			}
		}()
		for {
			if pending == nil {
				select {
				case <-w.stop:
					_ = sess.Close()
					return
				case pending = <-w.out.queue:
				}
			}
			if err := sess.sendFrame(pending); err != nil {
				_ = sess.Close()
				break // reconnect; pending is retransmitted
			}
			w.out.sent.Add(1)
			pending = nil
		}
		w.connected.Store(false)
		n := w.reconnects.Add(1)
		w.rec.Record(obs.EvLinkReconnect, w.out.link.ID, n, obs.SpanContext{})
		w.logf("cluster: link %s: connection lost, reconnecting", w.out.link.ID)
	}
}

// connect dials the server node until it succeeds or the writer is
// stopped, backing off exponentially between rounds.
func (w *linkWriter) connect() *session {
	delay := w.dial.Base
	if delay <= 0 {
		delay = dist.DefaultRetryBase
	}
	maxDelay := w.dial.Max
	if maxDelay <= 0 {
		maxDelay = dist.DefaultRetryMax
	}
	for {
		select {
		case <-w.stop:
			return nil
		default:
		}
		tr, err := w.dialOnce()
		if err == nil {
			sess := newSession(tr, w.beat, sessionHooks{
				onStats: w.out.remote.ingest,
				onStale: func() {
					w.staleCloses.Add(1)
					w.rec.Record(obs.EvLinkStale, w.out.link.ID, 0, obs.SpanContext{})
				},
			})
			w.mu.Lock()
			stopped := false
			select {
			case <-w.stop:
				stopped = true
			default:
				w.sess = sess
			}
			w.mu.Unlock()
			if stopped {
				_ = sess.Close()
				return nil
			}
			return sess
		}
		w.logf("cluster: link %s: %v", w.out.link.ID, err)
		select {
		case <-w.stop:
			return nil
		case <-time.After(dist.Jitter(delay)):
		}
		if delay *= 2; delay > maxDelay {
			delay = maxDelay
		}
	}
}

func (w *linkWriter) dialOnce() (dist.Transport, error) {
	addr, err := w.resolve(w.out.link.ServerNode)
	if err != nil {
		return nil, err
	}
	tr, err := dist.Dial(addr, w.dial)
	if err != nil {
		return nil, err
	}
	if err := sendHello(tr, hello{Node: w.local, Link: w.out.link.ID}); err != nil {
		_ = tr.Close()
		return nil, err
	}
	return tr, nil
}

// linkStats snapshots the export side of the link for the registry's
// LINK table and the soleil_link_* metric families.
func (w *linkWriter) linkStats() obs.LinkStats {
	st := obs.LinkStats{
		Dir:         "export",
		Connected:   w.connected.Load(),
		Reconnects:  w.reconnects.Load(),
		StaleCloses: w.staleCloses.Load(),
	}
	w.mu.Lock()
	if w.sess != nil {
		st.HeartbeatAge = time.Since(time.Unix(0, w.sess.lastIn.Load()))
	}
	w.mu.Unlock()
	if r := w.out.remote; r != nil {
		st.DigestsReceived = r.digests.Load()
		st.RemoteP99 = time.Duration(r.p99.Load())
		st.RemoteBreached = r.breached.Load() || r.serverBreached.Load()
		st.RemoteCount = r.count.Load()
	}
	return st
}

// Close stops the writer and joins it. Queued but untransmitted
// messages are discarded, like an in-process buffer torn down
// mid-flight.
func (w *linkWriter) Close() {
	w.mu.Lock()
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	if w.sess != nil {
		_ = w.sess.Close()
	}
	w.mu.Unlock()
	<-w.done
}
