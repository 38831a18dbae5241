package main

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"soleil/internal/comm"
	"soleil/internal/membrane"
	"soleil/internal/qos"
)

// Final states of one injected stamp. Every stamp of a round must end
// in exactly one of them.
const (
	stCompleted uint32 = 1 << iota
	stShed             // refused by an admission gate (a contract doing its job)
	stRefused          // refused by a full buffer or link queue
	stInjectErr        // the entry invocation itself failed
)

// ledger tracks every stamp of one round by its sequence number. The
// stamp a message carries is its intended arrival instant in
// nanoseconds, unique within the round, so the sequence number is the
// stamp's index in the sorted schedule.
type ledger struct {
	intended []int64 // sorted, unique
	state    []atomic.Uint32

	resolved  atomic.Int64 // stamps with a final state
	conflicts atomic.Int64 // second final states: a duplicate completion or a completed-and-shed stamp
	strays    atomic.Int64 // stamps that match no scheduled arrival
	counts    [4]atomic.Int64
}

func newLedger(intended []int64) *ledger {
	return &ledger{intended: intended, state: make([]atomic.Uint32, len(intended))}
}

// seq maps a stamp to its sequence number, or -1.
func (l *ledger) seq(stamp int64) int {
	i := sort.Search(len(l.intended), func(i int) bool { return l.intended[i] >= stamp })
	if i < len(l.intended) && l.intended[i] == stamp {
		return i
	}
	return -1
}

// mark records a final state for the stamp with sequence number seq.
func (l *ledger) mark(seq int, st uint32) {
	if seq < 0 {
		l.strays.Add(1)
		return
	}
	for {
		old := l.state[seq].Load()
		if l.state[seq].CompareAndSwap(old, old|st) {
			if old != 0 {
				l.conflicts.Add(1)
			} else {
				l.resolved.Add(1)
			}
			break
		}
	}
	for i := range l.counts {
		if st == 1<<i {
			l.counts[i].Add(1)
		}
	}
}

func (l *ledger) count(st uint32) int64 {
	for i := range l.counts {
		if st == 1<<i {
			return l.counts[i].Load()
		}
	}
	return 0
}

// unresolved returns how many stamps have no final state yet.
func (l *ledger) unresolved() int64 { return int64(len(l.intended)) - l.resolved.Load() }

// check reports why the ledger does not close, or nil when every stamp
// ended in exactly one state.
func (l *ledger) check() error {
	var errs []error
	if n := l.unresolved(); n > 0 {
		errs = append(errs, fmt.Errorf("%d of %d stamps never reached a final state", n, len(l.intended)))
	}
	if n := l.conflicts.Load(); n > 0 {
		errs = append(errs, fmt.Errorf("%d stamps reached a second final state (duplicate completion)", n))
	}
	if n := l.strays.Load(); n > 0 {
		errs = append(errs, fmt.Errorf("%d completions carried a stamp that was never scheduled", n))
	}
	return errors.Join(errs...)
}

// classifySend maps a refused Port.Send onto a final state. A typed
// qos.Backpressure out of a gated port is the contract's gate
// shedding; a full in-process buffer (comm.ErrFull) or a full link
// queue (a Backpressure out of an ungated link port) is a refusal. Any
// other error is returned as is.
func classifySend(port membrane.Port, err error) (uint32, error) {
	if errors.Is(err, comm.ErrFull) {
		return stRefused, nil
	}
	if _, ok := qos.BindingName(err); ok {
		if _, gated := port.(*membrane.GatedPort); gated {
			return stShed, nil
		}
		return stRefused, nil
	}
	return 0, err
}
