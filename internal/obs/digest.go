// Latency-digest wire codec. A digest is a compact, self-describing
// encoding of a HistogramSnapshot that rides the cluster heartbeat
// frames so a client node can evaluate a server-side SLO (p99 vs
// budget) without scraping the remote /metrics endpoint. The format
// is sparse — only occupied slots are encoded as (slot delta, count)
// uvarint pairs — so a steady-state digest for a single interface is
// typically well under 200 bytes, and encoding appends into a
// caller-owned buffer so the periodic path does not allocate once
// the buffer has grown to its working size.
package obs

import (
	"encoding/binary"
	"errors"
	"math"
)

// digestVersion tags the wire format; a decoder rejects versions it
// does not speak so heartbeat payloads stay forward-evolvable.
const digestVersion = 1

// Digest flag bits (byte 2 of the encoding).
const (
	// DigestFlagBreached marks that the producing node itself
	// considers the contract breached (server-side evaluation). The
	// consumer may still re-derive breach state from the histogram.
	DigestFlagBreached = 1 << 0
)

// ErrDigestVersion reports a digest whose version byte is not one
// this build can decode.
var ErrDigestVersion = errors.New("obs: unsupported digest version")

// ErrDigestCorrupt reports a digest that fails structural decoding.
var ErrDigestCorrupt = errors.New("obs: corrupt digest")

// AppendDigest encodes s (plus flag bits) onto dst and returns the
// extended slice. Layout:
//
//	byte 0      version
//	byte 1      flags
//	uvarint     Count
//	uvarint     Sum
//	uvarint     Max
//	uvarint     number of (slot, count) pairs
//	pairs       uvarint slot delta from previous slot (+1), uvarint count
func AppendDigest(dst []byte, s *HistogramSnapshot, flags byte) []byte {
	dst = append(dst, digestVersion, flags)
	dst = binary.AppendUvarint(dst, uint64(s.Count))
	dst = binary.AppendUvarint(dst, uint64(s.Sum))
	dst = binary.AppendUvarint(dst, uint64(s.Max))
	pairs := 0
	for i := range s.Counts {
		if s.Counts[i] != 0 {
			pairs++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(pairs))
	prev := -1
	for i := range s.Counts {
		c := s.Counts[i]
		if c == 0 {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(i-prev))
		dst = binary.AppendUvarint(dst, uint64(c))
		prev = i
	}
	return dst
}

// DecodeDigest decodes a digest produced by AppendDigest into s
// (overwriting it) and returns the flag byte. s is fully zeroed
// first so a sparse digest leaves absent slots at zero. A digest is
// corrupt when a value does not fit an int64, when its slots are not
// in strictly increasing order, or when Count is not the sum of its
// slot counts: any of these would let a peer's heartbeat report a
// negative or out-of-range quantile.
func DecodeDigest(data []byte, s *HistogramSnapshot) (flags byte, err error) {
	*s = HistogramSnapshot{}
	if len(data) < 2 {
		return 0, ErrDigestCorrupt
	}
	if data[0] != digestVersion {
		return 0, ErrDigestVersion
	}
	flags = data[1]
	data = data[2:]
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, false
		}
		data = data[n:]
		return v, true
	}
	count, ok1 := next()
	sum, ok2 := next()
	max, ok3 := next()
	pairs, ok4 := next()
	if !ok1 || !ok2 || !ok3 || !ok4 || count > math.MaxInt64 || sum > math.MaxInt64 || max > math.MaxInt64 {
		return 0, ErrDigestCorrupt
	}
	s.Count = int64(count)
	s.Sum = int64(sum)
	s.Max = int64(max)
	slot := -1
	var total uint64 // sum of the slot counts so far, never above count
	for p := uint64(0); p < pairs; p++ {
		delta, ok := next()
		if !ok {
			return 0, ErrDigestCorrupt
		}
		c, ok := next()
		if !ok {
			return 0, ErrDigestCorrupt
		}
		if delta == 0 || delta >= uint64(countsLen-slot) || c > count-total {
			return 0, ErrDigestCorrupt
		}
		slot += int(delta)
		total += c
		s.Counts[slot] = int64(c)
	}
	if total != count {
		return 0, ErrDigestCorrupt
	}
	return flags, nil
}
