package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"

	"soleil/internal/obs"
)

// envelope is the wire representation of one asynchronous invocation.
// Trace carries the sender's span context across the wire, so a
// distributed call chain renders as one causal trace even though its
// halves run in different systems (typically different processes).
type envelope struct {
	Interface string
	Op        string
	Arg       any
	Trace     obs.SpanContext
}

// Wire format, version 2. An envelope is
//
//	byte        version (wireVersion)
//	uvarint     len(Interface), then its bytes
//	uvarint     len(Op), then its bytes
//	uint64      Trace.TraceID, little-endian
//	uint64      Trace.SpanID, little-endian
//	byte        argument tag
//	...         the argument: a zigzag varint for argInt64 and argInt,
//	            one gob encoding of the value for argGob
//	uint32      CRC-32C (Castagnoli) of every byte before it,
//	            little-endian
//
// The binding's interface and operation are fixed by the plan, so the
// frame describes nothing it does not carry. Only the argument can be
// of a type the receiver must be told; the two scalars the links carry
// get their own tags, and every other value (nil included) falls back
// to gob, which is why such types must be registered. The checksum
// makes a corrupted envelope fail to decode instead of arriving with
// an altered span or argument: TCP checksums its own segments, but a
// pipe or any other transport does not.
const wireVersion = 2

const (
	argInt64 = 1
	argInt   = 2
	argGob   = 3
)

// scalarRoom is the most an envelope with a scalar argument needs
// beyond its two names: the version, two uvarint lengths, the span,
// the tag, the varint and the checksum.
const scalarRoom = 1 + 2*binary.MaxVarintLen64 + 16 + 1 + binary.MaxVarintLen64 + crc32.Size

// castagnoli is the CRC-32C table; the hardware computes it where the
// CPU can.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// seal appends the checksum of the envelope that starts at dst[start].
func seal(dst []byte, start int) []byte {
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// RegisterPayload registers a message payload type with gob. Links
// encode int and int64 arguments natively; every other concrete type
// sent over a distributed binding travels as gob and must be
// registered on both sides.
func RegisterPayload(v any) { gob.Register(v) }

// AppendMessage appends the wire envelope of one asynchronous
// invocation to dst and returns the extended slice. dst grows at most
// once for a scalar argument, and not at all when it has room, so a
// caller that queues messages off the sending thread (cluster links
// encode into the data frame at Send time and transmit from a writer
// goroutine) pays one allocation per message. On error dst is
// returned at its original length.
func AppendMessage(dst []byte, itf, op string, arg any, span obs.SpanContext) ([]byte, error) {
	start := len(dst)
	if need := len(itf) + len(op) + scalarRoom; cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	dst = append(dst, wireVersion)
	dst = AppendString(dst, itf)
	dst = AppendString(dst, op)
	dst = binary.LittleEndian.AppendUint64(dst, span.TraceID)
	dst = binary.LittleEndian.AppendUint64(dst, span.SpanID)
	switch v := arg.(type) {
	case int64:
		return seal(binary.AppendVarint(append(dst, argInt64), v), start), nil
	case int:
		return seal(binary.AppendVarint(append(dst, argInt), int64(v)), start), nil
	}
	// Encoding through a pointer to the interface carries the
	// argument's registered type name, and encodes nil too. The copy
	// keeps arg itself off the heap on the scalar paths.
	v := arg
	buf := bytes.NewBuffer(append(dst, argGob))
	if err := gob.NewEncoder(buf).Encode(&v); err != nil {
		return dst[:start], fmt.Errorf("dist: encode %s.%s: %w", itf, op, err)
	}
	return seal(buf.Bytes(), start), nil
}

// AppendString appends s as a uvarint length and its bytes, the
// string encoding of every link frame.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// ReadString decodes a string AppendString wrote at the start of p and
// returns it with the bytes that follow. ok is false when the length
// is malformed or claims more bytes than p holds.
func ReadString(p []byte) (s string, rest []byte, ok bool) {
	n, k := binary.Uvarint(p)
	if k <= 0 || n > uint64(len(p)-k) {
		return "", p, false
	}
	p = p[k:]
	return string(p[:n]), p[n:], true
}

func decodeError(format string, args ...any) error {
	return fmt.Errorf("dist: decode: "+format, args...)
}

// decode parses one envelope written by AppendMessage. The checksum is
// verified first; then every length is checked against the bytes that
// remain before anything is sliced, and the envelope must span the
// payload exactly.
func decode(p []byte) (envelope, error) {
	if len(p) == 0 || p[0] != wireVersion {
		return envelope{}, decodeError("not a version %d envelope", wireVersion)
	}
	if len(p) < 1+crc32.Size {
		return envelope{}, decodeError("truncated checksum")
	}
	body, sum := p[:len(p)-crc32.Size], p[len(p)-crc32.Size:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(sum) {
		return envelope{}, decodeError("checksum mismatch")
	}
	p = body
	var e envelope
	var ok bool
	if e.Interface, p, ok = ReadString(p[1:]); !ok {
		return envelope{}, decodeError("truncated interface name")
	}
	if e.Op, p, ok = ReadString(p); !ok {
		return envelope{}, decodeError("truncated operation name")
	}
	if len(p) < 17 {
		return envelope{}, decodeError("truncated span or argument tag")
	}
	e.Trace = obs.SpanContext{
		TraceID: binary.LittleEndian.Uint64(p),
		SpanID:  binary.LittleEndian.Uint64(p[8:]),
	}
	tag, p := p[16], p[17:]
	switch tag {
	case argInt64, argInt:
		v, n := binary.Varint(p)
		if n <= 0 || n != len(p) {
			return envelope{}, decodeError("argument is not exactly one varint")
		}
		if tag == argInt64 {
			e.Arg = v
			return e, nil
		}
		if int64(int(v)) != v {
			return envelope{}, decodeError("int argument %d overflows this platform's int", v)
		}
		e.Arg = int(v)
		return e, nil
	case argGob:
		r := bytes.NewReader(p)
		var v any
		if err := gob.NewDecoder(r).Decode(&v); err != nil {
			return envelope{}, fmt.Errorf("dist: decode: %w", err)
		}
		if r.Len() != 0 {
			return envelope{}, decodeError("trailing bytes after the argument")
		}
		e.Arg = v
		return e, nil
	default:
		return envelope{}, decodeError("unknown argument tag %d", tag)
	}
}
