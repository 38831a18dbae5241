package dist

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"soleil/internal/obs"
)

// wireCases are the envelopes the codec must carry unchanged: both
// scalar tags at their edges, the gob fallback (nil and a registered
// struct), names from empty to long, and a zero and a set span.
func wireCases() []envelope {
	long := strings.Repeat("x", 300) // a two-byte uvarint length
	span := obs.SpanContext{TraceID: 0xfeedfacecafebeef, SpanID: 1}
	cases := []envelope{
		{Interface: "in", Op: "put", Arg: nil},
		{Interface: "in", Op: "tick", Arg: tick{Seq: 42}, Trace: span},
		{Interface: "", Op: "", Arg: 7},
		{Interface: long, Op: long, Arg: int64(-7), Trace: span},
	}
	for _, v := range []int64{0, 1, -1, math.MinInt64, math.MaxInt64} {
		cases = append(cases, envelope{Interface: "in", Op: "put", Arg: v, Trace: span})
	}
	for _, v := range []int{0, 1, -1, math.MinInt, math.MaxInt} {
		cases = append(cases, envelope{Interface: "in", Op: "put", Arg: v})
	}
	return cases
}

func TestWireRoundTrip(t *testing.T) {
	RegisterPayload(tick{})
	for _, c := range wireCases() {
		frame, err := AppendMessage(nil, c.Interface, c.Op, c.Arg, c.Trace)
		if err != nil {
			t.Fatalf("encode %#v: %v", c.Arg, err)
		}
		got, err := decode(frame)
		if err != nil {
			t.Fatalf("decode %#v: %v", c.Arg, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Errorf("round trip of %T %v: got %+v", c.Arg, c.Arg, got)
		}
	}
}

// TestWireRejectsPrefixesAndTrailingBytes: every strict prefix of a
// valid envelope and the envelope plus one byte must fail to decode,
// with the dist: decode: prefix and without a panic.
func TestWireRejectsPrefixesAndTrailingBytes(t *testing.T) {
	RegisterPayload(tick{})
	for _, c := range wireCases() {
		frame, err := AppendMessage(nil, c.Interface, c.Op, c.Arg, c.Trace)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(frame); n++ {
			if _, err := decode(frame[:n]); err == nil || !strings.HasPrefix(err.Error(), "dist: decode: ") {
				t.Fatalf("%T arg: %d-byte prefix of %d decoded: %v", c.Arg, n, len(frame), err)
			}
		}
		if _, err := decode(append(frame, 0)); err == nil {
			t.Fatalf("%T arg: trailing byte accepted", c.Arg)
		}
	}
}

func TestWireRejectsUnknownVersionAndTag(t *testing.T) {
	frame, err := AppendMessage(nil, "in", "put", 1, obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), frame...)
	bad[0] = wireVersion + 1
	if _, err := decode(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("unknown version: %v", err)
	}
	bad = append([]byte(nil), frame...)
	bad[len(bad)-crc32.Size-2] = 99 // the tag, before the one-byte varint
	if _, err := decode(reseal(bad)); err == nil || !strings.Contains(err.Error(), "tag") {
		t.Errorf("unknown tag: %v", err)
	}
}

// reseal recomputes the checksum of an envelope a test altered, so that
// decode reaches the checks behind it.
func reseal(frame []byte) []byte {
	body := frame[:len(frame)-crc32.Size]
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

// TestWireChecksumRefusesEveryCorruptByte: every corruption confined to
// one byte of an envelope, in its names, span, argument or checksum, is
// refused rather than delivered as a different message.
func TestWireChecksumRefusesEveryCorruptByte(t *testing.T) {
	span := obs.SpanContext{TraceID: 0xfeedfacecafebeef, SpanID: 0x0123456789abcdef}
	frame, err := AppendMessage(nil, "in", "put", int64(1<<40), span)
	if err != nil {
		t.Fatal(err)
	}
	bad := make([]byte, len(frame))
	for i := range frame {
		for mask := 1; mask < 256; mask++ {
			copy(bad, frame)
			bad[i] ^= byte(mask)
			if e, err := decode(bad); err == nil || !strings.HasPrefix(err.Error(), "dist: decode: ") {
				t.Fatalf("byte %d of %d xor %#02x: decoded %+v, %v", i, len(frame), mask, e, err)
			}
		}
	}
}

// TestWireIntMustFitTheReceiver: an int argument decodes only when the
// receiving platform's int holds it.
func TestWireIntMustFitTheReceiver(t *testing.T) {
	frame, err := AppendMessage(nil, "in", "put", int64(math.MaxInt64), obs.SpanContext{})
	if err != nil {
		t.Fatal(err)
	}
	frame[len(frame)-crc32.Size-11] = argInt // re-tag the 10-byte varint as an int
	e, err := decode(reseal(frame))
	if strconv.IntSize == 64 {
		if err != nil || e.Arg != math.MaxInt {
			t.Fatalf("64-bit int: %v, %v", e.Arg, err)
		}
	} else if err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("32-bit int accepted %v: %v", e.Arg, err)
	}
}

// TestWireAllocs pins the codec's cost: encoding a scalar into a
// buffer with room allocates nothing, encoding it behind a full frame
// head (as a cluster link does) allocates the frame once, and decoding
// one allocates at most its two names and the boxed argument.
func TestWireAllocs(t *testing.T) {
	var arg any = int64(1 << 40)
	span := obs.SpanContext{TraceID: 3, SpanID: 4}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(200, func() {
		buf, _ = AppendMessage(buf[:0], "in", "put", arg, span)
	}); n != 0 {
		t.Errorf("AppendMessage into a buffer with room: %v allocs, want 0", n)
	}
	head := []byte{'D'}
	if n := testing.AllocsPerRun(200, func() {
		_, _ = AppendMessage(head, "in", "put", arg, span)
	}); n != 1 {
		t.Errorf("AppendMessage behind a full frame head: %v allocs, want 1", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := decode(buf); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("decode: %v allocs, want at most 3", n)
	}
}

// BenchmarkLinkEncodeHotPath is the cluster link's per-message encode
// with the frame buffer reused; `make benchcheck` holds it at 0
// allocs/op.
func BenchmarkLinkEncodeHotPath(b *testing.B) {
	var arg any = int64(1 << 40)
	span := obs.SpanContext{TraceID: 3, SpanID: 4}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendMessage(buf[:0], "in", "put", arg, span)
	}
}

// benchArgs are the two kinds of argument a link carries: a scalar,
// which has its own tag, and a registered struct, which takes the gob
// path.
var benchArgs = []struct {
	name string
	arg  any
}{
	{"int64", int64(1 << 40)},
	{"struct", tick{Seq: 1 << 40}},
}

// BenchmarkLinkEncode encodes each message into a fresh buffer, the
// cost of a RemotePort send and of a cluster link send short of its
// one-byte frame head.
func BenchmarkLinkEncode(b *testing.B) {
	RegisterPayload(tick{})
	span := obs.SpanContext{TraceID: 3, SpanID: 4}
	for _, c := range benchArgs {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := AppendMessage(nil, "in", "put", c.arg, span); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkLinkDecode(b *testing.B) {
	RegisterPayload(tick{})
	for _, c := range benchArgs {
		b.Run(c.name, func(b *testing.B) {
			frame, err := AppendMessage(nil, "in", "put", c.arg, obs.SpanContext{TraceID: 3, SpanID: 4})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := decode(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// FuzzDecodeMessage feeds arbitrary bytes to the envelope decoder. It
// must never panic, and a scalar envelope that decodes must survive
// re-encoding: the second decode yields the same values.
func FuzzDecodeMessage(f *testing.F) {
	RegisterPayload(tick{})
	for _, c := range wireCases() {
		frame, err := AppendMessage(nil, c.Interface, c.Op, c.Arg, c.Trace)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, p []byte) {
		e, err := decode(p)
		if err != nil {
			return
		}
		switch e.Arg.(type) {
		case int, int64:
		default:
			return
		}
		again, err := AppendMessage(nil, e.Interface, e.Op, e.Arg, e.Trace)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", e, err)
		}
		back, err := decode(again)
		if err != nil {
			t.Fatalf("re-decode %+v: %v", e, err)
		}
		if back != e {
			t.Fatalf("round trip changed %+v into %+v", e, back)
		}
	})
}
