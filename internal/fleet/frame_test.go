package fleet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	hello := Hello{Version: ProtocolVersion, Worker: 3}
	assign := Assign{ID: 42, Spec: CellSpec{
		Grid: "fig5:X86:65536", Index: 7, Seed: 0xfeedface,
		Kernel: "dpti", Arch: "RISCV", Flags: FlagQuick | FlagTrace, Spec: "x",
	}}
	result := Result{ID: 42, Cell: CellResult{
		Text: "row\n", Total: 123456,
		Metrics: []byte(`{"a":1}`), Trace: []byte(`{"traceEvents":[]}`),
		Aux: []byte{0, 1, 2, 255}, Err: "",
	}}
	beat := Heartbeat{Worker: 3, Cell: 42, Beat: 9}

	for _, w := range []struct {
		t FrameType
		p []byte
	}{
		{FrameHello, EncodeHello(hello)},
		{FrameAssign, EncodeAssign(assign)},
		{FrameResult, EncodeResult(result)},
		{FrameHeartbeat, EncodeHeartbeat(beat)},
		{FrameShutdown, nil},
	} {
		if err := WriteFrame(&buf, w.t, w.p); err != nil {
			t.Fatalf("WriteFrame(%d): %v", w.t, err)
		}
	}

	br := bufio.NewReader(&buf)
	readOne := func(want FrameType) []byte {
		t.Helper()
		ft, payload, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if ft != want {
			t.Fatalf("frame type = %d, want %d", ft, want)
		}
		return payload
	}

	if got, err := DecodeHello(readOne(FrameHello)); err != nil || got != hello {
		t.Fatalf("hello round-trip = %+v, %v; want %+v", got, err, hello)
	}
	if got, err := DecodeAssign(readOne(FrameAssign)); err != nil || !reflect.DeepEqual(got, assign) {
		t.Fatalf("assign round-trip = %+v, %v; want %+v", got, err, assign)
	}
	if got, err := DecodeResult(readOne(FrameResult)); err != nil || !reflect.DeepEqual(got, result) {
		t.Fatalf("result round-trip = %+v, %v; want %+v", got, err, result)
	}
	if got, err := DecodeHeartbeat(readOne(FrameHeartbeat)); err != nil || got != beat {
		t.Fatalf("heartbeat round-trip = %+v, %v; want %+v", got, err, beat)
	}
	readOne(FrameShutdown)
	if _, _, err := ReadFrame(br); err != io.EOF {
		t.Fatalf("trailing read = %v, want io.EOF", err)
	}
}

func TestReadFrameSentinels(t *testing.T) {
	frame := func(t FrameType, payload []byte) []byte {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, t, payload); err != nil {
			panic(err)
		}
		return buf.Bytes()
	}
	good := frame(FrameHeartbeat, EncodeHeartbeat(Heartbeat{Worker: 1, Cell: 2, Beat: 3}))

	oversize := append([]byte{}, frameMagic[:]...)
	oversize = append(oversize, byte(FrameResult))
	oversize = binary.AppendUvarint(oversize, maxFramePayload+1)

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"bad magic", append([]byte("XXXX"), good[4:]...), ErrBadMagic},
		{"unknown type", frame(FrameType(99), nil), ErrBadRecord},
		{"truncated header", good[:2], ErrTruncated},
		{"truncated payload", good[:len(good)-1], ErrTruncated},
		{"oversize payload length", oversize, ErrBadRecord},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(tc.data)))
			if !errors.Is(err, tc.want) {
				t.Fatalf("ReadFrame = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestDecodeSentinels(t *testing.T) {
	if _, err := DecodeHello(EncodeHello(Hello{Version: 99, Worker: 0})); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("version skew = %v, want ErrBadVersion", err)
	}
	if _, err := DecodeHello(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty hello = %v, want ErrTruncated", err)
	}
	good := EncodeHello(Hello{Version: ProtocolVersion, Worker: 1})
	if _, err := DecodeHello(append(good, 0)); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("trailing bytes = %v, want ErrBadRecord", err)
	}

	a := EncodeAssign(Assign{ID: 1, Spec: CellSpec{Grid: "table4", Index: 2}})
	if _, err := DecodeAssign(a[:len(a)-1]); err == nil {
		t.Fatal("truncated assign decoded without error")
	}

	// A forged string length larger than the remaining input must be
	// rejected, not allocated.
	forged := binary.AppendUvarint(nil, 1) // ID
	forged = binary.AppendUvarint(forged, 1<<40)
	if _, err := DecodeAssign(forged); !errors.Is(err, ErrBadRecord) {
		t.Fatalf("forged length = %v, want ErrBadRecord", err)
	}
}

func TestResultDigestRejectsCorruption(t *testing.T) {
	r := Result{ID: 7, Cell: CellResult{Text: "hello fleet", Total: 99, Aux: []byte{1, 2, 3}}}
	payload := EncodeResult(r)
	if _, err := DecodeResult(payload); err != nil {
		t.Fatalf("clean decode: %v", err)
	}
	// Flip one content byte: the frame still parses structurally, but
	// the digest must catch it.
	corrupt := append([]byte{}, payload...)
	corrupt[3] ^= 0x01
	if _, err := DecodeResult(corrupt); !errors.Is(err, ErrBadDigest) && !errors.Is(err, ErrBadRecord) && !errors.Is(err, ErrTruncated) {
		t.Fatalf("corrupt decode = %v, want a typed sentinel", err)
	}
}
