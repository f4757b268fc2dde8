package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"
)

// FuzzFrameCodec throws arbitrary bytes at the wire frame reader: it
// returns a frame or an error, never panics, and whatever it accepts
// re-encodes to exactly the input bytes it was read from. This is the
// codec every exchange — unary and streaming — rides on.
func FuzzFrameCodec(f *testing.F) {
	for _, m := range []Message{
		{Type: "verify", Payload: []byte(`{"n":1}`)},
		{Type: "stream-trailer", Payload: []byte(`{"items":3}`), Last: true},
		{Type: "error", Payload: []byte(`{"error":"nope"}`), Last: true},
		{Type: "formats"},
		{},
	} {
		frame, err := appendFrame(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(append(frame, frame...)) // the reader must stop at the frame's end
		f.Add(frame[:len(frame)/2])
	}
	f.Add([]byte(`{"type":"verify","payload":{"n":1}}` + "\n")) // the pre-binary codec
	f.Add([]byte{frameVersion, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{frameVersion, 0x02, 1, 0, 0, 0, 0, 'x'})
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		m, err := newFrameReader(src).read()
		if err != nil {
			return // not a frame; rejecting is the correct outcome
		}
		_ = m.AsError() // must not panic on any decodable frame
		encoded, err := appendFrame(nil, m)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v (input % x)", err, data)
		}
		if !bytes.HasPrefix(data, encoded) {
			t.Fatalf("round trip changed the frame:\n in  % x\n out % x", data, encoded)
		}
	})
}

func TestFrameRoundTrip(t *testing.T) {
	var wire bytes.Buffer
	w := frameWriter{w: &wire}
	sent := []Message{
		{Type: "verify", Payload: []byte(`{"n":1}`)},
		{Type: "formats"},
		{Type: "stream-trailer", Payload: []byte(`{}`), Last: true},
		{Type: strings.Repeat("t", maxTypeLen), Payload: bytes.Repeat([]byte{0, '\n', '{'}, 100_000)},
		{Type: "verify", Payload: []byte(`{"n":2}`)},
	}
	for _, m := range sent {
		if err := w.write(m); err != nil {
			t.Fatal(err)
		}
	}
	if cap(w.buf) > keepWriteBuffer {
		t.Fatalf("writer kept a %d-byte buffer after a small frame", cap(w.buf))
	}
	r := newFrameReader(&wire)
	for i, want := range sent {
		got, err := r.read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Last != want.Last || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d = %q last=%v %d bytes, want %q last=%v %d bytes",
				i, got.Type, got.Last, len(got.Payload), want.Type, want.Last, len(want.Payload))
		}
	}
	if _, err := r.read(); err != io.EOF {
		t.Fatalf("read past the last frame: err = %v, want a clean io.EOF", err)
	}
	if err := w.write(Message{Type: strings.Repeat("t", maxTypeLen+1)}); err == nil {
		t.Fatal("a 256-byte type was framed")
	}
}

// TestFrameReaderRefusesBeforeAllocating declares the largest payload the
// header can express on a reader with nothing behind it: the refusal must
// come from the header alone, not after reserving what it claims.
func TestFrameReaderRefusesBeforeAllocating(t *testing.T) {
	for _, declared := range []uint32{MaxFramePayload + 1, 0xFFFFFFFF} {
		frame := binary.BigEndian.AppendUint32([]byte{frameVersion, 0, 4}, declared)
		frame = append(frame, "ping"...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := newFrameReader(bytes.NewReader(frame)).read()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "cap") {
			t.Fatalf("declared %d bytes: err = %v, want the cap refusal", declared, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("declared %d bytes: refusing it allocated %d bytes", declared, grew)
		}
	}
}

// TestFrameReaderInternsTypes: in the steady state a frame costs one
// allocation, its payload.
func TestFrameReaderInternsTypes(t *testing.T) {
	frame, err := appendFrame(nil, Message{Type: "verify", Payload: []byte(`{"n":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(nil)
	r := newFrameReader(src)
	read := func() {
		src.Reset(frame)
		r.br.Reset(src)
		if _, err := r.read(); err != nil {
			t.Fatal(err)
		}
	}
	read()
	if allocs := testing.AllocsPerRun(100, read); allocs > 1 {
		t.Fatalf("%v allocations per frame, want 1 (the payload)", allocs)
	}
}
