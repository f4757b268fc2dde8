package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The wire format. Every Message crosses a connection as one frame:
//
//	version(1) | flags(1) | typeLen(1) | payloadLen(4, big-endian) | trace(16) | type | payload
//
// The version byte is what lets a reader refuse a peer speaking anything
// else on its first byte (a JSON peer opens with '{'); bit 0 of flags is
// Message.Last and every other bit must be zero. trace is the slot
// ROADMAP item 8(b) will carry a request's trace ID in; until then it
// must be all zero. The payload is opaque to the transport: its bytes reach
// the handler exactly as sent, unscanned.
const (
	frameVersion = 1
	// framePrefixLen is the part of the header a reader judges a peer by:
	// it is checked as soon as it has arrived, before the rest is awaited.
	framePrefixLen = 7
	frameTraceLen  = 16
	// frameHeaderLen is the fixed cost of a frame on the wire. It equals
	// the JSON envelope's (`{"type":"","payload":}` and a newline are 23
	// bytes), which bench/'s relay test pins and this package cannot
	// re-pin: see DESIGN.md "Wire format".
	frameHeaderLen = framePrefixLen + frameTraceLen
	flagLast       = 1 << 0

	// MaxFramePayload caps the payload a frame may carry. A reader checks
	// the declared length against it before allocating anything, so a
	// seven-byte prefix cannot make a peer reserve gigabytes.
	MaxFramePayload = 64 << 20

	// maxTypeLen is what the one-byte type length can express.
	maxTypeLen = 255
)

// ErrFrameTooLarge reports a message whose type or payload does not fit
// a frame. A writer returns it before a byte reaches the connection, so
// the connection stays usable.
var ErrFrameTooLarge = errors.New("transport: message exceeds the frame limits")

// keepWriteBuffer bounds the assembly buffer a frameWriter keeps between
// frames: a one-off 600 KB batch must not pin that much per connection.
const keepWriteBuffer = 64 << 10

// maxInternedTypes bounds a reader's type table: a well-behaved peer
// uses a handful of type strings, and a hostile one cannot grow it.
const maxInternedTypes = 32

// frameReader decodes frames from one connection.
type frameReader struct {
	br    *bufio.Reader
	types map[string]string // type strings seen on this connection
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReader(r), types: make(map[string]string)}
}

// read returns the next frame. A clean hang-up between frames is io.EOF;
// anything else — a wrong version, a reserved flag, a length over the
// cap, a frame cut short — is an error after which the connection cannot
// be resynchronized and must be dropped. The payload is a fresh slice
// the caller owns: nothing here reuses it.
func (r *frameReader) read() (Message, error) {
	hdr, err := r.br.Peek(framePrefixLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return Message{}, err
	}
	if hdr[0] != frameVersion {
		return Message{}, fmt.Errorf("transport: frame version %#x, want %#x", hdr[0], frameVersion)
	}
	flags, typeLen := hdr[1], int(hdr[2])
	if flags&^flagLast != 0 {
		return Message{}, fmt.Errorf("transport: reserved frame flags %#x", flags)
	}
	payloadLen := binary.BigEndian.Uint32(hdr[3:])
	if payloadLen > MaxFramePayload {
		return Message{}, fmt.Errorf("transport: frame payload of %d bytes exceeds the %d-byte cap", payloadLen, MaxFramePayload)
	}
	if hdr, err = r.br.Peek(frameHeaderLen); err != nil {
		return Message{}, cutShort(err)
	}
	for _, b := range hdr[framePrefixLen:] {
		if b != 0 {
			return Message{}, errors.New("transport: reserved frame trace slot is not zero")
		}
	}
	_, _ = r.br.Discard(frameHeaderLen) // cannot fail: the bytes were just peeked

	m := Message{Last: flags&flagLast != 0}
	if m.Type, err = r.readType(typeLen); err != nil {
		return Message{}, err
	}
	if payloadLen > 0 {
		m.Payload = make([]byte, payloadLen)
		if _, err := io.ReadFull(r.br, m.Payload); err != nil {
			return Message{}, cutShort(err)
		}
	}
	return m, nil
}

// readType reads a frame's type string, interned per connection so the
// steady state allocates nothing for it.
func (r *frameReader) readType(n int) (string, error) {
	raw, err := r.br.Peek(n) // n <= 255, well inside the reader's buffer
	if err != nil {
		return "", cutShort(err)
	}
	t, ok := r.types[string(raw)] // the compiler elides this conversion
	if !ok {
		t = string(raw)
		if len(r.types) < maxInternedTypes {
			r.types[t] = t
		}
	}
	_, _ = r.br.Discard(n)
	return t, nil
}

// cutShort names an EOF inside a frame for what it is.
func cutShort(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// frameWriter encodes frames onto one connection, each assembled in a
// buffer kept across frames and handed over in a single Write.
type frameWriter struct {
	w   io.Writer
	buf []byte
}

// write sends m as one frame. ErrFrameTooLarge is returned before
// anything is written; any other error leaves the connection broken.
func (w *frameWriter) write(m Message) error {
	buf, err := appendFrame(w.buf[:0], m)
	if err != nil {
		return err
	}
	_, err = w.w.Write(buf)
	if cap(buf) > keepWriteBuffer {
		buf = nil
	}
	w.buf = buf
	return err
}

// appendFrame appends m's wire form to dst.
func appendFrame(dst []byte, m Message) ([]byte, error) {
	if len(m.Type) > maxTypeLen || len(m.Payload) > MaxFramePayload {
		return dst, fmt.Errorf("%w: %d-byte type, %d-byte payload", ErrFrameTooLarge, len(m.Type), len(m.Payload))
	}
	var flags byte
	if m.Last {
		flags = flagLast
	}
	dst = append(dst, frameVersion, flags, byte(len(m.Type)))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Payload)))
	dst = append(dst, make([]byte, frameTraceLen)...) // the compiler appends zeros in place
	dst = append(dst, m.Type...)
	return append(dst, m.Payload...), nil
}
