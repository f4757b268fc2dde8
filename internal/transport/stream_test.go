package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// The stream handler test double the conformance rows drive.

// streamCountReq parameterizes the test stream handler: emit Frames
// frames of Pad bytes each, failing before frame FailAt when set (>= 0).
type streamCountReq struct {
	Frames int `json:"frames"`
	Pad    int `json:"pad,omitempty"`
	FailAt int `json:"failAt"`
}

type streamCountFrame struct {
	I   int    `json:"i"`
	Pad string `json:"pad,omitempty"`
}

// countStreamer is the StreamHandler test double: unary requests echo,
// "count" requests stream numbered frames. An optional gate paces frame
// emission; the first send failure is published on sendErr.
type countStreamer struct {
	gate    chan struct{} // when non-nil, received before each frame
	sendErr chan error    // capacity >= 1
}

func newCountStreamer() *countStreamer {
	return &countStreamer{sendErr: make(chan error, 1)}
}

func (h *countStreamer) Handle(_ context.Context, req Message) (Message, error) {
	if req.Type == "boom" {
		return Message{}, errors.New("kaboom")
	}
	return Message{Type: "echo", Payload: req.Payload}, nil
}

func (h *countStreamer) Streams(msgType string) bool { return msgType == "count" }

func (h *countStreamer) HandleStream(_ context.Context, req Message, send func(Message) error) (Message, error) {
	var sr streamCountReq
	if err := req.Decode(&sr); err != nil {
		return Message{}, err
	}
	pad := strings.Repeat("x", sr.Pad)
	for i := 0; i < sr.Frames; i++ {
		if sr.FailAt >= 0 && i == sr.FailAt {
			return Message{}, fmt.Errorf("deliberate failure before frame %d", i)
		}
		if h.gate != nil {
			<-h.gate
		}
		m, err := NewMessage("frame", streamCountFrame{I: i, Pad: pad})
		if err != nil {
			return Message{}, err
		}
		if err := send(m); err != nil {
			select {
			case h.sendErr <- err:
			default:
			}
			return Message{}, err
		}
	}
	return NewMessage("trailer", streamCountReq{Frames: sr.Frames, FailAt: -1})
}

func countRequest(t *testing.T, frames, pad, failAt int) Message {
	t.Helper()
	req, err := NewMessage("count", streamCountReq{Frames: frames, Pad: pad, FailAt: failAt})
	if err != nil {
		t.Fatal(err)
	}
	return req
}

// drainStream reads frames until the trailer, asserting order, and
// returns the trailer message.
func drainStream(t *testing.T, st Stream, wantFrames int) Message {
	t.Helper()
	for i := 0; i < wantFrames; i++ {
		m, err := st.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if m.Type != "frame" || m.Last {
			t.Fatalf("frame %d = %+v, want non-terminal frame", i, m)
		}
		var f streamCountFrame
		if err := m.Decode(&f); err != nil {
			t.Fatalf("frame %d decode: %v", i, err)
		}
		if f.I != i {
			t.Fatalf("frame %d carries index %d: stream reordered", i, f.I)
		}
	}
	trailer, err := st.Next()
	if err != nil {
		t.Fatalf("trailer: %v", err)
	}
	if !trailer.Last || trailer.Type != "trailer" {
		t.Fatalf("trailer = %+v, want Last trailer", trailer)
	}
	return trailer
}
