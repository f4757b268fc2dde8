package transport

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// echoHandler replies with the request payload under type "echo", or fails
// on request type "boom".
var echoHandler = HandlerFunc(func(_ context.Context, req Message) (Message, error) {
	if req.Type == "boom" {
		return Message{}, errors.New("kaboom")
	}
	return Message{Type: "echo", Payload: req.Payload}, nil
})

type ping struct {
	N int `json:"n"`
}

func TestNewMessageAndDecode(t *testing.T) {
	m, err := NewMessage("ping", ping{N: 42})
	if err != nil {
		t.Fatal(err)
	}
	var p ping
	if err := m.Decode(&p); err != nil {
		t.Fatal(err)
	}
	if p.N != 42 {
		t.Errorf("N = %d", p.N)
	}
	if _, err := NewMessage("", nil); err == nil {
		t.Error("empty type accepted")
	}
	if _, err := NewMessage("x", make(chan int)); err == nil {
		t.Error("unmarshalable payload accepted")
	}
}

func TestErrorMessageRoundTrip(t *testing.T) {
	m := ErrorMessage(errors.New("nope"))
	if err := m.AsError(); err == nil || err.Error() != "nope" {
		t.Errorf("AsError = %v", err)
	}
	ok, _ := NewMessage("fine", nil)
	if ok.AsError() != nil {
		t.Error("non-error message reported an error")
	}
}

func TestTCPServerCloseIdempotent(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("second Close errored")
	}
}

func TestListenTCPValidation(t *testing.T) {
	if _, err := ListenTCP("127.0.0.1:0", nil); err == nil {
		t.Error("nil handler accepted")
	}
	if _, err := ListenTCP("256.256.256.256:0", echoHandler); err == nil {
		t.Error("bogus address accepted")
	}
}

func TestDialTCPFailure(t *testing.T) {
	if _, err := DialTCP("127.0.0.1:1", 50*time.Millisecond); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestMessageDecodeError(t *testing.T) {
	m := Message{Type: "x", Payload: []byte("{broken")}
	var out ping
	if err := m.Decode(&out); err == nil {
		t.Error("broken payload decoded")
	}
	if fmt.Sprint(m.Type) != "x" {
		t.Error("unexpected type")
	}
}
