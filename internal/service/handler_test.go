package service

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/reputation"
	"rationality/internal/transport"
)

// TestHandlerVerifyAndFormats: the classic agent protocol ("verify",
// "formats") works against the service over the in-process transport, and
// "formats" advertises every bundled procedure.
func TestHandlerVerifyAndFormats(t *testing.T) {
	s := newTestService(t, Config{ID: "svc-1"})
	client := transport.DialInProc(s)
	ann := pdAnnouncement(t)

	req, err := transport.NewMessage(core.MsgVerify, core.VerifyRequest{
		Format: ann.Format, Game: ann.Game, Advice: ann.Advice, Proof: ann.Proof,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Call(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var vr core.VerifyResponse
	if err := resp.Decode(&vr); err != nil {
		t.Fatal(err)
	}
	if vr.VerifierID != "svc-1" || !vr.Verdict.Accepted {
		t.Fatalf("verify reply = %+v", vr)
	}

	req, err = transport.NewMessage(core.MsgFormats, struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = client.Call(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var fr core.FormatsResponse
	if err := resp.Decode(&fr); err != nil {
		t.Fatal(err)
	}
	if want := core.NewProcedureRegistry().Formats(); len(fr.Formats) != len(want) {
		t.Fatalf("formats = %v, want the %d bundled ones %v", fr.Formats, len(want), want)
	}
}

// TestHandlerBatchAndStatsOverWire exercises the full stream codec path —
// framing, request/response pairing, error envelopes — over an in-memory
// PipeNet, which speaks the exact byte protocol of the TCP transport
// without binding a real port.
func TestHandlerBatchAndStatsOverWire(t *testing.T) {
	rep := reputation.NewRegistry()
	s := newTestService(t, Config{ID: "svc-tcp", Reputation: rep})
	net := transport.NewPipeNet()
	defer net.Close()
	if err := net.Listen("svc", s); err != nil {
		t.Fatal(err)
	}
	client, err := net.Dial("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	honest := pdAnnouncement(t)
	forged, err := core.AnnounceEnumerationForged("shady", game.PrisonersDilemma(), game.Profile{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	verdicts := make([]core.Verdict, 2)
	tr, err := StreamVerify(context.Background(), client, []core.Announcement{honest, forged}, func(sv StreamVerdict) error {
		verdicts[sv.Index] = sv.Verdict
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.VerifierID != "svc-tcp" || tr.Delivered != 2 || tr.Accepted != 1 || tr.Rejected != 1 {
		t.Fatalf("stream trailer = %+v", tr)
	}
	if !verdicts[0].Accepted || verdicts[1].Accepted {
		t.Fatalf("streamed verdicts = %+v", verdicts)
	}

	// A second stream repeating the honest announcement: the first one has
	// fully completed (its trailer arrived), so this is a definite hit.
	if _, err := StreamVerify(context.Background(), client, []core.Announcement{honest}, nil); err != nil {
		t.Fatal(err)
	}

	req, err := transport.NewMessage(MsgServiceStats, struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Call(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var sr StatsResponse
	if err := resp.Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.VerifierID != "svc-tcp" || sr.Stats.Requests != 3 || sr.Stats.Streams != 2 {
		t.Fatalf("stats reply = %+v", sr)
	}
	if sr.Stats.CacheHits != 1 {
		t.Fatalf("cache counters = %+v, want exactly 1 hit from the repeat stream", sr.Stats)
	}
	if rep.Score("shady").Disagreements != 1 {
		t.Fatal("forger not reported over the wire path")
	}
}

func TestHandlerUnknownTypeAndMalformedPayload(t *testing.T) {
	s := newTestService(t, Config{ID: "svc-err"})
	client := transport.DialInProc(s)

	// verify-batch is no message of this service: a batch is a verify-stream.
	payload := []byte(`{"announcements": []}`)
	for _, typ := range []string{"bogus", "verify-batch"} {
		_, err := client.Call(context.Background(), transport.Message{Type: typ, Payload: payload})
		if err == nil || !strings.Contains(err.Error(), "cannot handle") {
			t.Fatalf("%s: err = %v, want a cannot-handle error", typ, err)
		}
	}
	malformed := transport.Message{Type: MsgVerifyStream, Payload: []byte(`{"announcements": 42}`)}
	st, err := client.CallStream(context.Background(), malformed)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Next(); err == nil {
		t.Fatal("malformed batch payload succeeded")
	}
}

// TestHandlerVerifyScanAndDeclineAgree: the verify payload is decoded by
// the single-pass scanner when it has the plain shape and by
// json.Unmarshal when it does not, and a caller cannot tell which — the
// same request spelled either way gets the same reply bytes, which are
// json.Marshal's — while a payload json.Unmarshal refuses is still an
// error reply, invalid JSON inside a raw member included.
func TestHandlerVerifyScanAndDeclineAgree(t *testing.T) {
	s := newTestService(t, Config{ID: "svc-scan"})
	client := transport.DialInProc(s)
	ann := pdAnnouncement(t)
	plain, err := transport.NewMessage(core.MsgVerify, core.VerifyRequest{
		Format: ann.Format, Game: ann.Game, Advice: ann.Advice, Proof: ann.Proof,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := core.ScanVerifyRequest(plain.Payload); !ok {
		t.Fatal("the plain request is not on the scanner's path")
	}
	want, err := client.Call(context.Background(), plain)
	if err != nil {
		t.Fatal(err)
	}
	var vr core.VerifyResponse
	if err := want.Decode(&vr); err != nil || !vr.Verdict.Accepted {
		t.Fatalf("plain reply = %+v, %v", vr, err)
	}
	if marshalled, _ := json.Marshal(vr); !bytes.Equal(want.Payload, marshalled) {
		t.Fatalf("reply bytes are not json.Marshal's:\n got  %s\n want %s", want.Payload, marshalled)
	}

	body := string(plain.Payload[1:]) // the members, after the opening brace
	for name, payload := range map[string]string{
		"unknown key":     `{"extra":[1,{"a":null}],` + body,
		"signature":       `{"signature":"c2ln",` + body,
		"case-folded key": strings.Replace(string(plain.Payload), `"format"`, `"FORMAT"`, 1),
		"escaped key":     strings.Replace(string(plain.Payload), `"format"`, `"f\u006frmat"`, 1),
		"duplicate key":   `{"format":"shadowed/v0",` + body,
		"whitespace":      " {\n\t" + body + "\n",
	} {
		if _, ok := core.ScanVerifyRequest([]byte(payload)); ok && name != "whitespace" {
			t.Fatalf("%s: on the scanner's path, expected a decline", name)
		}
		got, err := client.Call(context.Background(), transport.Message{Type: core.MsgVerify, Payload: []byte(payload)})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("%s: reply %s, want %s", name, got.Payload, want.Payload)
		}
	}

	for name, payload := range map[string]string{
		"invalid JSON in a raw member": `{"format":"` + ann.Format + `","game":{"players":01},"advice":{}}`,
		"control byte in a raw member": "{\"format\":\"" + ann.Format + "\",\"game\":\"a\x01b\",\"advice\":{}}",
		"truncated":                    string(plain.Payload[:len(plain.Payload)/2]),
		"not an object":                `[1,2,3]`,
		"empty":                        ``,
	} {
		_, err := client.Call(context.Background(), transport.Message{Type: core.MsgVerify, Payload: []byte(payload)})
		if err == nil || !strings.Contains(err.Error(), "decoding") {
			t.Fatalf("%s: err = %v, want the payload decoding error as an error reply", name, err)
		}
	}
	// The connection survived every error reply.
	if _, err := client.Call(context.Background(), plain); err != nil {
		t.Fatal(err)
	}
}

// TestStreamVerdictAppendJSONMatchesMarshal: a stream frame's payload is
// json.Marshal's bytes, with and without a certificate.
func TestStreamVerdictAppendJSONMatchesMarshal(t *testing.T) {
	for _, sv := range []StreamVerdict{
		{},
		{Index: 999, Verdict: core.Verdict{Accepted: true, Format: "f/v1", Details: map[string]string{"b": "<2>", "a": "1"}}},
		{Index: -1, Verdict: core.Verdict{Format: "f/v1", Reason: "payoff \"mismatch\" & more"}},
		{Index: 7, Verdict: core.Verdict{Accepted: true, Format: "f/v1"}, Certificate: &core.Certificate{
			Key: "ab12", Verdict: core.Verdict{Accepted: true, Format: "f/v1"}, Panel: []byte{0x03}, Sigs: [][]byte{[]byte("s0"), []byte("s1")},
		}},
	} {
		want, err := json.Marshal(sv)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sv.appendJSON(nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("appendJSON = %s, %v\n want %s", got, err, want)
		}
	}
}
