package service

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"rationality/internal/transport"
)

// FuzzStreamWireJSON fuzzes the verify-stream wire surface end to end:
// arbitrary bytes are decoded as a transport envelope and then as each
// payload the streaming exchange carries (BatchVerifyRequest in,
// StreamVerdict / StreamTrailer out). Every decoded
// value must re-marshal — a server must never be able to produce, nor a
// client be wedged by, a frame the codec cannot round-trip. Replication
// messages go one step further, into the handler of a store-backed
// service: whatever a peer puts in a fingerprint set, a scope bitmap or a
// manifest, the answer is a reply or an error, never a panic.
func FuzzStreamWireJSON(f *testing.F) {
	f.Add([]byte(`{"type":"verify-stream","payload":{"announcements":[{"inventorId":"a","format":"f/v1","game":{},"advice":{}}]}}`))
	f.Add([]byte(`{"type":"stream-verdict","payload":{"index":3,"verdict":{"accepted":true,"format":"f/v1"}}}`))
	f.Add([]byte(`{"type":"stream-verdict","payload":{"index":0,"verdict":{"accepted":false},"certificate":{"key":"00","sigs":[]}}}`))
	f.Add([]byte(`{"type":"stream-trailer","payload":{"verifierId":"v","items":2,"delivered":1,"truncated":true,"reason":"closed"},"last":true}`))
	f.Add([]byte(`{"type":"verify-stream","payload":{"announcements":[]}}`))
	f.Add([]byte(`{"type":"stream-trailer","payload":{"verifierId":"v","items":2,"delivered":1,"accepted":1,"truncated":true,"reason":"context canceled","elapsed":1500,"firstVerdict":700},"last":true}`))
	// Batches the single-pass scanner declines to json.Unmarshal: a signed
	// item, an escaped key, a repeated key, a case-folded key.
	f.Add([]byte(`{"type":"verify-stream","payload":{"announcements":[{"inventorId":"a","format":"f/v1","game":{},"advice":{},"signature":"c2ln"}]}}`))
	f.Add([]byte(`{"type":"verify-stream","payload":{"announcements":[{"inventorId":"a","f\u006frmat":"f/v1","game":{},"advice":{}}]}}`))
	f.Add([]byte(`{"type":"verify-stream","payload":{"announcements":[{"format":"f/v1","format":"g/v1","game":{},"game":[],"advice":{}}]}}`))
	f.Add([]byte(`{"type":"verify-stream","payload":{"Announcements":[{"inventorId":"a"}],"announcements":[]}}`))
	f.Add([]byte(`{"payload":{"index":-1}}`))
	f.Add([]byte{0x00})
	// Malformed scoped offers: a 3-byte bitmap (24 buckets is no width), a
	// key outside the one bucket in scope, 12 fingerprints, 9 bytes of them.
	f.Add([]byte(`{"type":"sync-offer","payload":{"verifierId":"p","have":[],"scope":"AAAA"}}`))
	f.Add([]byte(`{"type":"gossip-pull","payload":{"verifierId":"p","have":[{"key":"/////////////////////////////////////////w==","stamp":1,"sum":2}],"scope":"AQ=="}}`))
	f.Add([]byte(`{"type":"gossip","payload":{"verifierId":"p","buckets":"` + strings.Repeat("A", 128) + `"}}`))
	f.Add([]byte(`{"type":"gossip","payload":{"verifierId":"p","buckets":"AAAAAAAAAAAA"}}`))
	f.Add([]byte(`{"type":"gossip-push","payload":{"offer":{"have":null,"scope":"/w=="},"delta":{"count":1,"records":"UlZMUwQ="}}}`))
	svc := newTestService(f, Config{ID: "fuzzed", PersistPath: f.TempDir()})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m transport.Message
		if err := json.Unmarshal(data, &m); err != nil {
			return
		}
		if len(m.Payload) == 0 {
			return
		}
		switch m.Type {
		case MsgSyncOffer, MsgGossip, MsgGossipPull, MsgGossipPush:
			if resp, err := svc.Handle(context.Background(), m); err == nil {
				if _, err := json.Marshal(resp); err != nil {
					t.Fatalf("handler reply to %q does not marshal: %v", m.Type, err)
				}
			}
		}
		reencode := func(v any) {
			if _, err := json.Marshal(v); err != nil {
				t.Fatalf("decoded %T failed to re-marshal: %v (payload %q)", v, err, m.Payload)
			}
		}
		var br BatchVerifyRequest
		err := m.Decode(&br)
		if err == nil {
			reencode(br)
		}
		// The batch decoder's two paths cannot be told apart: what the
		// scanner accepts is what json.Unmarshal decodes, and what it
		// declines is json.Unmarshal's to accept or refuse.
		anns, scanErr := decodeBatch(m)
		if (scanErr == nil) != (err == nil) || (err == nil && !reflect.DeepEqual(anns, br.Announcements)) {
			t.Fatalf("decodeBatch = %+v, %v; json.Unmarshal = %+v, %v (payload %q)", anns, scanErr, br.Announcements, err, m.Payload)
		}
		var sv StreamVerdict
		if err := m.Decode(&sv); err == nil {
			reencode(sv)
		}
		var tr StreamTrailer
		if err := m.Decode(&tr); err == nil {
			reencode(tr)
		}
	})
}
