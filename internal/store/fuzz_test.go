package store

import (
	"bytes"
	"testing"
)

// FuzzDecodeRecords feeds arbitrary bytes to the sync-frame decoder —
// the bytes every anti-entropy and gossip exchange hands to a peer it
// does not trust. Decoding must never panic or accept garbage silently:
// whatever decodes must survive a re-encode → re-decode round trip
// unchanged.
func FuzzDecodeRecords(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("RVLS\x04"))
	f.Add([]byte("RVLS\x7f"))
	f.Add(hugeLengthBlob)
	// A headerless blob — the first layout's wire form — must be refused.
	f.Add([]byte("\x00\x00\x00\x2a\x00\x00\x00\x00headerless"))
	f.Add([]byte("not a sync frame at all"))
	f.Add(bytes.Repeat([]byte{0x00}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeRecords(data)
		if err != nil {
			return // rejection is the expected fate of fuzz garbage
		}
		if len(recs) == 0 {
			return // e.g. a bare header: nothing to round-trip
		}
		encoded, err := EncodeRecords(recs)
		if err != nil {
			t.Fatalf("decoded records failed to re-encode: %v", err)
		}
		back, err := DecodeRecords(encoded)
		if err != nil {
			t.Fatalf("re-encoded records failed to decode: %v", err)
		}
		if len(back) != len(recs) {
			t.Fatalf("round trip changed the record count: %d -> %d", len(recs), len(back))
		}
		for i := range recs {
			a, b := recs[i], back[i]
			if a.Key != b.Key || a.Stamp != b.Stamp || a.Origin != b.Origin || a.Verdict.Accepted != b.Verdict.Accepted {
				t.Fatalf("record %d changed in round trip: %+v -> %+v", i, a, b)
			}
			if !bytes.Equal(a.Cert, b.Cert) {
				t.Fatalf("record %d certificate changed in round trip", i)
			}
		}
	})
}
