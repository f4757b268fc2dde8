package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"rationality/internal/core"
	"rationality/internal/identity"
)

// buildTail frames n records into a byte slice exactly as the flusher
// would write them (version header first), returning the bytes and the
// framed length of each record so tests can corrupt precise offsets.
func buildTail(t *testing.T, n int) (data []byte, sizes []int) {
	t.Helper()
	data = append(data, segmentHeader...)
	for i := 0; i < n; i++ {
		rec := Record{Key: testKey(i), Stamp: uint64(i + 1), Verdict: testVerdict(i)}
		before := len(data)
		var err error
		data, _, err = appendRecord(data, &rec)
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(data)-before)
	}
	return data, sizes
}

// withVerdictBody returns a copy of one record frame with its verdict
// column replaced by body and its length and CRC recomputed, so the frame
// checks pass and only the verdict decode can refuse it.
func withVerdictBody(frame []byte, body string) []byte {
	lens := frame[headerLen+keyLen+stampLen:]
	bodyAt := headerLen + minPayload + int(binary.BigEndian.Uint16(lens)) +
		int(binary.BigEndian.Uint32(lens[2:])) + int(binary.BigEndian.Uint32(lens[6:]))
	out := append(slices.Clip(frame[:bodyAt]), body...)
	binary.BigEndian.PutUint32(out, uint32(len(out)-headerLen))
	binary.BigEndian.PutUint32(out[4:], crc32.Checksum(out[headerLen:], crcTable))
	return out
}

// TestCrashRecoveryTable is the torn-write salvage table: each case
// corrupts the tail segment a different way, and recovery must come back
// with exactly the longest valid prefix — never an error, never a record
// that was not written (a corrupt record must not poison the cache), and
// always a store that accepts appends afterwards.
func TestCrashRecoveryTable(t *testing.T) {
	const n = 6
	cases := []struct {
		name string
		// corrupt mutates the well-formed tail bytes.
		corrupt func(data []byte, sizes []int) []byte
		// wantRecords is how many records the longest valid prefix holds.
		wantRecords int
		wantSalvage bool
	}{
		{
			name:        "clean file",
			corrupt:     func(data []byte, _ []int) []byte { return data },
			wantRecords: n,
		},
		{
			name:        "empty file",
			corrupt:     func(_ []byte, _ []int) []byte { return nil },
			wantRecords: 0,
		},
		{
			name: "truncated tail record",
			corrupt: func(data []byte, sizes []int) []byte {
				// Cut mid-payload of the final record: the classic torn
				// write of a crash during an append.
				return data[:len(data)-sizes[n-1]/2]
			},
			wantRecords: n - 1,
			wantSalvage: true,
		},
		{
			name: "truncated mid-header",
			corrupt: func(data []byte, sizes []int) []byte {
				return data[:len(data)-sizes[n-1]+3]
			},
			wantRecords: n - 1,
			wantSalvage: true,
		},
		{
			name: "flipped CRC byte in final record",
			corrupt: func(data []byte, sizes []int) []byte {
				data[len(data)-1] ^= 0xff
				return data
			},
			wantRecords: n - 1,
			wantSalvage: true,
		},
		{
			name: "flipped byte mid-log",
			corrupt: func(data []byte, sizes []int) []byte {
				// Corrupt the third record's payload: framing cannot be
				// trusted past it, so salvage keeps only records 0 and 1
				// even though later bytes happen to be intact.
				off := sizes[0] + sizes[1] + sizes[2] - 1
				data[off] ^= 0xff
				return data
			},
			wantRecords: 2,
			wantSalvage: true,
		},
		{
			name: "verdict that is not JSON under a valid CRC",
			corrupt: func(data []byte, sizes []int) []byte {
				// Every frame check passes on the third record; only its
				// verdict decode refuses it, and salvage stops there as at
				// a torn frame.
				off := segmentHeaderLen + sizes[0] + sizes[1]
				bad := withVerdictBody(data[off:off+sizes[2]], `{"accepted":tru}`)
				return slices.Concat(data[:off], bad, data[off+sizes[2]:])
			},
			wantRecords: 2,
			wantSalvage: true,
		},
		{
			name: "garbage appended after valid records",
			corrupt: func(data []byte, _ []int) []byte {
				return append(data, []byte{0xde, 0xad, 0xbe, 0xef, 0x01}...)
			},
			wantRecords: n,
			wantSalvage: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			data, sizes := buildTail(t, n)
			tailPath := filepath.Join(dir, tailName)
			if err := os.WriteFile(tailPath, tc.corrupt(data, sizes), 0o644); err != nil {
				t.Fatal(err)
			}

			s, recs, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("recovery must salvage, not fail: %v", err)
			}
			defer s.Close()
			if len(recs) != tc.wantRecords {
				t.Fatalf("recovered %d records, want %d", len(recs), tc.wantRecords)
			}
			st := s.Stats()
			if st.Replayed != uint64(tc.wantRecords) {
				t.Fatalf("Replayed = %d, want %d", st.Replayed, tc.wantRecords)
			}
			if tc.wantSalvage && st.SalvagedBytes == 0 {
				t.Fatal("salvage expected but SalvagedBytes == 0")
			}
			if !tc.wantSalvage && st.SalvagedBytes != 0 {
				t.Fatalf("SalvagedBytes = %d on an uncorrupted tail", st.SalvagedBytes)
			}
			// Never poison the cache: every recovered verdict must be
			// byte-for-byte one that was actually written, under its key.
			for _, r := range recs {
				want := -1
				for i := 0; i < n; i++ {
					if r.Key == testKey(i) {
						want = i
						break
					}
				}
				if want == -1 {
					t.Fatalf("recovered a key that was never written: %x", r.Key)
				}
				if !reflect.DeepEqual(r.Verdict, testVerdict(want)) {
					t.Fatalf("verdict %d corrupted in recovery: %+v", want, r.Verdict)
				}
			}
			// The salvaged tail must be a trusted append point: new
			// records land after the valid prefix and survive a restart.
			fresh := identity.DigestBytes([]byte("post-salvage"))
			if !s.Append(fresh, core.Verdict{Accepted: true, Format: "test/v1"}, nil) {
				t.Fatal("append refused after salvage")
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, recs2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if len(recs2) != tc.wantRecords+1 {
				t.Fatalf("after salvage+append+restart: %d records, want %d",
					len(recs2), tc.wantRecords+1)
			}
		})
	}
}

// TestRecoverTornSnapshot: a corrupt snapshot loses only its own suffix;
// the tail still replays, and nothing fails.
func TestRecoverTornSnapshot(t *testing.T) {
	dir := t.TempDir()
	snapData, snapSizes := buildTail(t, 3)
	// Stamp-shift a tail with 2 newer records for different keys.
	tail := append([]byte(nil), segmentHeader...)
	for i := 10; i < 12; i++ {
		rec := Record{Key: testKey(i), Stamp: uint64(i + 1), Verdict: testVerdict(i)}
		var err error
		tail, _, err = appendRecord(tail, &rec)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the snapshot's last record.
	snapData = snapData[:len(snapData)-snapSizes[2]/2]
	if err := os.WriteFile(filepath.Join(dir, snapshotName), snapData, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, tailName), tail, 0o644); err != nil {
		t.Fatal(err)
	}
	s, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(recs) != 4 { // 2 salvaged from the snapshot + 2 from the tail
		t.Fatalf("recovered %d records, want 4", len(recs))
	}
}

// TestStampsResumePastSalvage: the next stamp continues above the highest
// recovered stamp, so latest-wins ordering holds across a crash.
func TestStampsResumePastSalvage(t *testing.T) {
	dir := t.TempDir()
	data, _ := buildTail(t, 4)
	if err := os.WriteFile(filepath.Join(dir, tailName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Supersede key 0; its stamp must beat the recovered stamp 1.
	s.Append(testKey(0), testVerdict(8), nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if len(recs) != 4 {
		t.Fatalf("recovered %d records, want 4", len(recs))
	}
	for _, r := range recs {
		if r.Key == testKey(0) && !reflect.DeepEqual(r.Verdict, testVerdict(8)) {
			t.Fatalf("superseding verdict lost: %+v", r.Verdict)
		}
	}
}

// TestDecodeRecordsRefusesNonJSONVerdict: on the wire, the frame the
// crash table salvages around is an error, not a shorter delta.
func TestDecodeRecordsRefusesNonJSONVerdict(t *testing.T) {
	blob, err := EncodeRecords([]Record{{Key: testKey(1), Stamp: 1, Verdict: testVerdict(1)}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRecords(blob); err != nil {
		t.Fatalf("intact delta: %v", err)
	}
	bad := append(slices.Clip(blob[:segmentHeaderLen]), withVerdictBody(blob[segmentHeaderLen:], `{"accepted":tru}`)...)
	if recs, err := DecodeRecords(bad); err == nil {
		t.Fatalf("a delta whose verdict is not JSON decoded to %+v", recs)
	}
}

// TestEscapedVerdictsRoundTrip: verdicts whose strings need escaping —
// quotes, the HTML-unsafe <>&, non-ASCII, invalid UTF-8 — reopen as
// json.Unmarshal decodes their encoding, beside plain ones.
func TestEscapedVerdictsRoundTrip(t *testing.T) {
	verdicts := []core.Verdict{
		{Accepted: true, Format: "test/v1", Details: map[string]string{"plain": "1"}},
		{Format: "test/v1", Reason: `advice "participate" is not a best reply`},
		{Format: "test/v1", Reason: "1 > -1 & 0 < 1", Details: map[string]string{"<k>": "a&b"}},
		{Format: "test/v1", Reason: "λ = -1", Details: map[string]string{"é": "ü"}},
		{Format: "test/v1", Reason: "bad \xff byte", Details: map[string]string{"k\xc3": "\xed\xa0\x80"}},
		{Accepted: true, Format: "tab\tnew\nline", Details: map[string]string{}},
	}
	dir := t.TempDir()
	s, _ := mustOpen(t, dir, Options{})
	for i, v := range verdicts {
		if !s.Append(testKey(i), v, nil) {
			t.Fatal("append refused")
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs := mustOpen(t, dir, Options{})
	if len(recs) != len(verdicts) {
		t.Fatalf("reopened %d records, want %d", len(recs), len(verdicts))
	}
	for i, v := range verdicts {
		var want core.Verdict
		if err := json.Unmarshal(v.AppendJSON(nil), &want); err != nil {
			t.Fatal(err)
		}
		j := slices.IndexFunc(recs, func(r Record) bool { return r.Key == testKey(i) })
		if j < 0 || !reflect.DeepEqual(recs[j].Verdict, want) {
			t.Fatalf("verdict %d did not round-trip: want %+v, records %+v", i, want, recs)
		}
	}
}

// TestDecodedColumnsDoNotOverlap: a decoded record's Request and Cert
// share one payload buffer, but appending to the Request must not write
// into the certificate bytes behind it.
func TestDecodedColumnsDoNotOverlap(t *testing.T) {
	cert := []byte(`{"certificate":"bytes"}`)
	blob, err := EncodeRecords([]Record{{Key: testKey(1), Stamp: 1, Request: testRequest(1), Cert: cert, Verdict: testVerdict(1)}})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := DecodeRecords(blob)
	if err != nil || len(recs) != 1 {
		t.Fatalf("decode: %d records, %v", len(recs), err)
	}
	_ = append(recs[0].Request, "XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX"...)
	if !bytes.Equal(recs[0].Cert, cert) {
		t.Fatalf("appending to the request overwrote the certificate: %q", recs[0].Cert)
	}
}
