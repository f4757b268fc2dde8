package core

import (
	"bytes"
	"encoding/json"
	"testing"
)

// checkVerdictEncoding: the append encoder's bytes are json.Marshal's,
// for the verdict alone and spliced into a VerifyResponse, and appending to a
// non-empty buffer only appends.
func checkVerdictEncoding(t *testing.T, v Verdict) {
	t.Helper()
	want := mustMarshal(t, v)
	if got := v.AppendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("Verdict.AppendJSON\n got  %s\n want %s", got, want)
	}
	if got := v.AppendJSON([]byte("prefix")); !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("AppendJSON onto a prefix = %s", got)
	}
	resp := VerifyResponse{VerifierID: v.Reason, Verdict: v}
	if got, want := AppendVerifyResponse(nil, v.Reason, v.AppendJSON(nil)), mustMarshal(t, resp); !bytes.Equal(got, want) {
		t.Fatalf("AppendVerifyResponse\n got  %s\n want %s", got, want)
	}
}

// adversarialStrings is everything json.Marshal treats specially in a
// string: the HTML-unsafe bytes, the JSONP-unsafe separators, the named
// and the numbered control escapes, DEL (not escaped), and invalid UTF-8
// in each position a decoder can trip on.
var adversarialStrings = []string{
	"", "plain", `"quoted"`, `back\slash`, "<script>alert(1)&amp;</script>",
	"line\u2028sep\u2029arator", "\u2027\u202a", "tab\tnew\nret\rbs\bff\f", "\x00\x01\x1f\x7f",
	"h\u00e9llo w\u00f6rld \u2713 \U0001F600", "\xff", "a\xc3", "\xe2\x80", "\xed\xa0\x80", "\xf0\x9f\x98", "ok\xc0\xafok", "\ufffd",
}

// catalogVerdicts is the verdict each catalog announcement earns — an
// acceptance with its details, or a rejection with its reason.
func catalogVerdicts(tb testing.TB) []Verdict {
	tb.Helper()
	reg := NewProcedureRegistry()
	var out []Verdict
	for _, a := range catalogAnnouncements(tb) {
		proc, err := reg.Lookup(a.Format)
		if err != nil {
			tb.Fatal(err)
		}
		v, err := proc.Verify(a.Game, a.Advice, a.Proof)
		if err != nil {
			v = &Verdict{Format: a.Format, Reason: err.Error()}
		}
		out = append(out, *v)
	}
	return out
}

func TestVerdictAppendJSONMatchesMarshal(t *testing.T) {
	for _, v := range catalogVerdicts(t) {
		checkVerdictEncoding(t, v)
	}
	checkVerdictEncoding(t, Verdict{})
	checkVerdictEncoding(t, Verdict{Accepted: true, Format: "f/v1", Details: map[string]string{}})
	for _, s := range adversarialStrings {
		checkVerdictEncoding(t, Verdict{Format: s, Reason: s})
		checkVerdictEncoding(t, Verdict{Accepted: true, Details: map[string]string{s: s, "z" + s: "", s + "a": s}})
	}
	// More keys than the on-stack buffer, in an order sorting must fix.
	many := map[string]string{}
	for _, k := range []string{"k9", "k10", "K", "", "é", "a<b", "k1", "zz", "z", "m", "b", "a"} {
		many[k] = k
	}
	checkVerdictEncoding(t, Verdict{Details: many})
}

// FuzzVerdictAppendJSON: for arbitrary strings in every position, the
// append encoder and json.Marshal agree byte for byte.
func FuzzVerdictAppendJSON(f *testing.F) {
	for _, s := range adversarialStrings {
		f.Add(true, s, s, s, s)
	}
	f.Add(false, "f/v1", "payoff mismatch", "row", "[0,1]")
	f.Fuzz(func(t *testing.T, accepted bool, format, reason, key, value string) {
		checkVerdictEncoding(t, Verdict{Accepted: accepted, Format: format, Reason: reason})
		checkVerdictEncoding(t, Verdict{Accepted: accepted, Format: format, Reason: reason,
			Details: map[string]string{key: value, value: key, "k": reason}})
	})
}

// checkRequestEncoding: VerifyRequest.AppendJSON writes json.Marshal's
// bytes, or fails where json.Marshal fails, and appending to a non-empty
// buffer only appends. A store record's content sum covers these bytes.
func checkRequestEncoding(t *testing.T, r VerifyRequest) {
	t.Helper()
	want, wantErr := json.Marshal(r)
	got, err := r.AppendJSON([]byte("prefix"))
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("AppendJSON(%+v) error %v, json.Marshal's %v", r, err, wantErr)
	}
	if err == nil && !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("VerifyRequest.AppendJSON\n got  %s\n want prefix%s", got, want)
	}
}

func TestVerifyRequestAppendJSONMatchesMarshal(t *testing.T) {
	for _, c := range pinnedCases(t, 1) {
		checkRequestEncoding(t, verifyRequestOf(c.ann))
	}
	raws := []string{"", "null", "{}", `[1, 2]`, " {}", "{}\n", `{"a":"x y"}`, `{"a":"<b>&"}`, `{"a":"x&y"}`, `{"a":">"}`,
		"{\"a\":\"\u2028\u2029\"}", `{"a":"\u2028"}`, `{"a":`, `{"a":1}}`, "\"\xff\"", `"é"`, `{"a":"\t"}`}
	for _, raw := range raws {
		for _, format := range []string{FormatP1, "<f&>", "\u2028", ""} {
			checkRequestEncoding(t, VerifyRequest{Format: format, Game: json.RawMessage(raw), Advice: json.RawMessage(`[0]`)})
			checkRequestEncoding(t, VerifyRequest{Format: format, Game: json.RawMessage(`{}`), Advice: json.RawMessage(raw), Proof: json.RawMessage(raw)})
		}
	}
	checkRequestEncoding(t, VerifyRequest{Format: FormatP1})
}

var sinkBytes []byte

func BenchmarkVerdictAppendJSON(b *testing.B) {
	resp := VerifyResponse{VerifierID: "authority-1", Verdict: Verdict{
		Accepted: true, Format: FormatP1,
		Details: map[string]string{"lambda1": "0", "lambda2": "0", "rowSupport": "[0 1]", "colSupport": "[0 1]"},
	}}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var verdict []byte
		for i := 0; i < b.N; i++ {
			verdict = resp.Verdict.AppendJSON(verdict[:0])
			sinkBytes = AppendVerifyResponse(make([]byte, 0, 256), resp.VerifierID, verdict)
		}
	})
	b.Run("json.Marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkBytes, _ = json.Marshal(resp)
		}
	})
}
