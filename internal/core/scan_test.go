package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"rationality/internal/bimatrix"
	"rationality/internal/game"
	"rationality/internal/numeric"
	"rationality/internal/participation"
	"rationality/internal/proof"
)

// catalogAnnouncements is one announcement per bundled format, honest
// and — where an inventor can cheat — forged: the payloads and verdicts
// the hot wire path actually carries.
func catalogAnnouncements(tb testing.TB) []Announcement {
	tb.Helper()
	must := func(a Announcement, err error) Announcement {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
		return a
	}
	pennies := bimatrix.FromInts([][]int64{{1, -1}, {-1, 1}}, [][]int64{{-1, 1}, {1, -1}})
	chicken := game.NewBimatrix("chicken", [][]int64{{6, 2}, {7, 0}}, [][]int64{{6, 7}, {2, 0}})
	entry := participation.MustNew(3, 2, numeric.I(8), numeric.I(3))
	uniform := make(game.MixedProfile, 3)
	for i := range uniform {
		v := numeric.NewVec(2)
		v.SetAt(0, numeric.R(1, 2))
		v.SetAt(1, numeric.R(1, 2))
		uniform[i] = v
	}
	return []Announcement{
		must(AnnounceEnumeration("inv", game.PrisonersDilemma(), proof.MaxNash)),
		must(AnnounceEnumerationForged("inv", game.PrisonersDilemma(), game.Profile{0, 0})),
		must(AnnounceP1("inv", "matching-pennies", pennies)),
		AnnounceP1Forged("inv", "matching-pennies", pennies, []int{0}, []int{0}),
		must(AnnounceNAgent("inv", threeAgentMajority(), uniform)),
		must(AnnounceParticipation("inv", "auction", entry, participation.LowBranch)),
		AnnounceParticipationForged("inv", "auction", entry, "1/7"),
		must(AnnounceCorrelated("device", chicken)),
		must(AnnounceLastMover("house", "entry-game", entry)),
		must(AnnounceLastMoverFlipped("house", "entry-game", entry)),
		must(AnnounceLinksRouting("operator", LinksRoutingSpec{
			Loads: []int64{40, 10, 0}, AgentLoad: 20, Remaining: 2, ObservedTotal: 60, ObservedCount: 3,
		})),
	}
}

func verifyRequestOf(a Announcement) VerifyRequest {
	return VerifyRequest{Format: a.Format, Game: a.Game, Advice: a.Advice, Proof: a.Proof}
}

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// checkVerifyRequestScan is the scanner's whole contract on one input:
// accepting means json.Unmarshal accepts and decodes the identical struct.
func checkVerifyRequestScan(t *testing.T, data []byte) (accepted bool) {
	t.Helper()
	got, ok := ScanVerifyRequest(data)
	if !ok {
		if !reflect.DeepEqual(got, VerifyRequest{}) {
			t.Fatalf("declined %q but returned %+v", data, got)
		}
		return false
	}
	if !json.Valid(data) {
		t.Fatalf("accepted %q, which json.Valid rejects", data)
	}
	var want VerifyRequest
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("accepted %q, which json.Unmarshal refuses: %v", data, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan of %q\n got  %+v\n want %+v", data, got, want)
	}
	return true
}

type batchDoc struct {
	Announcements []Announcement `json:"announcements"`
}

func checkBatchScan(t *testing.T, data []byte) (accepted bool) {
	t.Helper()
	got, ok := ScanAnnouncements(data, "announcements")
	if !ok {
		if got != nil {
			t.Fatalf("declined %q but returned %d items", data, len(got))
		}
		return false
	}
	if !json.Valid(data) {
		t.Fatalf("accepted %q, which json.Valid rejects", data)
	}
	var want batchDoc
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("accepted %q, which json.Unmarshal refuses: %v", data, err)
	}
	if !reflect.DeepEqual(got, want.Announcements) {
		t.Fatalf("scan of %q\n got  %+v\n want %+v", data, got, want.Announcements)
	}
	return true
}

// scanSeeds are the shapes worth naming: what must be accepted, and each
// reason to decline. The fuzz targets start from the same list.
var scanSeeds = []struct {
	name   string
	doc    string
	accept bool
}{
	{"plain", `{"format":"p1-supports/v1","game":{"a":[[1,-1],[-1,1]]},"advice":{"row":[0,1]},"proof":null}`, true},
	{"whitespace", " {\n\t\"format\" : \"f/v1\" ,\r\n \"game\" : [ 1 , 2.5e-3 , -0 ] , \"advice\" : \"x\\n\\u00e9\" } \n", true},
	{"no-proof", `{"format":"f/v1","game":{},"advice":{}}`, true},
	{"empty-object", `{}`, true},
	{"unknown-format-string", `{"format":"brand-new/v9","game":1,"advice":true}`, true},
	{"raw-non-ascii", `{"format":"f/v1","game":"héllo","advice":"\ud83d\ude00"}`, true},
	{"signature", `{"format":"f/v1","game":{},"advice":{},"signature":"c2ln"}`, false},
	{"inventor-on-a-request", `{"inventorId":"i","format":"f/v1","game":{},"advice":{}}`, false},
	{"unknown-key", `{"format":"f/v1","game":{},"advice":{},"extra":1}`, false},
	{"case-folded-key", `{"Format":"f/v1","game":{},"advice":{}}`, false},
	{"escaped-key", `{"f\u006frmat":"f/v1","game":{},"advice":{}}`, false},
	{"duplicate-key", `{"format":"a","format":"b","game":{},"advice":{}}`, false},
	{"duplicate-raw-key", `{"format":"a","game":{},"game":[],"advice":{}}`, false},
	{"escaped-format", `{"format":"f\/v1","game":{},"advice":{}}`, false},
	{"non-ascii-format", `{"format":"fé/v1","game":{},"advice":{}}`, false},
	{"null-format", `{"format":null,"game":{},"advice":{}}`, false},
	{"null-document", `null`, false},
	{"array-document", `[]`, false},
	{"trailing-garbage", `{"format":"f/v1","game":{},"advice":{}} x`, false},
	{"trailing-comma", `{"format":"f/v1","game":{},"advice":{},}`, false},
	{"invalid-raw", `{"format":"f/v1","game":{"a":01},"advice":{}}`, false},
	{"invalid-raw-string", "{\"format\":\"f/v1\",\"game\":\"a\x01b\",\"advice\":{}}", false},
	{"unterminated", `{"format":"f/v1","game":{"a":[1,2`, false},
	{"bad-escape", `{"format":"f/v1","game":"\x","advice":{}}`, false},
	{"short-unicode-escape", `{"format":"f/v1","game":"\u12","advice":{}}`, false},
	{"bare-minus", `{"format":"f/v1","game":-,"advice":{}}`, false},
	{"too-deep", `{"format":"f/v1","game":` + strings.Repeat("[", maxScanDepth+1) + strings.Repeat("]", maxScanDepth+1) + `,"advice":{}}`, false},
	{"empty", ``, false},
}

func TestScanVerifyRequest(t *testing.T) {
	for _, tc := range scanSeeds {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkVerifyRequestScan(t, []byte(tc.doc)); got != tc.accept {
				t.Fatalf("accepted = %v, want %v", got, tc.accept)
			}
		})
	}
	for _, a := range catalogAnnouncements(t) {
		if !checkVerifyRequestScan(t, mustMarshal(t, verifyRequestOf(a))) {
			t.Fatalf("the %s catalog request was declined", a.Format)
		}
	}
}

func TestScanVerifyRequestAliasesItsInput(t *testing.T) {
	data := []byte(`{"format":"f/v1","game":{"n":1},"advice":[2]}`)
	vr, ok := ScanVerifyRequest(data)
	if !ok {
		t.Fatal("declined")
	}
	if &vr.Game[0] != &data[bytes.Index(data, []byte(`{"n"`))] {
		t.Fatal("Game was copied out of the input")
	}
	// Clipped capacity: growing one member must not write into the next.
	_ = append(vr.Game, "XXXXXXXX"...)
	if string(vr.Advice) != `[2]` || !json.Valid(data) {
		t.Fatalf("appending to Game reached its neighbours: advice %q, input %q", vr.Advice, data)
	}
}

func TestScanWrappedVerifyRequest(t *testing.T) {
	type wrapper struct {
		Request VerifyRequest `json:"request"`
	}
	for _, tc := range []struct {
		doc    string
		accept bool
	}{
		{`{"request":{"format":"f/v1","game":{},"advice":[1]}}`, true},
		{` { "request" : {} } `, true},
		{`{}`, false},
		{`{"request":null}`, false},
		{`{"request":{"format":"f/v1"},"request":{}}`, false},
		{`{"request":{"format":"f/v1"},"other":1}`, false},
		{`{"Request":{"format":"f/v1"}}`, false},
		{`{"request":{"format":"f/v1","signature":"c2ln"}}`, false},
		{`{"request":{"format":"f/v1"}}}`, false},
	} {
		got, ok := ScanWrappedVerifyRequest([]byte(tc.doc), "request")
		if ok != tc.accept {
			t.Fatalf("%s: accepted = %v, want %v", tc.doc, ok, tc.accept)
		}
		var want wrapper
		if ok {
			if err := json.Unmarshal([]byte(tc.doc), &want); err != nil {
				t.Fatalf("%s: accepted, json.Unmarshal refuses: %v", tc.doc, err)
			}
		}
		if !reflect.DeepEqual(got, want.Request) {
			t.Fatalf("%s:\n got  %+v\n want %+v", tc.doc, got, want.Request)
		}
	}
}

// batchSeeds wraps the request seeds into batches (as items they gain the
// inventor member a request declines) and adds the batch's own shapes.
func batchSeeds() (docs []string) {
	for _, tc := range scanSeeds {
		docs = append(docs, `{"announcements":[`+tc.doc+`]}`)
	}
	return append(docs,
		`{"announcements":[]}`,
		`{"announcements":null}`,
		`{"announcements":{}}`,
		`{}`,
		` { "announcements" : [ {"inventorId":"a","format":"f/v1","game":{},"advice":{}} , {"format":"g/v1","game":1,"advice":2,"proof":3} , {"inventorId":"a"} , {"inventorId":"b"} , {} ] } `,
		`{"announcements":[{"inventorId":"a","format":"f/v1","game":{},"advice":{},"signature":"c2ln"}]}`,
		`{"announcements":[{"inventorId":"a\tb"}]}`,
		`{"announcements":[{"inventorId":"a"},]}`,
		`{"announcements":[{"inventorId":"a"}],"announcements":[]}`,
		`{"announcements":[{"inventorId":"a"}]}]`,
		`{"Announcements":[]}`,
	)
}

func TestScanAnnouncements(t *testing.T) {
	accepted := 0
	for _, doc := range batchSeeds() {
		if checkBatchScan(t, []byte(doc)) {
			accepted++
		}
	}
	if accepted < 5 {
		t.Fatalf("only %d seed batches accepted: the table no longer exercises the accept path", accepted)
	}
	catalog := catalogAnnouncements(t)
	if !checkBatchScan(t, mustMarshal(t, batchDoc{Announcements: catalog})) {
		t.Fatal("the catalog batch was declined")
	}
	signed := append([]Announcement{}, catalog...)
	signed[3].Signature = []byte("sig")
	if checkBatchScan(t, mustMarshal(t, batchDoc{Announcements: signed})) {
		t.Fatal("a batch with a signed item was accepted: signatures are json.Unmarshal's to decode")
	}
	if got, ok := ScanAnnouncements([]byte(`{"announcements":[]}`), "announcements"); !ok || got == nil {
		t.Fatalf("empty batch = %v, %v: want an empty non-nil slice, as json.Unmarshal gives", got, ok)
	}
}

// FuzzVerifyRequestScan is the differential check of the scanner against
// encoding/json: accept ⇒ json.Unmarshal accepts and decodes the identical
// struct; nothing json.Valid rejects is ever accepted.
func FuzzVerifyRequestScan(f *testing.F) {
	for _, tc := range scanSeeds {
		f.Add([]byte(tc.doc))
	}
	for _, a := range catalogAnnouncements(f) {
		f.Add(mustMarshal(f, verifyRequestOf(a)))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkVerifyRequestScan(t, data) })
}

// FuzzBatchScan is FuzzVerifyRequestScan for the announcement array of a
// verify-stream payload.
func FuzzBatchScan(f *testing.F) {
	for _, doc := range batchSeeds() {
		f.Add([]byte(doc))
	}
	f.Add(mustMarshal(f, batchDoc{Announcements: catalogAnnouncements(f)}))
	f.Fuzz(func(t *testing.T, data []byte) { checkBatchScan(t, data) })
}

// verdictScanSeeds are verdict documents in many spellings: canonical
// ones, and reordered members, whitespace, escapes, nulls, wrong types,
// repeats and malformed tails.
var verdictScanSeeds = []struct {
	name string
	doc  string
}{
	{"accepted", `{"accepted":true,"format":"p1-supports/v1"}`},
	{"accepted-details", `{"accepted":true,"format":"p1-supports/v1","details":{"lambdaCol":"0","x":"(1/2, 1/2)"}}`},
	{"rejected-reason", `{"accepted":false,"format":"f/v1","reason":"proof certifies [1 1] but the advice is [0 0]"}`},
	{"rejected-reason-details", `{"accepted":false,"format":"f/v1","reason":"no","details":{"mode":"max-nash","steps":"4"}}`},
	{"empty-details", `{"accepted":true,"format":"f/v1","details":{}}`},
	{"empty-strings", `{"accepted":false,"format":"","reason":"","details":{"":""}}`},
	{"member-order", `{"details":{"a":"1"},"reason":"r","format":"f/v1","accepted":true}`},
	{"whitespace", " {\n\t\"accepted\" : false ,\r\n \"details\" : { \"a\" : \"1\" , \"b\" : \"2\" } } \n"},
	{"empty-object", `{}`},
	{"escaped-reason", `{"accepted":false,"format":"f/v1","reason":"advice \"participate\""}`},
	{"html-escaped-reason", `{"accepted":false,"format":"f/v1","reason":"1 \u003e 0"}`},
	{"non-ascii-reason", `{"accepted":false,"format":"f/v1","reason":"λ = -1"}`},
	{"escaped-format", `{"accepted":true,"format":"f\/v1"}`},
	{"escaped-details-value", `{"accepted":true,"details":{"a":"\t"}}`},
	{"escaped-details-key", `{"accepted":true,"details":{"\u0061":"1"}}`},
	{"non-ascii-details-key", `{"accepted":true,"details":{"é":"1"}}`},
	{"case-folded-key", `{"Accepted":true,"format":"f/v1"}`},
	{"escaped-key", `{"\u0061ccepted":true}`},
	{"repeated-key", `{"accepted":true,"accepted":false}`},
	{"repeated-format", `{"format":"a","accepted":true,"format":"b"}`},
	{"repeated-details", `{"details":{"a":"1"},"details":{"b":"2"}}`},
	{"repeated-details-key", `{"accepted":true,"details":{"a":"1","a":"2"}}`},
	{"null-details", `{"accepted":true,"format":"f/v1","details":null}`},
	{"null-accepted", `{"accepted":null}`},
	{"null-format", `{"format":null}`},
	{"null-details-value", `{"details":{"a":null}}`},
	{"number-accepted", `{"accepted":1,"format":"f/v1"}`},
	{"string-accepted", `{"accepted":"true","format":"f/v1"}`},
	{"number-details-value", `{"details":{"a":1}}`},
	{"array-details", `{"details":[]}`},
	{"unknown-key", `{"accepted":true,"format":"f/v1","extra":1}`},
	{"truncated-literal", `{"accepted":tru}`},
	{"overlong-literal", `{"accepted":truex}`},
	{"trailing-bytes", `{"accepted":true,"format":"f/v1"} x`},
	{"trailing-brace", `{"accepted":true}}`},
	{"trailing-comma", `{"accepted":true,}`},
	{"unterminated", `{"accepted":true,"details":{"a":"1"`},
	{"null-document", `null`},
	{"array-document", `[]`},
	{"empty", ``},
}

// checkVerdictCanonical is CanonicalVerdict's contract against
// encoding/json: an accept decodes under json.Unmarshal to a verdict of
// the reported polarity whose AppendJSON is the input byte for byte, and
// nothing json.Valid rejects is accepted.
func checkVerdictCanonical(t *testing.T, data []byte) (accepted bool) {
	t.Helper()
	polarity, ok := CanonicalVerdict(data)
	if !ok {
		return false
	}
	if !json.Valid(data) {
		t.Fatalf("CanonicalVerdict accepted invalid JSON %q", data)
	}
	var v Verdict
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("CanonicalVerdict accepted %q, json.Unmarshal refuses it: %v", data, err)
	}
	if got := v.AppendJSON(nil); !bytes.Equal(got, data) {
		t.Fatalf("CanonicalVerdict accepted %q, which re-encodes as %q", data, got)
	}
	if polarity != v.Accepted {
		t.Fatalf("CanonicalVerdict reports accepted=%v for %q", polarity, data)
	}
	return true
}

// canonicalSeeds are canonical verdicts and a non-canonical spelling of
// each kind the check must decline: the decode path re-encodes those.
var canonicalSeeds = []struct {
	name, doc string
	accept    bool
}{
	{"minimal", `{"accepted":false,"format":""}`, true},
	{"accepted", `{"accepted":true,"format":"f/v1"}`, true},
	{"reason", `{"accepted":false,"format":"f/v1","reason":"no"}`, true},
	{"details", `{"accepted":true,"format":"f/v1","details":{"a":"1","b":"<2>"}}`, false},
	{"html-escaped-details", `{"accepted":true,"format":"f/v1","details":{"a":"1","b":"\u003c2\u003e"}}`, true},
	{"escaped-reason", `{"accepted":false,"format":"f/v1","reason":"advice \"participate\" \\ \n\t\u0000\u001f"}`, true},
	{"non-ascii", `{"accepted":false,"format":"f/v1","reason":"λ = -1 \u2028 �","details":{"é":"ü"}}`, true},
	{"del", "{\"accepted\":false,\"format\":\"\x7f\"}", true},
	{"reordered", `{"format":"f/v1","accepted":true}`, false},
	{"details-before-reason", `{"accepted":false,"format":"f/v1","details":{"a":"1"},"reason":"no"}`, false},
	{"space-after-colon", `{"accepted": true,"format":"f/v1"}`, false},
	{"space-before-brace", `{"accepted":true,"format":"f/v1" }`, false},
	{"newline-trailer", "{\"accepted\":true,\"format\":\"f/v1\"}\n", false},
	{"unsorted-details", `{"accepted":true,"format":"f/v1","details":{"b":"1","a":"2"}}`, false},
	{"repeated-details-key", `{"accepted":true,"format":"f/v1","details":{"a":"1","a":"2"}}`, false},
	{"escaped-details-key", `{"accepted":true,"format":"f/v1","details":{"\u003ck":"1"}}`, false},
	{"empty-details", `{"accepted":true,"format":"f/v1","details":{}}`, false},
	{"empty-reason", `{"accepted":false,"format":"f/v1","reason":""}`, false},
	{"missing-format", `{"accepted":true}`, false},
	{"raw-lt", `{"accepted":false,"format":"f/v1","reason":"1 < 2"}`, false},
	{"raw-amp", `{"accepted":false,"format":"f&v1"}`, false},
	{"raw-control", "{\"accepted\":false,\"format\":\"a\tb\"}", false},
	{"raw-line-separator", "{\"accepted\":false,\"format\":\"a\u2028b\"}", false},
	{"invalid-utf8", "{\"accepted\":false,\"format\":\"a\xffb\"}", false},
	{"escaped-replacement", `{"accepted":false,"format":"\ufffd"}`, false},
	{"escaped-slash", `{"accepted":true,"format":"f\/v1"}`, false},
	{"escaped-letter", `{"accepted":true,"format":"\u0066/v1"}`, false},
	{"upper-hex-escape", `{"accepted":true,"format":"\u003C"}`, false},
	{"long-form-tab", `{"accepted":true,"format":"\u0009"}`, false},
	{"surrogate-escape", `{"accepted":true,"format":"\ud83d\ude00"}`, false},
	{"truncated-literal", `{"accepted":tru}`, false},
	{"unterminated", `{"accepted":true,"format":"f/v1"`, false},
	{"trailing-brace", `{"accepted":true,"format":"f/v1"}}`, false},
	{"empty", ``, false},
}

func TestCanonicalVerdict(t *testing.T) {
	for _, tc := range canonicalSeeds {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkVerdictCanonical(t, []byte(tc.doc)); got != tc.accept {
				t.Fatalf("%s: accepted = %v, want %v", tc.doc, got, tc.accept)
			}
		})
	}
	// The guard: the store and the cache hold AppendJSON output, so every
	// catalog verdict must pass — a check that declined everything would
	// keep the contract above and lose the whole gain.
	for _, v := range catalogVerdicts(t) {
		if data := v.AppendJSON(nil); !checkVerdictCanonical(t, data) {
			t.Fatalf("catalog verdict %s declined", data)
		}
	}
	// AppendJSON of any decoded verdict is canonical unless a details key
	// needs an escape; one encoding of invalid UTF-8 (\ufffd) is not a
	// decoded verdict's and must be declined.
	for _, s := range adversarialStrings {
		for _, v := range []Verdict{{Format: s, Reason: s}, {Accepted: true, Format: "f/v1", Details: map[string]string{"k": s}}} {
			data := v.AppendJSON(nil)
			var decoded Verdict
			if err := json.Unmarshal(data, &decoded); err != nil {
				t.Fatal(err)
			}
			fixed := decoded.AppendJSON(nil)
			if got, want := checkVerdictCanonical(t, data), bytes.Equal(fixed, data); got != want {
				t.Fatalf("%q: accepted = %v, want %v", data, got, want)
			}
			if !checkVerdictCanonical(t, fixed) {
				t.Fatalf("%q: the re-encoded fixed point was declined", fixed)
			}
		}
	}
}

func TestCanonicalVerdictDoesNotAllocate(t *testing.T) {
	data := (&Verdict{Format: "f/v1", Reason: `advice "participate" <λ>`, Details: map[string]string{"a": "1", "b": "2"}}).AppendJSON(nil)
	if n := testing.AllocsPerRun(100, func() { CanonicalVerdict(data) }); n != 0 {
		t.Fatalf("CanonicalVerdict allocates %v times per call", n)
	}
}

// FuzzVerdictCanonical is the differential check of CanonicalVerdict
// against encoding/json: accept ⇒ json.Unmarshal accepts, AppendJSON of
// the decoded verdict reproduces the input byte for byte and the
// polarity matches; nothing json.Valid rejects is ever accepted.
func FuzzVerdictCanonical(f *testing.F) {
	for _, tc := range canonicalSeeds {
		f.Add([]byte(tc.doc))
	}
	for _, tc := range verdictScanSeeds {
		f.Add([]byte(tc.doc))
	}
	for _, s := range adversarialStrings {
		f.Add((&Verdict{Accepted: true, Format: s, Reason: s, Details: map[string]string{"k": s, s: s}}).AppendJSON(nil))
	}
	for _, v := range catalogVerdicts(f) {
		data := v.AppendJSON(nil)
		f.Add(data)
		f.Add(bytes.Replace(data, []byte(`":`), []byte(`": `), 1))
		f.Add(bytes.Replace(data, []byte(`\u003c`), []byte(`<`), 1))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkVerdictCanonical(t, data) })
}

var (
	sinkVerifyRequest VerifyRequest
	sinkAnnouncements []Announcement
)

// benchRequest is the catalog's P1 request: 229 bytes on the wire is the
// hot-verify median, and this is the format nearest to it.
func benchRequest(b *testing.B) []byte {
	for _, a := range catalogAnnouncements(b) {
		if a.Format == FormatP1 {
			return mustMarshal(b, verifyRequestOf(a))
		}
	}
	b.Fatal("no P1 announcement in the catalog")
	return nil
}

func BenchmarkScanVerifyRequest(b *testing.B) {
	data := benchRequest(b)
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			vr, ok := ScanVerifyRequest(data)
			if !ok {
				b.Fatal("declined")
			}
			sinkVerifyRequest = vr
		}
	})
	b.Run("json.Unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var vr VerifyRequest
			if err := json.Unmarshal(data, &vr); err != nil {
				b.Fatal(err)
			}
			sinkVerifyRequest = vr
		}
	})
}

// BenchmarkScanBatch1000 decodes a 1000-item verify-stream payload: the
// work between the last request byte arriving and the first item
// entering the pool.
func BenchmarkScanBatch1000(b *testing.B) {
	catalog := catalogAnnouncements(b)
	anns := make([]Announcement, 1000)
	for i := range anns {
		anns[i] = catalog[i%len(catalog)]
	}
	data := mustMarshal(b, batchDoc{Announcements: anns})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			got, ok := ScanAnnouncements(data, "announcements")
			if !ok || len(got) != len(anns) {
				b.Fatal("declined")
			}
			sinkAnnouncements = got
		}
	})
	b.Run("json.Unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var doc batchDoc
			if err := json.Unmarshal(data, &doc); err != nil {
				b.Fatal(err)
			}
			sinkAnnouncements = doc.Announcements
		}
	})
}
