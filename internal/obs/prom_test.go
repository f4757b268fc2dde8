package obs

import (
	"bytes"
	"context"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/gossip"
	"rationality/internal/identity"
	"rationality/internal/proof"
	"rationality/internal/service"
	"rationality/internal/store"
)

// -update regenerates the golden files (metrics, text, watch and stats
// JSON) from the current renderers: go test ./internal/obs -update
var update = flag.Bool("update", false, "rewrite golden files")

// fixtureStats is a fully populated snapshot: every section present,
// every counter distinct (so a transposed field shows up in the golden
// diff), a trimmed latency histogram, and a peer ID that needs label
// escaping.
func fixtureStats() service.Stats {
	lat := service.LatencySummary{
		Count: 120,
		Mean:  12_345 * time.Nanosecond,
		Total: 1_481_400 * time.Nanosecond,
		Min:   800 * time.Nanosecond,
		Max:   2 * time.Millisecond,
		P50:   2047 * time.Nanosecond,
		P95:   1_048_575 * time.Nanosecond,
		P99:   2 * time.Millisecond,
		// Buckets trimmed after the last populated index (20), the way
		// service.Stats ships them.
		Buckets: []uint64{0, 0, 0, 0, 0, 0, 0, 0, 0, 100, 18, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2},
	}
	return service.Stats{
		Requests:          120,
		CacheHits:         90,
		CacheMisses:       30,
		Deduplicated:      7,
		Ingested:          12,
		DeltasServed:      4,
		SyncRounds:        9,
		IngestRefutations: 2,
		Audits:            10,
		AuditRefutations:  3,
		AuditsShed:        1,
		CertsCosigned:     6,
		CertsStored:       5,
		CertsServed:       13,
		CertsRejected:     2,
		Accepted:          100,
		Rejected:          18,
		Failures:          2,
		InFlight:          1,
		PeakInFlight:      8,
		CacheEntries:      5,
		CacheShards:       4,
		ShardEntries:      []int{2, 1, 0, 2},
		Workers:           4,
		Latency:           lat,
		Streams:           5,
		StreamTTFV: service.LatencySummary{
			Count:   5,
			Mean:    40_000 * time.Nanosecond,
			Total:   200_000 * time.Nanosecond,
			Min:     10_000 * time.Nanosecond,
			Max:     120_000 * time.Nanosecond,
			P50:     32_767 * time.Nanosecond,
			P95:     131_071 * time.Nanosecond,
			P99:     131_071 * time.Nanosecond,
			Buckets: []uint64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 2},
		},
		Admission: &service.AdmissionStats{
			Interactive: service.ClassAdmissionStats{Admitted: 95, Shed: 2, ShedItems: 2, Rate: 200, Burst: 400},
			Batch:       service.ClassAdmissionStats{Admitted: 4, Shed: 3, ShedItems: 6000, Rate: 500, Burst: 1000},
		},
		Persistence: &store.Stats{
			Persisted:        30,
			Replayed:         5,
			Dropped:          1,
			Failed:           0,
			Ingested:         12,
			Compactions:      2,
			CompactedRecords: 9,
			LiveRecords:      35,
			GarbageRecords:   3,
			SalvagedBytes:    128,
		},
		Federation: &service.FederationStats{
			Signer:              "aa11aa11",
			TrustedPeers:        2,
			RejectedUnsigned:    1,
			RejectedUnknown:     3,
			RejectedBadSig:      0,
			RejectedCorrupt:     1,
			RejectedQuarantined: 2,
			Quarantined:         1,
			Peers: map[string]service.PeerSyncStats{
				"bb22bb22": {Deltas: 4, Records: 12, Rejected: 2,
					Refutations: 3, Reputation: 0.2, State: "quarantined"},
				// A hostile peer ID exercising every label escape: quote,
				// backslash, newline.
				"evil\"peer\\one\n": {Deltas: 0, Records: 0, Rejected: 3},
			},
		},
		Gossip: &gossip.Stats{
			Rounds:          14,
			Exchanges:       25,
			Failures:        3,
			InSync:          16,
			RecordsSent:     42,
			RecordsReceived: 37,
			BytesSent:       9001,
			BytesReceived:   8002,
			RumorsPending:   2,
			Fanout:          2,
			Seed:            42,
			Peers: []gossip.PeerStats{
				{
					Address: "10.0.0.2:7002", Signer: "bb22bb22", State: "open",
					ConsecutiveFailures: 3, Backoff: 1500 * time.Millisecond,
					Attempts: 9, Failed: 5, RecordsSent: 20, RecordsReceived: 12,
					SkippedBackoff: 40, SkippedQuarantine: 2,
				},
				{Address: "10.0.0.3:7002", State: "healthy", Attempts: 11,
					RecordsSent: 22, RecordsReceived: 30},
			},
		},
	}
}

// TestWriteMetricsGolden compares the full exposition output against the
// committed golden file: every metric family, HELP/TYPE line, label and
// sample, byte for byte.
func TestWriteMetricsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, "verify-corp", fixtureStats()); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.golden", buf.Bytes())
}

// checkGolden compares got against testdata/name, rewriting the file
// first under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (re-run with -update after intentional changes)\n%s", golden, diffFirstLine(got, want))
	}
}

// diffFirstLine points a failing golden comparison at the first
// mismatching line instead of dumping two full renderings.
func diffFirstLine(got, want []byte) string {
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return "line " + strconv.Itoa(i+1) + ":\n  got:  " + g[i] + "\n  want: " + w[i]
		}
	}
	return "got " + strconv.Itoa(len(g)) + " lines, want " + strconv.Itoa(len(w))
}

// TestWriteMetricsLint re-parses the rendered exposition with the
// promtool-free lint below: well-formed HELP/TYPE for every family,
// legal metric and label names, parseable values, correctly quoted and
// escaped labels, monotone cumulative histogram buckets, and no
// duplicate series.
func TestWriteMetricsLint(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, "verify-corp", fixtureStats()); err != nil {
		t.Fatal(err)
	}
	lintExposition(t, buf.String())
}

// TestWriteMetricsLintLiveService runs the lint over a rendering of a
// real service's stats — persistence and federation enabled, real
// traffic — so the fixture cannot drift from what the service actually
// produces.
func TestWriteMetricsLintLiveService(t *testing.T) {
	key, err := identity.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	peer, err := identity.NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{
		ID:          "live",
		PersistPath: t.TempDir(),
		Key:         key,
		PeerKeys:    []identity.PartyID{peer.ID()},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ann, err := core.AnnounceEnumeration("inventor", game.PrisonersDilemma(), proof.MaxNash)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := svc.VerifyAnnouncement(context.Background(), ann); err != nil {
			t.Fatal(err)
		}
	}
	// SyncOffer drains the store's async flusher queue, so the snapshot
	// below sees the persisted record deterministically.
	if _, err := svc.SyncOffer(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMetrics(&buf, "live", svc.Stats()); err != nil {
		t.Fatal(err)
	}
	lintExposition(t, buf.String())
	for _, want := range []string{
		"rationality_requests_total 3",
		"rationality_cache_hits_total 2",
		`rationality_authority_info{id="live",signer="` + string(key.ID()) + `"} 1`,
		`rationality_federation_rejected_total{cause="unknown-signer"} 0`,
		"rationality_store_live_records 1",
	} {
		if !strings.Contains(buf.String(), want+"\n") &&
			!strings.Contains(buf.String(), want+" ") {
			t.Errorf("live exposition missing %q", want)
		}
	}
}

// promSample is one parsed sample line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
	line   int
}

// lintExposition is the promtool-free lint: it re-parses the exposition
// text and fails the test on any structural violation.
func lintExposition(t *testing.T, text string) {
	t.Helper()
	if !strings.HasSuffix(text, "\n") {
		t.Error("exposition must end with a newline")
	}
	helps := map[string]bool{}
	types := map[string]string{}
	seen := map[string]bool{} // duplicate-series guard: name + sorted labels
	var samples []promSample
	for i, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		lineNo := i + 1
		switch {
		case line == "":
			t.Errorf("line %d: blank line in exposition", lineNo)
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Errorf("line %d: HELP without text: %q", lineNo, line)
			}
			checkMetricName(t, lineNo, name)
			if helps[name] {
				t.Errorf("line %d: duplicate HELP for %s", lineNo, name)
			}
			helps[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Errorf("line %d: TYPE without a type: %q", lineNo, line)
				continue
			}
			checkMetricName(t, lineNo, name)
			switch typ {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("line %d: unknown TYPE %q", lineNo, typ)
			}
			if !helps[name] {
				t.Errorf("line %d: TYPE %s precedes its HELP", lineNo, name)
			}
			if _, dup := types[name]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			types[name] = typ
		case strings.HasPrefix(line, "#"):
			t.Errorf("line %d: unrecognized comment %q", lineNo, line)
		default:
			s, err := parseSample(line)
			if err != nil {
				t.Errorf("line %d: %v", lineNo, err)
				continue
			}
			s.line = lineNo
			fam := familyOf(s.name, types)
			if _, ok := types[fam]; !ok {
				t.Errorf("line %d: sample %s has no TYPE line (family %s)", lineNo, s.name, fam)
			}
			if !helps[fam] {
				t.Errorf("line %d: sample %s has no HELP line (family %s)", lineNo, s.name, fam)
			}
			key := seriesKey(s)
			if seen[key] {
				t.Errorf("line %d: duplicate series %s", lineNo, key)
			}
			seen[key] = true
			samples = append(samples, s)
		}
	}
	lintHistograms(t, samples, types)
}

// checkMetricName enforces the exposition's metric-name charset.
func checkMetricName(t *testing.T, line int, name string) {
	t.Helper()
	if name == "" {
		t.Errorf("line %d: empty metric name", line)
		return
	}
	for i, r := range name {
		alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !alpha && (i == 0 || r < '0' || r > '9') {
			t.Errorf("line %d: illegal metric name %q", line, name)
			return
		}
	}
}

// parseSample parses `name{labels} value`, validating label quoting and
// escape sequences.
func parseSample(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	rest := line
	brace := strings.IndexByte(rest, '{')
	space := strings.IndexByte(rest, ' ')
	if brace >= 0 && brace < space {
		s.name = rest[:brace]
		rest = rest[brace+1:]
		for {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				return s, errLint("label without '=' in " + line)
			}
			lname := rest[:eq]
			for i, r := range lname {
				alpha := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_'
				if !alpha && (i == 0 || r < '0' || r > '9') {
					return s, errLint("illegal label name " + lname)
				}
			}
			rest = rest[eq+1:]
			if len(rest) == 0 || rest[0] != '"' {
				return s, errLint("unquoted label value in " + line)
			}
			rest = rest[1:]
			var val strings.Builder
		scan:
			for {
				if len(rest) == 0 {
					return s, errLint("unterminated label value in " + line)
				}
				switch rest[0] {
				case '\\':
					if len(rest) < 2 {
						return s, errLint("dangling escape in " + line)
					}
					switch rest[1] {
					case '\\', '"':
						val.WriteByte(rest[1])
					case 'n':
						val.WriteByte('\n')
					default:
						return s, errLint("illegal escape \\" + string(rest[1]) + " in " + line)
					}
					rest = rest[2:]
				case '"':
					rest = rest[1:]
					break scan
				case '\n':
					return s, errLint("raw newline in label value of " + line)
				default:
					val.WriteByte(rest[0])
					rest = rest[1:]
				}
			}
			if _, dup := s.labels[lname]; dup {
				return s, errLint("duplicate label " + lname + " in " + line)
			}
			s.labels[lname] = val.String()
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			return s, errLint("malformed label list in " + line)
		}
		if !strings.HasPrefix(rest, " ") {
			return s, errLint("missing space before value in " + line)
		}
		rest = rest[1:]
	} else {
		if space < 0 {
			return s, errLint("sample without value: " + line)
		}
		s.name = rest[:space]
		rest = rest[space+1:]
	}
	v, err := parsePromFloat(rest)
	if err != nil {
		return s, errLint("bad value " + rest + " in " + line)
	}
	s.value = v
	return s, nil
}

// errLint wraps a lint message as an error.
func errLint(msg string) error { return &lintError{msg} }

type lintError struct{ msg string }

func (e *lintError) Error() string { return e.msg }

// parsePromFloat accepts the exposition's value syntax, including +Inf.
func parsePromFloat(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// familyOf maps a sample name to its metric family: histogram samples
// (_bucket/_sum/_count) belong to the base name their TYPE line declares.
func familyOf(name string, types map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

// seriesKey identifies one series: name plus sorted label pairs.
func seriesKey(s promSample) string {
	var b strings.Builder
	b.WriteString(s.name)
	for _, k := range sortedKeys(s.labels) {
		b.WriteByte('|')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(s.labels[k])
	}
	return b.String()
}

// lintHistograms checks every histogram family: le values strictly
// increasing and cumulative counts nondecreasing, the last bucket is
// +Inf, and _count equals the +Inf bucket.
func lintHistograms(t *testing.T, samples []promSample, types map[string]string) {
	t.Helper()
	for fam, typ := range types {
		if typ != "histogram" {
			continue
		}
		lastLE := math.Inf(-1)
		lastCum := -1.0
		infCount := -1.0
		var count, sum float64 = -1, math.NaN()
		buckets := 0
		for _, s := range samples {
			switch s.name {
			case fam + "_bucket":
				le, err := parsePromFloat(s.labels["le"])
				if err != nil {
					t.Errorf("line %d: histogram %s bucket with bad le %q", s.line, fam, s.labels["le"])
					continue
				}
				buckets++
				if le <= lastLE {
					t.Errorf("line %d: histogram %s le %v not increasing (previous %v)", s.line, fam, le, lastLE)
				}
				if s.value < lastCum {
					t.Errorf("line %d: histogram %s cumulative count decreased: %v after %v", s.line, fam, s.value, lastCum)
				}
				lastLE, lastCum = le, s.value
				if math.IsInf(le, 1) {
					infCount = s.value
				}
			case fam + "_count":
				count = s.value
			case fam + "_sum":
				sum = s.value
			}
		}
		if buckets == 0 {
			t.Errorf("histogram %s has no buckets", fam)
			continue
		}
		if infCount < 0 {
			t.Errorf("histogram %s is missing its +Inf bucket", fam)
		}
		if count != infCount {
			t.Errorf("histogram %s: _count %v != +Inf bucket %v", fam, count, infCount)
		}
		if math.IsNaN(sum) {
			t.Errorf("histogram %s is missing _sum", fam)
		}
	}
}

// TestWriteReadyMetrics renders the readiness latch in both states and
// lints the output.
func TestWriteReadyMetrics(t *testing.T) {
	r := NewReadiness(GateWarmStart, GateFirstSync)
	var buf bytes.Buffer
	if err := WriteReadyMetrics(&buf, r); err != nil {
		t.Fatal(err)
	}
	lintExposition(t, buf.String())
	for _, want := range []string{
		"rationality_ready 0",
		`rationality_ready_gate{gate="warm-start"} 0`,
		`rationality_ready_gate{gate="first-sync"} 0`,
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Errorf("not-ready rendering missing %q:\n%s", want, buf.String())
		}
	}
	r.Mark(GateWarmStart)
	r.Mark(GateFirstSync)
	buf.Reset()
	if err := WriteReadyMetrics(&buf, r); err != nil {
		t.Fatal(err)
	}
	lintExposition(t, buf.String())
	for _, want := range []string{
		"rationality_ready 1",
		`rationality_ready_gate{gate="warm-start"} 1`,
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Errorf("ready rendering missing %q:\n%s", want, buf.String())
		}
	}
}
