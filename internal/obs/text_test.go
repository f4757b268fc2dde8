package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"rationality/internal/service"
	"rationality/internal/store"
)

// TestWriteTextStableLines: the human rendering keeps the exact line
// shapes the README documents and the CI smoke greps.
func TestWriteTextStableLines(t *testing.T) {
	var buf bytes.Buffer
	WriteText(&buf, fixtureStats())
	out := buf.String()
	for _, want := range []string{
		"requests=120 hits=90 misses=30 deduped=7 ingested=12 deltasServed=4 syncRounds=9",
		"accepted=100 rejected=18 failures=2 peakInFlight=8 cacheEntries=5 workers=4",
		"cache: 4 shards, per-shard entries [2 1 0 2]",
		"persistence: persisted=30 replayed=5 ingested=12 dropped=1 failed=0 live=35 garbage=3",
		"federation: signer=aa11aa11 trustedPeers=2 rejectedUnsigned=1 rejectedUnknown=3 rejectedBadSig=0 rejectedCorrupt=1",
		"federation: quarantined=1 rejectedQuarantined=2",
		"federation: peer bb22bb22 deltas=4 records=12 rejected=2",
		"accountability: audits=10 auditRefutations=3 auditsShed=1 ingestRefutations=2",
		"federation: trust bb22bb22 state=quarantined reputation=0.200 refutations=3",
		"sync: peer 10.0.0.2:7002 state=open attempts=9 pulled=12 failed=5 skippedBackoff=40 skippedQuarantine=2",
		"sync: peer 10.0.0.3:7002 state=healthy attempts=11 pulled=30 failed=0 skippedBackoff=0 skippedQuarantine=0",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("text rendering missing line %q\ngot:\n%s", want, out)
		}
	}
	// Peers print in sorted order, so the output is stable run to run.
	if strings.Index(out, "bb22bb22") > strings.Index(out, "evil") {
		t.Error("peer lines not sorted")
	}
}

// TestWriteTextGolden pins the human rendering byte for byte: every line
// of a fully populated snapshot, then the lines a zero snapshot prints.
func TestWriteTextGolden(t *testing.T) {
	var buf bytes.Buffer
	WriteText(&buf, fixtureStats())
	buf.WriteString("--- zero snapshot\n")
	WriteText(&buf, service.Stats{})
	checkGolden(t, "text.golden", buf.Bytes())
}

// TestWatchGolden pins the watch view: the header, a fixture row, an idle
// window, a restarted authority and a degenerate (zero-length) window.
func TestWatchGolden(t *testing.T) {
	idle := service.Stats{Requests: 50, CacheHits: 50}
	restarted := service.Stats{Requests: 10, CacheHits: 4}
	lines := []string{
		WatchHeader(),
		WatchRow(service.Stats{}, fixtureStats(), 2*time.Second),
		WatchRow(idle, idle, time.Second),
		WatchRow(service.Stats{Requests: 1000, CacheHits: 900}, restarted, time.Second),
		WatchRow(service.Stats{}, fixtureStats(), 0),
	}
	checkGolden(t, "watch.golden", []byte(strings.Join(lines, "\n")+"\n"))
}

// TestStatsJSONGolden pins the service-stats reply's JSON over the
// fixture: every field name and omitempty rule the CLI's -json output
// and the bench harness read.
func TestStatsJSONGolden(t *testing.T) {
	b, err := json.MarshalIndent(service.StatsResponse{VerifierID: "verify-corp", Stats: fixtureStats()}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "stats.golden", append(b, '\n'))
}

// watchCells is a watch row's columns with the alignment padding dropped.
func watchCells(prev, cur service.Stats, elapsed time.Duration) string {
	return strings.Join(strings.Fields(WatchRow(prev, cur, elapsed)), " ")
}

// TestWatchRowRates: a two-second window with known counter movement
// renders the expected per-second rates and hit ratio, and the newer
// snapshot's latency estimates and gauges.
func TestWatchRowRates(t *testing.T) {
	prev := service.Stats{
		Requests: 100, CacheHits: 80, Deduplicated: 4, Ingested: 10, Failures: 2,
		Federation: &service.FederationStats{RejectedUnknown: 3},
	}
	cur := service.Stats{
		Requests: 300, CacheHits: 230, Deduplicated: 8, Ingested: 16, Failures: 2,
		InFlight: 5, CacheEntries: 42,
		Latency:     service.LatencySummary{P50: 2047, P99: 1_048_575},
		Federation:  &service.FederationStats{RejectedUnknown: 3, RejectedBadSig: 7},
		Persistence: &store.Stats{LiveRecords: 19},
	}
	// 200 requests → 100/s, 150 hits → 75%, dedup 2/s, ingest 3/s,
	// rejections across causes 3 → 10 → 3.5/s, no new failures; p99
	// renders rounded to the microsecond above a millisecond.
	want := "100.0 75.0% 2.0 3.0 3.5 0.0 2.047µs 1.049ms 5 42 19"
	if got := watchCells(prev, cur, 2*time.Second); got != want {
		t.Errorf("row = %q\nwant  %q", got, want)
	}
}

// TestWatchRowRestartTolerance: counters that moved backwards mean the
// watched authority restarted; the window counts from zero instead of
// underflowing to absurd rates.
func TestWatchRowRestartTolerance(t *testing.T) {
	prev := service.Stats{Requests: 1000, CacheHits: 900}
	cur := service.Stats{Requests: 10, CacheHits: 4}
	if got := watchCells(prev, cur, time.Second); !strings.HasPrefix(got, "10.0 40.0% ") {
		t.Errorf("post-restart row = %q, want 10 req/s at a 40%% hit ratio", got)
	}
}

// TestWatchRowIdleWindow: no requests in the window renders the hit
// ratio as unknown, not a division by zero; a zero-length window reads
// every rate as 0.
func TestWatchRowIdleWindow(t *testing.T) {
	st := service.Stats{Requests: 50, CacheHits: 50}
	if row := WatchRow(st, st, time.Second); !strings.Contains(row, " - ") {
		t.Errorf("idle row should render hit%% as '-': %q", row)
	}
	if got := watchCells(st, st, time.Second); !strings.HasPrefix(got, "0.0 - ") {
		t.Errorf("idle row = %q, want 0 req/s", got)
	}
	if got := watchCells(service.Stats{}, st, 0); !strings.HasPrefix(got, "0.0 100.0% 0.0 0.0 0.0 0.0 ") {
		t.Errorf("zero-length window row = %q, want every rate 0", got)
	}
}

// TestWatchRowAlignment: rows line up under the header, column for
// column, so the watch view reads as a table.
func TestWatchRowAlignment(t *testing.T) {
	header := WatchHeader()
	row := WatchRow(service.Stats{}, fixtureStats(), 2*time.Second)
	// Terminal columns are runes, not bytes — durations carry a µ.
	if utf8.RuneCountInString(header) != utf8.RuneCountInString(row) {
		t.Errorf("header/row width mismatch:\n%s\n%s", header, row)
	}
}
