package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"rationality/internal/core"
	"rationality/internal/service"
	"rationality/internal/transport"
)

// These tests ride tier-1 (`go test ./...`): they spawn no process and finish
// well inside two seconds.

func catalogBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	c, err := buildCatalog(seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, e := range c.Entries {
		data, err := json.Marshal(e.Ann)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestSameSeedSameCatalogAndRequestOrder(t *testing.T) {
	a, b := catalogBytes(t, 7), catalogBytes(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed built two different catalogs")
	}
	if bytes.Equal(a, catalogBytes(t, 8)) {
		t.Fatal("different seeds built the same catalog")
	}

	cat, err := buildCatalog(7)
	if err != nil {
		t.Fatal(err)
	}
	draw := func(stream uint64) []byte {
		src := newSource(cat, stream)
		var buf bytes.Buffer
		for i := 0; i < 200; i++ {
			r, _ := src.hotRequest()
			buf.Write(r.Game)
			r, _ = src.freshRequest()
			buf.Write(r.Game)
		}
		anns, _ := src.batch(50)
		for _, a := range anns {
			buf.Write(a.Game)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(draw(3), draw(3)) {
		t.Fatal("the same source drew two different request sequences")
	}
	if bytes.Equal(draw(3), draw(4)) {
		t.Fatal("two sources drew the same request sequence")
	}
}

func TestCatalogVerdictsMatchTheProcedures(t *testing.T) {
	cat, err := buildCatalog(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Entries) != catalogSize {
		t.Fatalf("catalog has %d entries, want %d", len(cat.Entries), catalogSize)
	}
	procs := core.NewProcedureRegistry()
	formats := map[string]int{}
	forged := 0
	for _, e := range cat.Entries {
		formats[e.Ann.Format]++
		if !e.Accept {
			forged++
		}
		p, err := procs.Lookup(e.Ann.Format)
		if err != nil {
			t.Fatal(err)
		}
		for name, r := range map[string]core.VerifyRequest{"template": e.req, "fresh": e.fresh(uint64(e.Slot) + 1)} {
			v, err := p.Verify(r.Game, r.Advice, r.Proof)
			if err != nil {
				t.Fatalf("slot %d (%s) %s: %v", e.Slot, e.Ann.Format, name, err)
			}
			if v.Accepted != e.Accept {
				t.Fatalf("slot %d (%s) %s: accepted=%v, catalog expects %v: %s", e.Slot, e.Ann.Format, name, v.Accepted, e.Accept, v.Reason)
			}
		}
		if bytes.Equal(e.fresh(1).Game, e.req.Game) || bytes.Equal(e.fresh(1).Game, e.fresh(2).Game) {
			t.Fatalf("slot %d: fresh requests do not differ from the template and each other", e.Slot)
		}
		if got, want := len(e.fresh(1).Game), len(e.req.Game)+17; got != want {
			t.Fatalf("slot %d: fresh game is %d bytes, want template + 17 = %d", e.Slot, got, want)
		}
	}
	if len(formats) != len(slotFormats) {
		t.Fatalf("catalog covers %d formats, want %d: %v", len(formats), len(slotFormats), formats)
	}
	if share := float64(forged) / catalogSize; share < 0.04 || share > 0.06 {
		t.Fatalf("%d of %d entries forged (%.3f), want about 5%%", forged, catalogSize, share)
	}
}

func TestRankToSlotIsAPermutation(t *testing.T) {
	seen := map[int]bool{}
	for r := uint64(0); r < catalogSize; r++ {
		seen[rankToSlot(r)] = true
	}
	if len(seen) != catalogSize {
		t.Fatalf("ranks map onto %d slots, want %d", len(seen), catalogSize)
	}
}

func TestMedianAndPercentiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 0.999: 100, 0.0: 1} {
		if got := percentile(asc, q); got != want {
			t.Errorf("p%g of 1..100 = %v, want %v", q*100, got, want)
		}
	}
	// The highest percentile with at least ten samples beyond it.
	for n, want := range map[int]float64{5: 0.5, 20: 0.5, 99: 0.5, 100: 0.9, 999: 0.9, 1000: 0.99, 9999: 0.99, 10000: 0.999, 100000: 0.9999} {
		if got := supportedPercentile(n); got != want {
			t.Errorf("supportedPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles of powers of two = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 4, 8, 16}); math.Abs(got-10.5/4) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, 10.5/4)
	}
}

func fixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestProcParsersOnCapturedFixtures(t *testing.T) {
	utime, stime, err := parseProcStat(fixture(t, "proc_stat.txt"))
	if err != nil || utime != 15 || stime != 1 {
		t.Errorf("proc stat: utime=%d stime=%d err=%v, want 15 1", utime, stime, err)
	}
	// A command name may hold spaces and parentheses.
	utime, stime, err = parseProcStat([]byte("77 (a b) c)) S 1 77 77 0 -1 4194560 9 0 0 0 31 41 0 0 20 0 7 0 100 200 300\n"))
	if err != nil || utime != 31 || stime != 41 {
		t.Errorf("proc stat with a hostile name: utime=%d stime=%d err=%v, want 31 41", utime, stime, err)
	}
	if _, _, err := parseProcStat([]byte("1 (x) S 1 2")); err == nil {
		t.Error("a truncated proc stat parsed")
	}
	run, err := parseSchedstat(fixture(t, "schedstat.txt"))
	if err != nil || run != 7751512 {
		t.Errorf("schedstat: %d %v, want 7751512", run, err)
	}
	peak, err := parseProcStatus(fixture(t, "proc_status.txt"), "VmHWM")
	if err != nil || peak != 25172*1024 {
		t.Errorf("VmHWM: %d %v, want %d", peak, err, 25172*1024)
	}
	if _, err := parseProcStatus(fixture(t, "proc_status.txt"), "VmNope"); err == nil {
		t.Error("a missing status key parsed")
	}
}

func TestMemStatsParserOnCapturedFixture(t *testing.T) {
	m, err := parseMemStats(fixture(t, "pprof_allocs_debug1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := memStats{Mallocs: 155547, TotalAlloc: 25826504, NumGC: 5}
	if m != want {
		t.Errorf("memstats = %+v, want %+v", m, want)
	}
	if _, err := parseMemStats([]byte("# Mallocs = 3\n")); err == nil {
		t.Error("a profile without every counter parsed")
	}
}

func TestServiceStatsParserOnCapturedFixture(t *testing.T) {
	var reply transport.Message
	if err := json.Unmarshal(fixture(t, "service_stats_reply.json"), &reply); err != nil {
		t.Fatal(err)
	}
	st, err := parseStats(reply)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 8300 || st.CacheHits != 8297 || st.CacheMisses != 3 {
		t.Errorf("requests=%d hits=%d misses=%d, want 8300 8297 3", st.Requests, st.CacheHits, st.CacheMisses)
	}
	if st.Persistence == nil || st.Persistence.Persisted != 3 {
		t.Errorf("persistence = %+v, want 3 persisted", st.Persistence)
	}
	sum := sumStats([]service.Stats{st, st})
	if sum.requests != 2*8300 || sum.persisted != 6 || sum.streams != 2 {
		t.Errorf("sumStats = %+v", sum)
	}
	d := sum.sub(sumStats([]service.Stats{st}))
	if d.requests != 8300 || d.hits != 8297 || d.ttfvCount != 1 {
		t.Errorf("delta = %+v", d)
	}
	if p50 := bucketP50(d.buckets); p50 <= 0 || p50 > 10*time.Microsecond {
		t.Errorf("bucket p50 = %v, want a hit-path latency of a few microseconds", p50)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONMatchesTheNamesEmitted(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var dry bytes.Buffer
	printNames(&dry)
	check := func(kind string, listed []benchmarkMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark emits %d", kind, len(listed), len(defs))
			return
		}
		for i, m := range listed {
			d := defs[i]
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s name %q does not match %s", kind, m.Name, nameRE)
			}
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark has %+v", kind, i, m, d)
			}
			if !strings.Contains(dry.String(), " "+m.Name+" ") {
				t.Errorf("-dry-run does not emit %s", m.Name)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if !strings.Contains(dry.String(), w.Name) {
			t.Errorf("-dry-run does not emit workload %s", w.Name)
		}
	}
	setup := bf.EndToEnd[0]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better; have %+v", setup)
	}
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > setup.Bound {
			t.Errorf("%s: bound %v must be in (0, 0.25] and no larger than setup_s's", m.Name, m.Bound)
		}
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bf.Paths)
	}
	for _, arg := range bf.Command {
		if strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q leaves the checkout", arg)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := func(median float64) metricSummary {
		return metricSummary{Median: median, Spread: 0.01, Raw: []float64{median, median}}
	}
	for _, c := range []struct {
		name   string
		a, b   metricSummary
		better string
		want   string
	}{
		{"lower, 5% worse", steady(100), steady(105), "lower", within},
		{"lower, 20% worse", steady(100), steady(120), "lower", regressed},
		{"lower, 20% better", steady(100), steady(80), "lower", within},
		{"higher, 20% fewer", steady(100), steady(80), "higher", regressed},
		{"higher, 20% more", steady(100), steady(120), "higher", within},
		{"noisy base", metricSummary{Median: 100, Spread: 0.3, Raw: []float64{80, 120}}, steady(120), "lower", unresolved},
		{"noisy repetitions, enough of them", metricSummary{Median: 100, Spread: 0.3, Raw: make([]float64, 10)}, steady(105), "lower", within},
		{"a count, one value a side", metricSummary{Median: 555, Raw: []float64{555}}, metricSummary{Median: 700, Raw: []float64{700}}, "lower", regressed},
	} {
		if _, got := judge(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestRelayCountsBothDirections(t *testing.T) {
	srv, err := transport.ListenTCP("127.0.0.1:0", transport.HandlerFunc(
		func(_ context.Context, m transport.Message) (transport.Message, error) { return m, nil }))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rl, err := newRelay(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c, err := transport.DialTCP(rl.addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := transport.NewMessage("ping", map[string]string{"k": strings.Repeat("x", 100)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Call(context.Background(), msg); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	rl.close()
	wire, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	// The stream codec ends each message with a newline.
	if want := int64(10 * (len(wire) + 1)); rl.up.Load() != want || rl.down.Load() != want {
		t.Errorf("relay counted %d up, %d down, want %d each", rl.up.Load(), rl.down.Load(), want)
	}
}

func TestTracerWritesSpansThatShareARequest(t *testing.T) {
	tr := newTracer()
	t0 := time.Now()
	root := tr.reserve()
	tr.record(root, "req-1", "transport.call", t0, t0.Add(time.Millisecond))
	tr.finish(root, 0, "req-1", "loadgen.request", t0, t0.Add(2*time.Millisecond))
	var nilTracer *tracer
	if id := nilTracer.record(0, "x", "y", t0, t0); id != 0 {
		t.Errorf("a nil tracer handed out id %d", id)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.writeFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("trace file has %d lines, want two spans and a trailer", len(lines))
	}
	var child, parent span
	if err := json.Unmarshal([]byte(lines[0]), &child); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &parent); err != nil {
		t.Fatal(err)
	}
	if child.Parent != parent.ID || child.Req != parent.Req || parent.Parent != 0 || parent.End-parent.Start != int64(2*time.Millisecond) {
		t.Errorf("spans: child %+v parent %+v", child, parent)
	}
}
