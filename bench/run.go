package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"rationality/internal/core"
	"rationality/internal/service"
	"rationality/internal/transport"
)

// statsSum is the part of the service-stats tree the benchmark reads, summed
// over a workload's primary processes so that two snapshots subtract.
type statsSum struct {
	requests, hits, misses, dedup uint64
	streams, ttfvCount            uint64
	ttfvTotal                     time.Duration
	shedItems                     uint64
	syncRounds                    uint64
	persisted, dropped, compacts  uint64
	buckets                       []uint64 // log2 request-latency histogram
}

func sumStats(list []service.Stats) statsSum {
	var s statsSum
	for _, st := range list {
		s.requests += st.Requests
		s.hits += st.CacheHits
		s.misses += st.CacheMisses
		s.dedup += st.Deduplicated
		s.streams += st.Streams
		s.ttfvCount += st.StreamTTFV.Count
		s.ttfvTotal += st.StreamTTFV.Total
		s.syncRounds += st.SyncRounds
		if st.Admission != nil {
			s.shedItems += st.Admission.Interactive.ShedItems + st.Admission.Batch.ShedItems
		}
		if st.Persistence != nil {
			s.persisted += st.Persistence.Persisted
			s.dropped += st.Persistence.Dropped
			s.compacts += st.Persistence.Compactions
		}
		for i, n := range st.Latency.Buckets {
			for len(s.buckets) <= i {
				s.buckets = append(s.buckets, 0)
			}
			s.buckets[i] += n
		}
	}
	return s
}

func (a statsSum) sub(b statsSum) statsSum {
	d := a
	d.requests -= b.requests
	d.hits -= b.hits
	d.misses -= b.misses
	d.dedup -= b.dedup
	d.streams -= b.streams
	d.ttfvCount -= b.ttfvCount
	d.ttfvTotal -= b.ttfvTotal
	d.shedItems -= b.shedItems
	d.syncRounds -= b.syncRounds
	d.persisted -= b.persisted
	d.dropped -= b.dropped
	d.compacts -= b.compacts
	d.buckets = append([]uint64(nil), a.buckets...)
	for i := range b.buckets {
		if i < len(d.buckets) {
			d.buckets[i] -= b.buckets[i]
		}
	}
	return d
}

// bucketP50 is the median of a log2 latency histogram, reported as the upper
// bound of the bucket it falls in: a factor-of-two estimate, which is all the
// server exposes today.
func bucketP50(buckets []uint64) time.Duration {
	var total uint64
	for _, n := range buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	var seen uint64
	for i, n := range buckets {
		seen += n
		if seen*2 >= total {
			return service.LatencyBucketBound(i)
		}
	}
	return 0
}

// runRep is one repetition of one workload: set up, the workload's own
// traffic for `seconds`, a warm restart, the probes, tear down. With a tracer
// it records spans and also reads the servers' MemStats at the phase edges.
func runRep(ctx context.Context, e *env, wl string, seed int64, rep int, seconds float64, tr *tracer) (res *repResult, rg *rig, err error) {
	res = &repResult{Workload: wl, Rep: rep, Traced: tr != nil,
		E2E: map[string]float64{}, Layer: map[string]float64{}, Samples: map[string]int{}}
	var outcomes opLog
	defer func() {
		res.Attempted, res.Failed = outcomes.attempted, outcomes.failed
		if outcomes.firstErr != nil {
			res.FirstErr = outcomes.firstErr.Error()
		}
	}()

	res.Layer["host.calib_mb_per_s"] = calibrate()
	stolenBefore, repStart := readSteal(), time.Now()
	defer func() {
		stolen := time.Duration(readSteal()-stolenBefore) * clockTick
		res.Layer["host.steal_ratio"] = ratio(float64(stolen), float64(time.Since(repStart))*float64(runtime.NumCPU()))
	}()

	setupStart := time.Now()
	var warm opLog
	rg, err = setUp(ctx, e, wl, seed, rep, &warm)
	outcomes.merge(&warm)
	if err != nil {
		return res, rg, fmt.Errorf("%s rep %d set-up: %w", wl, rep, err)
	}
	res.E2E["setup_s"] = time.Since(setupStart).Seconds()

	before, err := rg.snapshot(ctx, tr != nil)
	if err != nil {
		return res, rg, err
	}
	logs := rg.mainPhase(ctx, seconds, tr)
	after, err := rg.snapshot(ctx, tr != nil)
	if err != nil {
		return res, rg, err
	}
	var rss uint64
	for _, a := range rg.primary() {
		peak, err := readPeakRSS(a.pid())
		if err != nil {
			return res, rg, err
		}
		rss += peak
	}
	res.E2E["server_rss_mb"] = float64(rss) / 1e6

	// The request a restarted server must answer from its replayed log: the
	// hottest template where nothing else was written, else the newest fresh
	// request. (Where fresh traffic outgrows the cache, a template's record
	// is old by append stamp however hot it is, and replay into a full cache
	// drops the oldest first.)
	hottest := rg.cat.Entries[rankToSlot(0)]
	again, againWant := hottest.req, hottest.Accept
	switch wl {
	case wlFresh, wlStream:
		again, againWant = logs.src0.lastReq, logs.src0.lastWant
	case wlPanel:
		again, againWant = logs.panel.lastReq, logs.panel.lastWant
	}
	restart, err := rg.warmRestart(ctx, again, againWant)
	if err != nil {
		outcomes.fail(err)
		return res, rg, fmt.Errorf("%s rep %d warm restart: %w", wl, rep, err)
	}
	outcomes.attempted++
	res.E2E["warm_restart_ms"] = float64(restart) / float64(time.Millisecond)
	if err := rg.connect(); err != nil {
		return res, rg, err
	}
	if err := rg.panel.connect(rg.panel.addrs()); err != nil {
		return res, rg, err
	}

	// Probes: the operations this workload's own traffic does not issue, at a
	// fixed size, on an otherwise idle box.
	ttfv := &logs.ttfv
	if wl != wlStream {
		ttfv = &opLog{}
		var frames int
		streamLoop(ctx, rg.conns[0], rg.source(roleStreamProbe), time.Time{}, probeStreams, ttfv, &frames, nil, "")
	}
	panelLogs := logs.panel
	if wl != wlPanel {
		panelLogs = rg.panel.run(ctx, rg.source(rolePanelProbe), 0, probeCerts, nil, "")
	}

	// Operations and verdicts of the main phase.
	var verdicts, ops float64
	unary := &logs.unary
	switch wl {
	case wlPanel:
		unary = &panelLogs.cosign
		ops = float64(len(panelLogs.certify.lat))
		verdicts = float64(len(panelLogs.cosign.lat))
	case wlStream:
		verdicts = float64(logs.frames + len(unary.lat))
		ops = verdicts
	default:
		verdicts = float64(len(unary.lat))
		ops = verdicts
	}
	for _, l := range []*opLog{&logs.unary, ttfv, &panelLogs.certify, &panelLogs.replicate, &panelLogs.cosign} {
		outcomes.merge(l)
	}
	if ops == 0 {
		return res, rg, fmt.Errorf("%s rep %d: no operation completed: %v", wl, rep, outcomes.firstErr)
	}

	res.mainLatencies = unary.lat
	if wl == wlPanel {
		res.mainLatencies = panelLogs.certify.lat
	}
	res.E2E["verdicts_per_s"] = verdicts / logs.elapsed.Seconds()
	lat := sorted(unary.lat)
	res.E2E["verify_p50_us"] = percentile(lat, 0.5)
	res.Samples["verify_p50_us"] = len(lat)
	res.Layer["loadgen.verify_p90_us"] = percentile(lat, 0.9)
	res.Layer["loadgen.verify_p99_us"] = percentile(lat, 0.99)
	res.Layer["loadgen.verify_p999_us"] = percentile(lat, 0.999)
	res.E2E["ttfv_p50_ms"] = median(ttfv.lat)
	res.Samples["ttfv_p50_ms"] = len(ttfv.lat)
	res.E2E["certify_p50_ms"] = median(panelLogs.certify.lat)
	res.Samples["certify_p50_ms"] = len(panelLogs.certify.lat)
	res.E2E["replicate_p50_ms"] = median(panelLogs.replicate.lat)
	res.Samples["replicate_p50_ms"] = len(panelLogs.replicate.lat)

	// Costs per operation: per verdict, or per certificate on panel-certify.
	cpu := after.cpu.sub(before.cpu)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	res.E2E["server_cpu_us_per_verdict"] = us(cpu.Total) / ops
	res.Layer["authority.cpu_user_us_per_verdict"] = us(cpu.User) / ops
	res.Layer["authority.cpu_sys_us_per_verdict"] = us(cpu.Sys) / ops
	res.Layer["loadgen.cpu_us_per_verdict"] = us(after.self.sub(before.self).Total) / ops
	res.Layer["loadgen.late_ratio"] = 0
	if wl == wlPanel {
		res.Layer["loadgen.late_ratio"] = ratio(float64(panelLogs.late), float64(panelLogs.certify.attempted))
	}
	res.Layer["quorum.reput_ratio"] = ratio(float64(panelLogs.reputs), float64(panelLogs.certify.attempted))
	res.Layer["store.disk_bytes_per_verdict"] = float64(after.io-before.io) / ops
	if tr != nil {
		mem := after.mem.sub(before.mem)
		res.Layer["authority.mallocs_per_verdict"] = float64(mem.Mallocs) / ops
		res.Layer["authority.alloc_bytes_per_verdict"] = float64(mem.TotalAlloc) / ops
		res.Layer["authority.gc_per_kverdict"] = float64(mem.NumGC) / ops * 1000
	}

	d := sumStats(after.stats).sub(sumStats(before.stats))
	res.Layer["service.cache_hit_ratio"] = ratio(float64(d.hits), float64(d.requests))
	res.Layer["service.dedup_ratio"] = ratio(float64(d.dedup), float64(d.requests))
	res.Layer["service.server_p50_us"] = us(bucketP50(d.buckets))
	res.Layer["service.stream_ttfv_ms"] = ratio(float64(d.ttfvTotal)/float64(time.Millisecond), float64(d.ttfvCount))
	res.Layer["service.shed_ratio"] = ratio(float64(d.shedItems), float64(d.requests+d.shedItems))
	res.Layer["service.sync_rounds_per_s"] = float64(d.syncRounds) / after.at.Sub(before.at).Seconds()
	res.Layer["store.drop_ratio"] = ratio(float64(d.dropped), float64(d.persisted+d.dropped))
	res.Layer["store.compactions"] = float64(d.compacts)

	// What the workload promises about itself, checked like a verdict.
	switch {
	case wl == wlHot && res.Layer["service.cache_hit_ratio"] < 0.99:
		outcomes.fail(fmt.Errorf("hot-verify hit ratio %.4f, want >= 0.99", res.Layer["service.cache_hit_ratio"]))
	case d.shedItems > 0:
		outcomes.fail(fmt.Errorf("%d items shed by admission; the budgets are meant never to bind", d.shedItems))
	}
	return res, rg, nil
}

func (p *panel) addrs() [3]string {
	var a [3]string
	for i, m := range p.members {
		a[i] = m.addr
	}
	return a
}

// wirePass counts the bytes of a fixed number of seeded operations through
// byte-counting relays on one connection, and returns bytes per verdict (per
// certificate on panel-certify). With the request sequence fixed by the seed
// the count repeats exactly from run to run.
func (r *rig) wirePass(ctx context.Context, outcomes *opLog) (float64, error) {
	src := r.source(roleWirePass)
	if r.wl == wlPanel {
		var relays [3]*relay
		var via [3]string
		for i, m := range r.panel.members {
			rl, err := newRelay(m.addr)
			if err != nil {
				return 0, err
			}
			defer rl.close()
			relays[i], via[i] = rl, rl.addr()
		}
		if err := r.panel.connect(via); err != nil {
			return 0, err
		}
		for i := 0; i < wirePassCerts; i++ {
			req, want := src.freshRequest()
			cert, err := r.panel.certifyOnce(ctx, req, want, nil, "", 0)
			if err == nil {
				var got *core.Certificate
				if got, err = certGet(ctx, r.panel.getA, cert.Key); err == nil && got == nil {
					err = fmt.Errorf("certificate %s missing at member A", cert.Key)
				}
			}
			if err != nil {
				outcomes.fail(err)
				continue
			}
			outcomes.attempted++
		}
		// Close the relayed connections before reading the counters, then
		// put the direct ones back.
		if err := r.panel.connect(r.panel.addrs()); err != nil {
			return 0, err
		}
		var total int64
		for _, rl := range relays {
			total += rl.bytes()
		}
		return float64(total) / wirePassCerts, nil
	}

	rl, err := newRelay(r.primaryAddr())
	if err != nil {
		return 0, err
	}
	defer rl.close()
	c, err := transport.DialTCP(rl.addr(), 5*time.Second)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	var log opLog
	switch r.wl {
	case wlStream:
		var frames int
		streamLoop(ctx, c, src, time.Time{}, wirePassOps/streamItems, &log, &frames, nil, "")
	case wlFresh:
		unaryLoop(ctx, c, src.freshRequest, time.Time{}, wirePassOps, &log, nil, "")
	default:
		unaryLoop(ctx, c, src.hotRequest, time.Time{}, wirePassOps, &log, nil, "")
	}
	outcomes.merge(&log)
	return float64(rl.bytes()) / wirePassOps, nil
}
