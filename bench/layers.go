package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"rationality/internal/core"
	"rationality/internal/identity"
	"rationality/internal/obs"
	"rationality/internal/quorum"
	"rationality/internal/service"
	"rationality/internal/store"
	"rationality/internal/transport"
)

// This file is the in-process half of the traced run: the same seeded
// requests the unloaded pass sent over TCP are replayed through each layer's
// public functions, one layer at a time, so that a unary verify decomposes
// into disjoint stages that should add up to what the client observed.

// sample is a fixed list of seeded requests with their expected verdicts.
type sample struct {
	kind string // "hot" or "fresh": the tag the unloaded pass used
	reqs []core.VerifyRequest
	want []bool
}

func drawSample(cat *catalog, rep, role int, kind string) *sample {
	src := newSource(cat, uint64(rep*rolesPerRep+role))
	s := &sample{kind: kind, reqs: make([]core.VerifyRequest, unloadedOps), want: make([]bool, unloadedOps)}
	for i := range s.reqs {
		if kind == "fresh" {
			s.reqs[i], s.want[i] = src.freshRequest()
		} else {
			s.reqs[i], s.want[i] = src.hotRequest()
		}
	}
	return s
}

// unloaded sends the hot and the fresh sample over one connection, one
// request at a time, against the traced repetition's primary server. These
// are the round trips the stage table has to explain.
func (w *workloadRun) unloaded(ctx context.Context, rg *rig, tr *tracer) error {
	w.unloadedRep = rg.rep
	w.unloadedP50, w.unloadedP10 = map[string]float64{}, map[string]float64{}
	for _, s := range []*sample{
		drawSample(rg.cat, rg.rep, roleUnloadedHot, "hot"),
		drawSample(rg.cat, rg.rep, roleUnloadedFresh, "fresh"),
	} {
		var log opLog
		i := 0
		unaryLoop(ctx, rg.conns[0], func() (core.VerifyRequest, bool) {
			i++
			return s.reqs[i-1], s.want[i-1]
		}, time.Time{}, len(s.reqs), &log, tr, s.kind)
		w.noteLog(&log)
		if len(log.lat) == 0 {
			return fmt.Errorf("unloaded %s pass: %v", s.kind, log.firstErr)
		}
		w.unloadedP50[s.kind] = median(log.lat)
		w.unloadedP10[s.kind] = percentile(sorted(log.lat), 0.1)
	}
	native := "hot"
	if w.name == wlFresh || w.name == wlPanel {
		native = "fresh"
	}
	w.layer["loadgen.unloaded_p50_us"] = w.unloadedP50[native]
	return nil
}

// timeEach calls fn n times and returns each call's duration in µs. With a
// tracer it records one span a call, under the request id the unloaded pass
// used, so in-process stages line up with the wire spans.
func timeEach(n int, tr *tracer, kind, name string, fn func(i int) error) ([]float64, error) {
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return nil, fmt.Errorf("%s[%d]: %w", name, i, err)
		}
		end := time.Now()
		out[i] = float64(end.Sub(start)) / float64(time.Microsecond)
		if kind != "" {
			tr.record(0, fmt.Sprintf("%s-%d", kind, i), name, start, end)
		}
	}
	return out, nil
}

// stages is the disjoint stage table of one unary verify, medians in µs.
type stages struct {
	Echo, ReqEncode, ReqDecode, Verify, RespEncode, RespDecode float64
	ReqBytes, RespBytes                                        float64
	// Digest and Procedure are parts of Verify, not further stages.
	Digest, Procedure float64
}

func (s stages) sum() float64 {
	return s.Echo + s.ReqEncode + s.ReqDecode + s.Verify + s.RespEncode + s.RespDecode
}

// newReplayService is an in-process service configured like the servers:
// persisted, 4096-entry cache, default workers.
func newReplayService(dir, id string, cfg service.Config) (*service.Service, error) {
	cfg.ID = id
	cfg.CacheSize = 4096
	cfg.PersistPath = dir
	return service.New(cfg)
}

// stageTable replays one sample through each layer in turn.
func stageTable(ctx context.Context, svc *service.Service, procs *core.ProcedureRegistry, s *sample, tr *tracer) (stages, error) {
	var st stages
	n := len(s.reqs)
	msgs := make([]transport.Message, n)
	lat, err := timeEach(n, tr, s.kind, "transport.NewMessage(request)", func(i int) (err error) {
		msgs[i], err = transport.NewMessage(core.MsgVerify, s.reqs[i])
		return err
	})
	if err != nil {
		return st, err
	}
	st.ReqEncode = median(lat)
	sizes := make([]float64, n)
	for i, m := range msgs {
		sizes[i] = float64(len(m.Payload))
	}
	st.ReqBytes = median(sizes)
	if lat, err = timeEach(n, tr, s.kind, "transport.Decode(request)", func(i int) error {
		var vr core.VerifyRequest
		return msgs[i].Decode(&vr)
	}); err != nil {
		return st, err
	}
	st.ReqDecode = median(lat)

	if lat, err = timeEach(n, tr, s.kind, "identity.DigestBytes", func(i int) error {
		r := s.reqs[i]
		_ = identity.DigestBytes([]byte(r.Format), r.Game, r.Advice, r.Proof)
		return nil
	}); err != nil {
		return st, err
	}
	st.Digest = median(lat)
	if lat, err = timeEach(n, tr, s.kind, "core.Procedure.Verify", func(i int) error {
		p, err := procs.Lookup(s.reqs[i].Format)
		if err != nil {
			return err
		}
		_, err = p.Verify(s.reqs[i].Game, s.reqs[i].Advice, s.reqs[i].Proof)
		return err
	}); err != nil {
		return st, err
	}
	st.Procedure = median(lat)

	verdicts := make([]*core.Verdict, n)
	if lat, err = timeEach(n, tr, s.kind, "service.Verify", func(i int) (err error) {
		verdicts[i], err = svc.Verify(ctx, s.reqs[i])
		if err == nil && verdicts[i].Accepted != s.want[i] {
			err = errWrongVerdict
		}
		return err
	}); err != nil {
		return st, err
	}
	st.Verify = median(lat)

	replies := make([]transport.Message, n)
	if lat, err = timeEach(n, tr, s.kind, "transport.NewMessage(reply)", func(i int) (err error) {
		replies[i], err = transport.NewMessage("verdict", core.VerifyResponse{VerifierID: svc.ID(), Verdict: *verdicts[i]})
		return err
	}); err != nil {
		return st, err
	}
	st.RespEncode = median(lat)
	for i, m := range replies {
		sizes[i] = float64(len(m.Payload))
	}
	st.RespBytes = median(sizes)
	if lat, err = timeEach(n, tr, s.kind, "transport.Decode(reply)", func(i int) error {
		var vr core.VerifyResponse
		return replies[i].Decode(&vr)
	}); err != nil {
		return st, err
	}
	st.RespDecode = median(lat)

	// Echo: the real request messages against a second process whose handler
	// does nothing but return the median-sized reply. What is left is the
	// envelope codec on both sides, the socket and the two schedulers.
	reply := replies[0]
	for _, m := range replies {
		if float64(len(m.Payload)) == st.RespBytes {
			reply = m
			break
		}
	}
	addr, stop, err := startEchoProcess(reply)
	if err != nil {
		return st, err
	}
	defer stop()
	c, err := transport.DialTCP(addr, 5*time.Second)
	if err != nil {
		return st, err
	}
	defer c.Close()
	if lat, err = timeEach(n, tr, s.kind, "transport.echo", func(i int) error {
		_, err := c.Call(ctx, msgs[i])
		return err
	}); err != nil {
		return st, err
	}
	st.Echo = median(lat)
	return st, nil
}

// layerReplay measures every in-process per-layer metric. It runs after the
// traced repetitions, with no authority process alive.
func (w *workloadRun) layerReplay(ctx context.Context, e *env, seed int64, tr *tracer) error {
	cat, err := buildCatalog(seed)
	if err != nil {
		return err
	}
	procs := core.NewProcedureRegistry()
	dir, err := e.tempDir("replay")
	if err != nil {
		return err
	}
	svc, err := newReplayService(dir, "replay", service.Config{})
	if err != nil {
		return err
	}
	defer svc.Close()
	for _, en := range cat.Entries {
		if _, err := svc.Verify(ctx, en.req); err != nil {
			return err
		}
	}

	// The two stage tables and their reconciliation.
	hot := drawSample(cat, w.unloadedRep, roleUnloadedHot, "hot")
	fresh := drawSample(cat, w.unloadedRep, roleUnloadedFresh, "fresh")
	tables := map[string]stages{}
	for _, s := range []*sample{hot, fresh} {
		st, err := stageTable(ctx, svc, procs, s, tr)
		if err != nil {
			return err
		}
		tables[s.kind] = st
		observed := w.unloadedP50[s.kind]
		gap := ratio(observed-st.sum(), observed)
		w.layer["recon."+s.kind+"_gap_ratio"] = gap
		w.stageTables = append(w.stageTables, fmt.Sprintf(
			"%s %s verify: echo %.1f + req encode %.1f + req decode %.1f + Verify %.1f (digest %.1f, procedure %.1f) + reply encode %.1f + reply decode %.1f = sum %.1f us; loadgen.unloaded_p50_us %.1f us (p10 %.1f us); gap ratio %+.3f",
			w.name, s.kind, st.Echo, st.ReqEncode, st.ReqDecode, st.Verify, st.Digest, st.Procedure, st.RespEncode, st.RespDecode,
			st.sum(), observed, w.unloadedP10[s.kind], gap))
	}
	native := tables["hot"]
	if w.name == wlFresh || w.name == wlPanel {
		native = tables["fresh"]
	}
	w.layer["transport.echo_rtt_us"] = native.Echo
	w.layer["transport.req_encode_us"] = native.ReqEncode
	w.layer["transport.req_decode_us"] = native.ReqDecode
	w.layer["transport.resp_encode_us"] = native.RespEncode
	w.layer["transport.resp_decode_us"] = native.RespDecode
	w.layer["transport.req_bytes"] = native.ReqBytes
	w.layer["transport.resp_bytes"] = native.RespBytes
	w.layer["identity.digest_us"] = tables["hot"].Digest
	w.layer["service.hit_us"] = tables["hot"].Verify
	w.layer["service.miss_self_us"] = tables["fresh"].Verify - tables["fresh"].Digest - tables["fresh"].Procedure

	if err := w.replayService(ctx, svc, hot); err != nil {
		return err
	}
	if err := w.replayTransport(cat, procs, hot); err != nil {
		return err
	}
	if err := w.replayCore(cat, procs); err != nil {
		return err
	}
	// The fresh sample's verdicts are in svc's log now: close it, reopen on
	// the same directory and ask for the newest of them again.
	if err := svc.Close(); err != nil {
		return err
	}
	if err := w.replayStore(ctx, e, dir, cat, procs, fresh); err != nil {
		return err
	}
	if err := w.replaySync(ctx, e, cat); err != nil {
		return err
	}
	if err := w.replayQuorum(ctx, cat); err != nil {
		return err
	}
	return w.replayStart(ctx, e)
}

// replayService measures the hit path's allocations and two-goroutine
// scaling, a streamed item, and the operator plane's render.
func (w *workloadRun) replayService(ctx context.Context, svc *service.Service, hot *sample) error {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, r := range hot.reqs {
		if _, err := svc.Verify(ctx, r); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	w.layer["service.hit_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(len(hot.reqs))

	// Hits per second with one goroutine, then with two, each for 200 ms on
	// its own slice of the sample. GOMAXPROCS is the box's CPU count (2).
	rate := func(goroutines int) float64 {
		var wg sync.WaitGroup
		counts := make([]int, goroutines)
		start := time.Now()
		until := start.Add(200 * time.Millisecond)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; time.Now().Before(until); i += goroutines {
					if _, err := svc.Verify(ctx, hot.reqs[i%len(hot.reqs)]); err != nil {
						return
					}
					counts[g]++
				}
			}(g)
		}
		wg.Wait()
		total := 0
		for _, c := range counts {
			total += c
		}
		return float64(total) / time.Since(start).Seconds()
	}
	one := rate(1)
	w.layer["service.hit_scaling_2g"] = ratio(rate(2), one)

	anns := make([]core.Announcement, streamItems)
	for i := range anns {
		anns[i] = announcementOf(hot.reqs[i])
	}
	lat, err := timeEach(5, nil, "", "service.VerifyStream", func(int) error {
		trailer, err := svc.VerifyStream(ctx, anns, func(service.StreamVerdict) error { return nil })
		if err == nil && trailer.Delivered != len(anns) {
			err = fmt.Errorf("delivered %d of %d", trailer.Delivered, len(anns))
		}
		return err
	})
	if err != nil {
		return err
	}
	w.layer["service.stream_item_us"] = median(lat) / streamItems

	st := svc.Stats()
	lat, err = timeEach(200, nil, "", "obs.WriteMetrics", func(int) error {
		return obs.WriteMetrics(io.Discard, "replay", st)
	})
	w.layer["obs.metrics_render_us"] = median(lat)
	return err
}

// replayTransport measures dialing, a 1000-item request's decode and one
// stream frame's codec.
func (w *workloadRun) replayTransport(cat *catalog, procs *core.ProcedureRegistry, hot *sample) error {
	srv, err := transport.ListenTCP("127.0.0.1:0", transport.HandlerFunc(
		func(_ context.Context, m transport.Message) (transport.Message, error) { return m, nil }))
	if err != nil {
		return err
	}
	defer srv.Close()
	lat, err := timeEach(50, nil, "", "transport.DialTCP", func(int) error {
		c, err := transport.DialTCP(srv.Addr(), 5*time.Second)
		if err != nil {
			return err
		}
		return c.Close()
	})
	if err != nil {
		return err
	}
	w.layer["transport.dial_us"] = median(lat)

	anns, _ := newSource(cat, uint64(w.unloadedRep*rolesPerRep+roleStreamProbe)).batch(streamItems)
	batch, err := transport.NewMessage(service.MsgVerifyStream, service.BatchVerifyRequest{Announcements: anns})
	if err != nil {
		return err
	}
	if lat, err = timeEach(5, nil, "", "transport.Decode(batch)", func(int) error {
		var br service.BatchVerifyRequest
		return batch.Decode(&br)
	}); err != nil {
		return err
	}
	w.layer["transport.batch_req_decode_ms"] = median(lat) / 1000

	frames := make([]service.StreamVerdict, 200)
	for i := range frames {
		p, err := procs.Lookup(hot.reqs[i].Format)
		if err != nil {
			return err
		}
		v, err := p.Verify(hot.reqs[i].Game, hot.reqs[i].Advice, hot.reqs[i].Proof)
		if err != nil {
			return err
		}
		frames[i] = service.StreamVerdict{Index: i, Verdict: *v}
	}
	var size float64
	if lat, err = timeEach(len(frames), nil, "", "transport frame", func(i int) error {
		m, err := transport.NewMessage(service.MsgStreamVerdict, frames[i])
		if err != nil {
			return err
		}
		size += float64(len(m.Payload))
		var sv service.StreamVerdict
		return m.Decode(&sv)
	}); err != nil {
		return err
	}
	w.layer["transport.frame_us"] = median(lat)
	w.layer["transport.frame_bytes"] = size / float64(len(frames))
	return nil
}

// replayCore times each bundled procedure over its catalog entries.
func (w *workloadRun) replayCore(cat *catalog, procs *core.ProcedureRegistry) error {
	names := map[string]string{
		core.FormatEnumeration:   "core.proc_enumeration_us",
		core.FormatP1:            "core.proc_p1_us",
		core.FormatNAgent:        "core.proc_nagent_us",
		core.FormatParticipation: "core.proc_participation_us",
		core.FormatCorrelated:    "core.proc_correlated_us",
		core.FormatLastMover:     "core.proc_lastmover_us",
		core.FormatLinksRouting:  "core.proc_routing_us",
	}
	per := map[string][]float64{}
	var all []float64
	for _, en := range cat.Entries {
		p, err := procs.Lookup(en.Ann.Format)
		if err != nil {
			return err
		}
		start := time.Now()
		v, err := p.Verify(en.Ann.Game, en.Ann.Advice, en.Ann.Proof)
		us := float64(time.Since(start)) / float64(time.Microsecond)
		if err != nil {
			return err
		}
		if v.Accepted != en.Accept {
			return fmt.Errorf("%w: slot %d", errWrongVerdict, en.Slot)
		}
		per[en.Ann.Format] = append(per[en.Ann.Format], us)
		all = append(all, us)
	}
	for format, name := range names {
		w.layer[name] = mean(per[format])
	}
	w.layer["core.proc_mix_us"] = mean(all)
	return nil
}

// replayStore measures the durable log alone: 4096 records appended, drained,
// encoded, decoded and replayed; then how much of a service's recent traffic a
// reopened service answers from its log.
func (w *workloadRun) replayStore(ctx context.Context, e *env, svcDir string, cat *catalog, procs *core.ProcedureRegistry, fresh *sample) error {
	const n = 4096
	src := newSource(cat, uint64(w.unloadedRep*rolesPerRep+roleStoreReplay))
	recs := make([]store.Record, n)
	for i := range recs {
		en, id := src.freshID()
		r := en.fresh(id)
		p, err := procs.Lookup(r.Format)
		if err != nil {
			return err
		}
		v, err := p.Verify(r.Game, r.Advice, r.Proof)
		if err != nil {
			return err
		}
		body, err := transport.NewMessage(core.MsgVerify, r)
		if err != nil {
			return err
		}
		recs[i] = store.Record{Key: identity.DigestBytes([]byte(r.Format), r.Game, r.Advice, r.Proof), Verdict: *v, Request: body.Payload}
	}
	dir, err := e.tempDir("store")
	if err != nil {
		return err
	}
	st, _, err := store.Open(dir, store.Options{QueueSize: n})
	if err != nil {
		return err
	}
	start := time.Now()
	lat, err := timeEach(n, nil, "", "store.Append", func(i int) error {
		if !st.Append(recs[i].Key, recs[i].Verdict, recs[i].Request) {
			return fmt.Errorf("append dropped")
		}
		return nil
	})
	if err != nil {
		st.Close()
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	w.layer["store.append_us"] = mean(lat)
	w.layer["store.drain_records_per_s"] = n / time.Since(start).Seconds()
	var bytes int64
	files, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, f := range files {
		if info, err := f.Info(); err == nil && !f.IsDir() {
			bytes += info.Size()
		}
	}
	w.layer["store.bytes_per_record"] = float64(bytes) / n

	start = time.Now()
	blob, err := store.EncodeRecords(recs)
	if err != nil {
		return err
	}
	w.layer["store.encode_record_us"] = float64(time.Since(start)) / float64(time.Microsecond) / n
	start = time.Now()
	if _, err := store.DecodeRecords(blob); err != nil {
		return err
	}
	w.layer["store.decode_record_us"] = float64(time.Since(start)) / float64(time.Microsecond) / n

	start = time.Now()
	st, replayed, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	w.layer["store.open_replay_ms"] = float64(time.Since(start)) / float64(time.Millisecond)
	if err := st.Close(); err != nil {
		return err
	}
	if len(replayed) != n {
		return fmt.Errorf("store replayed %d of %d records", len(replayed), n)
	}

	svc, err := newReplayService(svcDir, "replay", service.Config{})
	if err != nil {
		return err
	}
	defer svc.Close()
	recent := fresh.reqs[len(fresh.reqs)-256:]
	for _, r := range recent {
		if _, err := svc.Verify(ctx, r); err != nil {
			return err
		}
	}
	stats := svc.Stats()
	w.layer["store.replay_hit_ratio"] = ratio(float64(stats.CacheHits), float64(stats.Requests))
	return nil
}

// replaySync measures one anti-entropy exchange between two in-process
// services: 4096 live records at the responder, a 64-record signed delta.
func (w *workloadRun) replaySync(ctx context.Context, e *env, cat *catalog) error {
	const live, delta, rounds = 4096, 64, 3
	rng := rand.New(rand.NewSource(cat.Seed))
	key, err := identity.NewKeyPairFrom(rng)
	if err != nil {
		return err
	}
	dirA, err := e.tempDir("sync-a")
	if err != nil {
		return err
	}
	dirB, err := e.tempDir("sync-b")
	if err != nil {
		return err
	}
	a, err := newReplayService(dirA, "sync-a", service.Config{Key: key})
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := newReplayService(dirB, "sync-b", service.Config{PeerKeys: []identity.PartyID{key.ID()}})
	if err != nil {
		return err
	}
	defer b.Close()
	src := newSource(cat, uint64(w.unloadedRep*rolesPerRep+rolePanelProbe))
	grow := func(n int) error {
		want := a.Stats().Persistence.Persisted + uint64(n)
		for i := 0; i < n; i++ {
			r, _ := src.freshRequest()
			if _, err := a.Verify(ctx, r); err != nil {
				return err
			}
		}
		// Appends are asynchronous; an offer reads what has reached the log.
		for deadline := time.Now().Add(10 * time.Second); a.Stats().Persistence.Persisted < want; {
			if time.Now().After(deadline) {
				return fmt.Errorf("store did not drain %d records", n)
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}
	exchange := func() (offerMs, serveMs, ingestMs float64, err error) {
		t0 := time.Now()
		offer, err := b.SyncOffer()
		if err != nil {
			return 0, 0, 0, err
		}
		t1 := time.Now()
		d, err := a.ServeSyncOffer(offer)
		if err != nil {
			return 0, 0, 0, err
		}
		t2 := time.Now()
		if _, err := b.IngestDelta(offer, d); err != nil {
			return 0, 0, 0, err
		}
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		return ms(t1.Sub(t0)), ms(t2.Sub(t1)), ms(time.Since(t2)), nil
	}
	if err := grow(live - rounds*delta); err != nil {
		return err
	}
	if _, _, _, err := exchange(); err != nil { // B catches up to A
		return err
	}
	var offers, serves, ingests []float64
	for i := 0; i < rounds; i++ {
		if err := grow(delta); err != nil {
			return err
		}
		o, s, in, err := exchange()
		if err != nil {
			return err
		}
		offers, serves, ingests = append(offers, o), append(serves, s), append(ingests, in)
	}
	w.layer["service.sync_offer_ms"] = median(offers)
	w.layer["service.serve_offer_ms"] = median(serves)
	w.layer["service.ingest_delta_ms"] = median(ingests)
	return nil
}

// replayQuorum runs Certifier.Certify over three in-process services behind
// loopback listeners: the certificate path without process scheduling.
func (w *workloadRun) replayQuorum(ctx context.Context, cat *catalog) error {
	rng := rand.New(rand.NewSource(cat.Seed + 1))
	var keyset []identity.PartyID
	var members []quorum.Member
	var signer *identity.KeyPair
	for i := 0; i < 3; i++ {
		key, err := identity.NewKeyPairFrom(rng)
		if err != nil {
			return err
		}
		signer = key
		keyset = append(keyset, key.ID())
		svc, err := service.New(service.Config{ID: fmt.Sprintf("q%d", i), CacheSize: 4096, Key: key})
		if err != nil {
			return err
		}
		defer svc.Close()
		srv, err := transport.ListenTCP("127.0.0.1:0", svc)
		if err != nil {
			return err
		}
		defer srv.Close()
		c, err := transport.DialTCP(srv.Addr(), 5*time.Second)
		if err != nil {
			return err
		}
		defer c.Close()
		members = append(members, quorum.Member{ID: svc.ID(), Client: c})
	}
	certifier, err := quorum.NewCertifier(quorum.CertifierConfig{Members: members, Keyset: keyset})
	if err != nil {
		return err
	}
	src := newSource(cat, uint64(w.unloadedRep*rolesPerRep+roleWirePass))
	const n = 50
	certs := make([]*core.Certificate, n)
	lat, err := timeEach(n, nil, "", "quorum.Certify", func(i int) (err error) {
		r, _ := src.freshRequest()
		certs[i], err = certifier.Certify(ctx, r)
		return err
	})
	if err != nil {
		return err
	}
	w.layer["quorum.certify_local_ms"] = median(lat) / 1000
	var size float64
	if lat, err = timeEach(n, nil, "", "Certificate.Verify", func(i int) error {
		return certs[i].Verify(keyset, 0)
	}); err != nil {
		return err
	}
	w.layer["core.cert_verify_us"] = median(lat)
	for _, c := range certs {
		blob, err := core.EncodeCertificate(c)
		if err != nil {
			return err
		}
		size += float64(len(blob))
	}
	w.layer["core.cert_bytes"] = size / n

	digest := identity.CertificateDigest(identity.DigestBytes([]byte("bench")), []byte(`{"accepted":true}`))
	sigs := make([][]byte, 200)
	if lat, err = timeEach(len(sigs), nil, "", "identity.Sign", func(i int) error {
		sigs[i] = signer.Sign(digest)
		return nil
	}); err != nil {
		return err
	}
	w.layer["identity.sign_us"] = median(lat)
	if lat, err = timeEach(len(sigs), nil, "", "identity.Verify", func(i int) error {
		return identity.Verify(signer.ID(), digest, sigs[i])
	}); err != nil {
		return err
	}
	w.layer["identity.verify_us"] = median(lat)
	return nil
}

// replayStart times a process start on an empty directory: exec to the first
// reply.
func (w *workloadRun) replayStart(ctx context.Context, e *env) error {
	start := time.Now()
	a, err := startSingle(e, "start", nil)
	if err != nil {
		return err
	}
	c, err := a.dialWhenUp(ctx)
	if err != nil {
		a.kill()
		return err
	}
	_, err = fetchStats(ctx, c)
	w.layer["authority.start_ms"] = float64(time.Since(start)) / float64(time.Millisecond)
	c.Close()
	if serr := a.stop(); err == nil {
		err = serr
	}
	return err
}
