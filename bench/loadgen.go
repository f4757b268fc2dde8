package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"rationality/internal/core"
	"rationality/internal/identity"
	"rationality/internal/quorum"
	"rationality/internal/service"
	"rationality/internal/transport"
)

// Workload shape constants. They are fixed here, not flags: a later change is
// compared against this one only if both ran the same traffic.
const (
	zipfS          = 1.1  // Zipf exponent over catalog ranks
	streamItems    = 1000 // announcements per verify-stream exchange
	streamFreshPct = 20   // share of stream items that are fresh
	certRate       = 40   // certificates issued per second, open loop
	lateAfter      = time.Millisecond
	pollEvery      = 2 * time.Millisecond // cert-get polling at member C
	reputAfter     = time.Second          // a certificate not at C by then is put to A again
	replicateLimit = 10 * time.Second     // a certificate not at C by then failed

	// Probe sizes: what a workload runs, after its own traffic, to report the
	// end-to-end metrics its own traffic does not produce (see README).
	probeStreams = 12
	probeCerts   = 40

	wirePassOps   = 2000 // unary requests (or stream items) in the wire pass
	wirePassCerts = 200  // certificates in panel-certify's wire pass
	unloadedOps   = 2000 // requests in the one-connection unloaded pass
)

// rankToSlot spreads popularity ranks over the catalog with a fixed odd
// multiplier, so the hottest ranks cover all seven formats and the mapping
// is the same for every seed.
func rankToSlot(rank uint64) int { return int((rank*181 + 7) % catalogSize) }

// source draws one goroutine's requests. Each has its own seeded generator,
// so the order of one connection's requests does not depend on how the
// scheduler interleaves connections.
type source struct {
	cat    *catalog
	rng    *rand.Rand
	zipf   *rand.Zipf
	stream uint64 // high half of every fresh id this source makes
	count  uint64
	// lastReq is the newest fresh request drawn: the one a warm restart asks
	// for again, because it is the one least likely to have been retired.
	lastReq  core.VerifyRequest
	lastWant bool
}

func newSource(cat *catalog, stream uint64) *source {
	rng := rand.New(rand.NewSource(cat.Seed*7919 + int64(stream)))
	return &source{cat: cat, rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, catalogSize-1), stream: stream}
}

func (s *source) hot() *entry { return s.cat.Entries[rankToSlot(s.zipf.Uint64())] }

func (s *source) freshID() (*entry, uint64) {
	s.count++
	return s.cat.Entries[s.rng.Intn(catalogSize)], s.stream<<32 | s.count
}

func (s *source) hotRequest() (core.VerifyRequest, bool) {
	e := s.hot()
	return e.req, e.Accept
}

func (s *source) freshRequest() (core.VerifyRequest, bool) {
	e, id := s.freshID()
	s.lastReq, s.lastWant = e.fresh(id), e.Accept
	return s.lastReq, s.lastWant
}

// announcementOf wraps a verify request as the announcement a batch carries.
func announcementOf(r core.VerifyRequest) core.Announcement {
	return core.Announcement{InventorID: inventorID, Format: r.Format, Game: r.Game, Advice: r.Advice, Proof: r.Proof}
}

// batch draws one verify-stream request: 80% catalog by popularity, 20% fresh.
func (s *source) batch(n int) ([]core.Announcement, []bool) {
	anns := make([]core.Announcement, n)
	want := make([]bool, n)
	for i := range anns {
		if s.rng.Intn(100) < streamFreshPct {
			var r core.VerifyRequest
			r, want[i] = s.freshRequest()
			anns[i] = announcementOf(r)
		} else {
			e := s.hot()
			anns[i], want[i] = e.Ann, e.Accept
		}
	}
	return anns, want
}

// opLog collects one kind of operation's outcomes. It is safe for the few
// goroutines of a repetition to share.
type opLog struct {
	mu        sync.Mutex
	lat       []float64
	attempted int
	failed    int
	firstErr  error
}

func (l *opLog) ok(d time.Duration, unit time.Duration) {
	l.mu.Lock()
	l.attempted++
	l.lat = append(l.lat, float64(d)/float64(unit))
	l.mu.Unlock()
}

func (l *opLog) fail(err error) {
	l.mu.Lock()
	l.attempted++
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
	l.mu.Unlock()
}

// merge folds another log's outcomes (not its latencies) into this one.
func (l *opLog) merge(o *opLog) {
	l.attempted += o.attempted
	l.failed += o.failed
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
}

var errWrongVerdict = errors.New("wrong verdict")

// verifyOnce is one client-observed unary verify: marshal the request, one
// round trip, unmarshal the reply, compare with the expected verdict. It
// returns the stage boundaries so a traced caller can record them.
func verifyOnce(ctx context.Context, c transport.Client, req core.VerifyRequest, want bool) (t [4]time.Time, err error) {
	t[0] = time.Now()
	msg, err := transport.NewMessage(core.MsgVerify, req)
	if err != nil {
		return t, err
	}
	t[1] = time.Now()
	resp, err := c.Call(ctx, msg)
	if err != nil {
		return t, err
	}
	t[2] = time.Now()
	var vr core.VerifyResponse
	if err := resp.Decode(&vr); err != nil {
		return t, err
	}
	t[3] = time.Now()
	if vr.Verdict.Accepted != want {
		return t, fmt.Errorf("%w: %s accepted=%v, want %v (%s)", errWrongVerdict, req.Format, vr.Verdict.Accepted, want, vr.Verdict.Reason)
	}
	return t, nil
}

// unaryLoop issues verifies back to back on one connection until the deadline
// passes or, when count is positive, until count requests are done.
func unaryLoop(ctx context.Context, c transport.Client, next func() (core.VerifyRequest, bool),
	until time.Time, count int, log *opLog, tr *tracer, tag string) {
	for i := 0; count == 0 || i < count; i++ {
		if count == 0 && !time.Now().Before(until) {
			return
		}
		req, want := next()
		t, err := verifyOnce(ctx, c, req, want)
		if err != nil {
			log.fail(err)
			if ctx.Err() != nil {
				return
			}
			continue
		}
		log.ok(t[3].Sub(t[0]), time.Microsecond)
		if tr != nil {
			id := fmt.Sprintf("%s-%d", tag, i)
			root := tr.reserve()
			tr.record(root, id, "transport.encode_req", t[0], t[1])
			tr.record(root, id, "transport.call", t[1], t[2])
			tr.record(root, id, "transport.decode_resp", t[2], t[3])
			tr.finish(root, 0, id, "loadgen.request", t[0], t[3])
		}
	}
}

// streamResult is one verify-stream exchange as the client saw it.
type streamResult struct {
	frames int
	ttfv   time.Duration // request marshalled and sent -> first verdict frame
}

// streamOnce runs one verify-stream exchange and checks every frame against
// the expected verdict and the trailer against the item count.
func streamOnce(ctx context.Context, c transport.StreamCaller, anns []core.Announcement, want []bool,
	tr *tracer, id string) (streamResult, error) {
	var res streamResult
	t0 := time.Now()
	msg, err := transport.NewMessage(service.MsgVerifyStream, service.BatchVerifyRequest{Announcements: anns})
	if err != nil {
		return res, err
	}
	t1 := time.Now()
	st, err := c.CallStream(ctx, msg)
	if err != nil {
		return res, err
	}
	defer st.Close()
	seen := make([]bool, len(anns))
	var tFirst time.Time
	for {
		frame, err := st.Next()
		if err != nil {
			return res, err
		}
		if frame.Last {
			var trailer service.StreamTrailer
			if err := frame.Decode(&trailer); err != nil {
				return res, err
			}
			if trailer.Truncated || trailer.Items != len(anns) || trailer.Delivered != trailer.Items || res.frames != len(anns) {
				return res, fmt.Errorf("stream trailer: items=%d delivered=%d truncated=%v, %d frames read, want %d",
					trailer.Items, trailer.Delivered, trailer.Truncated, res.frames, len(anns))
			}
			break
		}
		if res.frames == 0 {
			tFirst = time.Now()
		}
		res.frames++
		var sv service.StreamVerdict
		if err := frame.Decode(&sv); err != nil {
			return res, err
		}
		if sv.Index < 0 || sv.Index >= len(anns) || seen[sv.Index] {
			return res, fmt.Errorf("stream frame index %d out of range or repeated", sv.Index)
		}
		seen[sv.Index] = true
		if sv.Verdict.Accepted != want[sv.Index] {
			return res, fmt.Errorf("%w: stream item %d (%s) accepted=%v", errWrongVerdict, sv.Index, anns[sv.Index].Format, sv.Verdict.Accepted)
		}
	}
	tEnd := time.Now()
	res.ttfv = tFirst.Sub(t0)
	if tr != nil {
		root := tr.reserve()
		tr.record(root, id, "transport.encode_req", t0, t1)
		tr.record(root, id, "first_frame", t1, tFirst)
		tr.record(root, id, "trailer", tFirst, tEnd)
		tr.finish(root, 0, id, "loadgen.stream", t0, tEnd)
	}
	return res, nil
}

// streamLoop issues verify-stream exchanges back to back until the deadline
// (or count exchanges). An exchange in flight at the deadline finishes.
func streamLoop(ctx context.Context, c transport.StreamCaller, src *source, until time.Time, count int,
	ttfv *opLog, frames *int, tr *tracer, tag string) {
	for i := 0; count == 0 || i < count; i++ {
		if count == 0 && !time.Now().Before(until) {
			return
		}
		anns, want := src.batch(streamItems)
		res, err := streamOnce(ctx, c, anns, want, tr, fmt.Sprintf("%s-%d", tag, i))
		*frames += res.frames
		if err != nil {
			ttfv.fail(err)
			if ctx.Err() != nil {
				return
			}
			continue
		}
		ttfv.ok(res.ttfv, time.Millisecond)
	}
}

// timedClient times every call a quorum.Certifier makes to one panel member.
type timedClient struct {
	inner transport.Client
	log   *opLog
}

func (t timedClient) Call(ctx context.Context, req transport.Message) (transport.Message, error) {
	start := time.Now()
	resp, err := t.inner.Call(ctx, req)
	if err != nil {
		t.log.fail(err)
		return resp, err
	}
	t.log.ok(time.Since(start), time.Microsecond)
	return resp, nil
}

func (t timedClient) Close() error { return t.inner.Close() }

// issued is a certificate handed from the issuing goroutine to the one that
// watches it replicate.
type issued struct {
	id      string
	cert    *core.Certificate
	putDone time.Time
}

// panelLogs are the outcomes of a panel run.
type panelLogs struct {
	certify   opLog         // due time -> Certify + cert-put done, ms
	replicate opLog         // cert-put done -> verified copy at member C, ms
	cosign    opLog         // each member call under Certify, µs
	late      int           // operations started more than lateAfter behind schedule
	reputs    int           // certificates submitted again because C never got them
	issuing   time.Duration // how long the issuer ran; the watcher drains after it
	lastReq   core.VerifyRequest
	lastWant  bool
}

// certifyOnce runs Certifier.Certify across the panel and stores the
// certificate at member A.
func (p *panel) certifyOnce(ctx context.Context, req core.VerifyRequest, want bool, tr *tracer, id string, parent uint64) (*core.Certificate, error) {
	t0 := time.Now()
	cert, err := p.certifier.Certify(ctx, req)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if cert.Verdict.Accepted != want {
		return nil, fmt.Errorf("%w: certificate for %s accepted=%v", errWrongVerdict, req.Format, cert.Verdict.Accepted)
	}
	if err := p.put(ctx, p.putA, cert); err != nil {
		return nil, err
	}
	tr.record(parent, id, "certify", t0, t1)
	tr.record(parent, id, "cert_put", t1, time.Now())
	return cert, nil
}

// put stores a certificate at member A over the given connection.
func (p *panel) put(ctx context.Context, c transport.Client, cert *core.Certificate) error {
	req, err := transport.NewMessage(service.MsgCertPut, service.CertPutRequest{Certificate: *cert})
	if err != nil {
		return err
	}
	resp, err := c.Call(ctx, req)
	if err != nil {
		return fmt.Errorf("cert-put: %w", err)
	}
	var receipt service.CertPutResponse
	if err := resp.Decode(&receipt); err != nil {
		return err
	}
	if !receipt.Stored {
		return errors.New("cert-put: member A did not store the certificate")
	}
	return nil
}

// issue certifies fresh requests open loop: request i is due at start +
// i/certRate whatever happened to the ones before it, and its latency runs
// from that due time.
func (p *panel) issue(ctx context.Context, src *source, until time.Time, count int, logs *panelLogs,
	out chan<- issued, tr *tracer, tag string) {
	defer close(out)
	start := time.Now()
	defer func() { logs.issuing = time.Since(start) }()
	interval := time.Second / certRate
	for i := 0; count == 0 || i < count; i++ {
		due := start.Add(time.Duration(i) * interval)
		if count == 0 && !due.Before(until) {
			return
		}
		time.Sleep(time.Until(due))
		if time.Since(due) > lateAfter {
			logs.late++
		}
		req, want := src.freshRequest()
		id := fmt.Sprintf("%s-%d", tag, i)
		root := tr.reserve()
		cert, err := p.certifyOnce(ctx, req, want, tr, id, root)
		done := time.Now()
		if err != nil {
			logs.certify.fail(err)
			if ctx.Err() != nil {
				return
			}
			continue
		}
		logs.certify.ok(done.Sub(due), time.Millisecond)
		logs.lastReq, logs.lastWant = req, want
		tr.finish(root, 0, id, "loadgen.certificate", due, done)
		out <- issued{id: id, cert: cert, putDone: done}
	}
}

func certGet(ctx context.Context, c transport.Client, key string) (*core.Certificate, error) {
	req, err := transport.NewMessage(service.MsgCertGet, service.CertGetRequest{Key: key})
	if err != nil {
		return nil, err
	}
	resp, err := c.Call(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("cert-get: %w", err)
	}
	var got service.CertGetResponse
	if err := resp.Decode(&got); err != nil {
		return nil, err
	}
	if !got.Found {
		return nil, nil
	}
	return got.Certificate, nil
}

// watch times, for each issued certificate in turn, how long until member C
// serves it, then checks it offline against the keyset and byte for byte
// against member A's copy. Certificates reach C a sync round at a time, so
// taking them in issue order loses nothing: those of the same round are
// already there when their turn comes.
func (p *panel) watch(ctx context.Context, in <-chan issued, logs *panelLogs, tr *tracer) {
	for it := range in {
		if err := p.watchOne(ctx, it, logs, tr); err != nil {
			logs.replicate.fail(err)
		}
	}
}

func (p *panel) watchOne(ctx context.Context, it issued, logs *panelLogs, tr *tracer) error {
	var atC *core.Certificate
	nextPut := it.putDone.Add(reputAfter)
	for atC == nil {
		var err error
		if atC, err = certGet(ctx, p.getC, it.cert.Key); err != nil {
			return err
		}
		if atC != nil {
			break
		}
		if time.Since(it.putDone) > replicateLimit {
			return fmt.Errorf("certificate %s not at member C after %s", it.cert.Key, replicateLimit)
		}
		if time.Now().After(nextPut) {
			// About one certificate in ten thousand never leaves A: member
			// C's store clock ran ahead, so C's bare verdict carries a
			// newer stamp than A's certified copy and newest-stamp-wins
			// keeps it (README, Findings). A client that misses its
			// certificate submits it again; so does the watcher, and the
			// repetition counts it.
			if err := p.put(ctx, p.getA, it.cert); err != nil {
				return err
			}
			logs.reputs++
			nextPut = time.Now().Add(reputAfter)
		}
		time.Sleep(pollEvery)
	}
	found := time.Now()
	if err := atC.Verify(p.keyset, 0); err != nil {
		return fmt.Errorf("certificate from member C: %w", err)
	}
	verified := time.Now()
	atA, err := certGet(ctx, p.getA, it.cert.Key)
	if err != nil {
		return err
	}
	if atA == nil {
		return fmt.Errorf("certificate %s missing at member A", it.cert.Key)
	}
	a, err := core.EncodeCertificate(atA)
	if err != nil {
		return err
	}
	c, err := core.EncodeCertificate(atC)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, c) {
		return fmt.Errorf("certificate %s differs between members A and C", it.cert.Key)
	}
	logs.replicate.ok(found.Sub(it.putDone), time.Millisecond)
	tr.record(0, it.id, "replicate_wait", it.putDone, found)
	tr.record(0, it.id, "offline_verify", found, verified)
	return nil
}

// run issues certificates for the given time (or count) on one goroutine while
// a second watches them replicate, and returns when both are done.
func (p *panel) run(ctx context.Context, src *source, seconds float64, count int, tr *tracer, tag string) *panelLogs {
	logs := &panelLogs{}
	for i := range p.members {
		p.timed[i].log = &logs.cosign
	}
	capacity := count
	if count == 0 {
		capacity = int(seconds*certRate) + 1
	}
	// Sized to the number of sends, so a slow watcher never delays the
	// open-loop issuer.
	ch := make(chan issued, capacity)
	until := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		p.issue(ctx, src, until, count, logs, ch, tr, tag)
	}()
	go func() {
		defer wg.Done()
		p.watch(ctx, ch, logs, tr)
	}()
	wg.Wait()
	return logs
}

// panel is three keyed, persisted authorities replicating to each other, plus
// the generator's connections to them.
type panel struct {
	members [3]*authority
	keyset  []identity.PartyID

	timed     [3]*timedClient
	certifier *quorum.Certifier
	putA      *transport.TCPClient
	getA      *transport.TCPClient
	getC      *transport.TCPClient
	clients   []*transport.TCPClient
}

func (p *panel) closeClients() {
	for _, c := range p.clients {
		c.Close()
	}
}
