package service

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"rationality/internal/core"
	"rationality/internal/transport"
)

// Wire message types of the streaming batch exchange.
const (
	// MsgVerifyStream: agent → service. Payload BatchVerifyRequest; the
	// reply is a stream — one MsgStreamVerdict frame per item as items
	// finish, terminated by a MsgStreamTrailer frame (transport Last flag
	// set) with the aggregate stats. Time-to-first-verdict is therefore
	// one verification, not the whole batch.
	MsgVerifyStream = "verify-stream"
	// MsgStreamVerdict is one per-item frame of a verify-stream reply;
	// payload StreamVerdict.
	MsgStreamVerdict = "stream-verdict"
	// MsgStreamTrailer is the terminal frame of a verify-stream reply;
	// payload StreamTrailer.
	MsgStreamTrailer = "stream-trailer"
)

// StreamVerdict is one streamed item result: which input it answers, the
// verdict, and — when this authority holds one — the item's quorum
// certificate, so a streaming client gets offline-verifiable results
// without a follow-up cert-get per item.
type StreamVerdict struct {
	// Index is the item's position in the requested batch. Frames arrive
	// in completion order, not input order.
	Index   int          `json:"index"`
	Verdict core.Verdict `json:"verdict"`
	// Certificate is the cached quorum certificate for this verdict, if
	// any (certificate-if-cached: the stream never waits on a panel).
	Certificate *core.Certificate `json:"certificate,omitempty"`
}

// appendStreamVerdict appends a StreamVerdict frame payload exactly as
// json.Marshal encodes it, given the verdict as AppendJSON encodes it: the
// index by strconv, the verdict bytes spliced in as they are, a
// certificate — the rare case — through json.Marshal.
func appendStreamVerdict(dst []byte, index int, verdict []byte, cert *core.Certificate) ([]byte, error) {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(index), 10)
	dst = append(dst, `,"verdict":`...)
	dst = append(dst, verdict...)
	if cert != nil {
		raw, err := json.Marshal(cert)
		if err != nil {
			return nil, fmt.Errorf("service: encoding stream certificate: %w", err)
		}
		dst = append(dst, `,"certificate":`...)
		dst = append(dst, raw...)
	}
	return append(dst, '}'), nil
}

// StreamTrailer terminates a verify-stream reply with the aggregate view
// of the exchange.
type StreamTrailer struct {
	VerifierID string `json:"verifierId"`
	// Items is the batch size requested; Delivered counts the verdict
	// frames actually emitted before the trailer.
	Items     int `json:"items"`
	Delivered int `json:"delivered"`
	// Accepted / Rejected partition the delivered verdicts.
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	// Truncated reports that the stream ended before every item was
	// verified (cancellation or shutdown); Reason says why.
	Truncated bool   `json:"truncated,omitempty"`
	Reason    string `json:"reason,omitempty"`
	// Elapsed is the stream's total service time; FirstVerdict is its
	// time-to-first-verdict — the number streaming exists to flatten.
	Elapsed      time.Duration `json:"elapsed"`
	FirstVerdict time.Duration `json:"firstVerdict,omitempty"`
}

// streamResult carries one finished item from a stream goroutine to the
// collector: the input's index and the entry to deliver, or the
// infrastructure error (cancelled context, shutdown) that left the item
// with nothing to deliver. A result with done set carries no item: it is
// the goroutine's last send, err its reason for stopping early, if any.
type streamResult struct {
	index int
	entry *cacheEntry
	err   error
	done  bool
}

// VerifyStream fans the announcements across the procedure slots and
// calls emit once per completed item, in completion order, so the caller
// sees the first verdict after roughly one verification no matter how
// long the batch is. emit runs on the calling goroutine, serialized; an
// emit error aborts the stream (remaining work is cancelled and drained)
// and is returned. Infrastructure failures — cancelled context, service
// shutdown — stop taking items but never discard finished work: completed
// items are still emitted and the returned trailer reports Truncated
// with the cause in Reason. The whole stream counts as one in-flight
// request (Close waits for it) and is charged to the batch admission
// class as one token per item. Each item's verdict is decoded for emit,
// beside its cached quorum certificate, if any.
func (s *Service) VerifyStream(ctx context.Context, anns []core.Announcement, emit func(StreamVerdict) error) (StreamTrailer, error) {
	return s.stream(ctx, anns, func(index int, e *cacheEntry) error {
		v, err := e.decode()
		if err != nil {
			return err
		}
		return emit(StreamVerdict{Index: index, Verdict: *v, Certificate: e.certificate()})
	})
}

// stream is VerifyStream over cache entries: emit gets each item's index
// and entry, whose bytes the wire frame splices.
func (s *Service) stream(ctx context.Context, anns []core.Announcement, emit func(int, *cacheEntry) error) (StreamTrailer, error) {
	if err := s.beginBatch(len(anns)); err != nil {
		return StreamTrailer{}, err
	}
	defer s.release()
	s.metrics.streams.Add(1)
	start := time.Now()
	tr := StreamTrailer{VerifierID: s.id, Items: len(anns)}
	cause, emitErr := s.fanOut(ctx, anns, func(index int, e *cacheEntry) error {
		if tr.Delivered == 0 {
			tr.FirstVerdict = time.Since(start)
			s.metrics.ttfv.observe(tr.FirstVerdict.Nanoseconds())
		}
		if err := emit(index, e); err != nil {
			return err
		}
		tr.Delivered++
		if e.accepted {
			tr.Accepted++
		} else {
			tr.Rejected++
		}
		return nil
	})
	tr.Elapsed = time.Since(start)
	if emitErr != nil {
		return tr, fmt.Errorf("service: stream emit: %w", emitErr)
	}
	if cause != nil {
		tr.Truncated = true
		tr.Reason = cause.Error()
	} else if tr.Delivered < tr.Items {
		tr.Truncated = true
	}
	return tr, nil
}

// beginBatch admits one batch or stream of n items: one token per item
// from the batch admission class, then one in-flight registration for the
// whole exchange (Close waits for it), which the caller must release.
func (s *Service) beginBatch(n int) error {
	if s.admission != nil {
		if err := s.admission.admit(ClassBatch, n); err != nil {
			return err
		}
	}
	if err := s.acquire(); err != nil {
		s.metrics.failures.Add(1)
		return err
	}
	return nil
}

// fanOut is VerifyStream's take/collect loop. At most min(Workers,
// len(anns)) goroutines take items by an atomic index — batch length is
// wire-controlled, so it must not translate into goroutines — and verify
// each on the shared slots; deliver runs on the calling goroutine once per
// completed item, in completion order, with the item's index and cache
// entry: the certificate, when the entry carries one, rides along (the
// stream never waits on a panel). An item whose verification failed
// outright (an unknown format) is delivered as a rejection naming the
// error. Taking stops at the first infrastructure failure (returned as
// cause) or deliver error (returned, the remaining results drained so no
// goroutine blocks); everything that completed before a cause is still
// delivered. fanOut returns only after every goroutine it started has.
func (s *Service) fanOut(ctx context.Context, anns []core.Announcement, deliver func(int, *cacheEntry) error) (cause, deliverErr error) {
	n := min(s.workers, len(anns))
	// results holds one result per taker, so a taker waits at most one
	// deliver; this goroutine drains it until every taker has sent its
	// done result. aborted stops the takers early when delivering fails.
	results := make(chan streamResult, n)
	var next atomic.Int64
	var aborted atomic.Bool
	for range n {
		go func() {
			var stop error
			for {
				if stop = ctx.Err(); stop != nil {
					break
				}
				if s.closing() {
					stop = ErrServiceClosed
					break
				}
				i := int(next.Add(1) - 1)
				if i >= len(anns) || aborted.Load() {
					break
				}
				ann := &anns[i]
				entry, err := s.verifyRegistered(ctx, ann.InventorID, ann.Format, ann.Game, ann.Advice, ann.Proof)
				r := streamResult{index: i, entry: entry}
				if isContextError(err) {
					r.err = err
				} else if err != nil {
					r.entry = newEntry(&core.Verdict{Format: ann.Format, Reason: err.Error()})
				}
				results <- r
			}
			results <- streamResult{done: true, err: stop}
		}()
	}

	for running := n; running > 0; {
		r := <-results
		if r.done {
			running--
		}
		switch {
		case r.err != nil:
			if cause == nil {
				cause = r.err
			}
		case !r.done && deliverErr == nil:
			if deliverErr = deliver(r.index, r.entry); deliverErr != nil {
				aborted.Store(true)
			}
		} // after a deliver error: drain, so no taker blocks on a dead consumer
	}
	return cause, deliverErr
}

// certificate decodes the entry's quorum certificate, if it carries one;
// best-effort — a certificate that fails to decode is simply omitted
// from the stream frame.
func (e *cacheEntry) certificate() *core.Certificate {
	if len(e.cert) == 0 {
		return nil
	}
	cert, err := core.DecodeCertificate(e.cert)
	if err != nil {
		return nil
	}
	return cert
}

// Streams implements transport.StreamHandler: only the verify-stream
// exchange is served as a frame stream.
func (s *Service) Streams(msgType string) bool { return msgType == MsgVerifyStream }

// HandleStream implements transport.StreamHandler for MsgVerifyStream:
// it decodes the batch, runs the stream with each verdict sent as one
// MsgStreamVerdict frame — its cached bytes spliced in, never decoded or
// re-encoded — and returns the MsgStreamTrailer frame the transport marks
// terminal.
func (s *Service) HandleStream(ctx context.Context, req transport.Message, send func(transport.Message) error) (transport.Message, error) {
	if req.Type != MsgVerifyStream {
		return transport.Message{}, fmt.Errorf("service: cannot stream %q", req.Type)
	}
	// The whole batch is decoded before the first item is taken: decoding
	// between items is slower than verifying them, so the stream
	// goroutines would park and unpark per item.
	anns, err := decodeBatch(req)
	if err != nil {
		return transport.Message{}, err
	}
	trailer, err := s.stream(ctx, anns, func(index int, e *cacheEntry) error {
		payload, err := appendStreamVerdict(make([]byte, 0, replyBufferSize), index, e.verdict, e.certificate())
		if err != nil {
			return err
		}
		return send(transport.Message{Type: MsgStreamVerdict, Payload: payload})
	})
	if err != nil {
		return transport.Message{}, err
	}
	return transport.NewMessage(MsgStreamTrailer, trailer)
}

// StreamVerify drives one verify-stream exchange as a client: it sends
// the announcements, calls onVerdict for every streamed frame (in
// completion order; nil to just count), and returns the trailer. An
// onVerdict error abandons the stream and is returned.
func StreamVerify(ctx context.Context, c transport.StreamCaller, anns []core.Announcement, onVerdict func(StreamVerdict) error) (*StreamTrailer, error) {
	req, err := transport.NewMessage(MsgVerifyStream, BatchVerifyRequest{Announcements: anns})
	if err != nil {
		return nil, err
	}
	st, err := c.CallStream(ctx, req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = st.Close() }()
	for {
		m, err := st.Next()
		if err != nil {
			return nil, err
		}
		switch m.Type {
		case MsgStreamVerdict:
			var sv StreamVerdict
			if err := m.Decode(&sv); err != nil {
				return nil, err
			}
			if onVerdict != nil {
				if err := onVerdict(sv); err != nil {
					return nil, err
				}
			}
		case MsgStreamTrailer:
			var tr StreamTrailer
			if err := m.Decode(&tr); err != nil {
				return nil, err
			}
			return &tr, nil
		default:
			return nil, fmt.Errorf("service: unexpected stream frame %q", m.Type)
		}
	}
}

var _ transport.StreamHandler = (*Service)(nil)
