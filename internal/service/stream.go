package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"rationality/internal/core"
	"rationality/internal/identity"
	"rationality/internal/transport"
)

// Wire message types of the streaming batch exchange.
const (
	// MsgVerifyStream: agent → service. Payload BatchVerifyRequest; the
	// reply is a stream — one MsgStreamVerdict frame per item as workers
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

// appendJSON appends the frame payload exactly as json.Marshal encodes
// it: the index and the verdict by the append encoder, a certificate —
// the rare case — through json.Marshal.
func (sv *StreamVerdict) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(sv.Index), 10)
	dst = append(dst, `,"verdict":`...)
	dst = sv.Verdict.AppendJSON(dst)
	if sv.Certificate != nil {
		cert, err := json.Marshal(sv.Certificate)
		if err != nil {
			return nil, fmt.Errorf("service: encoding stream certificate: %w", err)
		}
		dst = append(dst, `,"certificate":`...)
		dst = append(dst, cert...)
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

// streamResult carries one finished item from a pool worker to the
// collector: a verdict to deliver, or the infrastructure error (cancelled
// context, shutdown) that left the item with nothing to deliver.
type streamResult struct {
	sv  StreamVerdict
	err error
}

// VerifyStream fans the announcements across the shared worker pool and
// calls emit once per completed item, in completion order, so the caller
// sees the first verdict after roughly one verification no matter how
// long the batch is. emit runs on the calling goroutine, serialized; an
// emit error aborts the stream (remaining work is cancelled and drained)
// and is returned. Infrastructure failures — cancelled context, service
// shutdown — stop submission but never discard finished work: completed
// items are still emitted and the returned trailer reports Truncated
// with the cause in Reason. The whole stream counts as one in-flight
// request (Close waits for it) and is charged to the batch admission
// class as one token per item.
func (s *Service) VerifyStream(ctx context.Context, anns []core.Announcement, emit func(StreamVerdict) error) (StreamTrailer, error) {
	if err := s.beginBatch(len(anns)); err != nil {
		return StreamTrailer{}, err
	}
	defer s.release()
	s.metrics.streams.Add(1)
	start := time.Now()
	tr := StreamTrailer{VerifierID: s.id, Items: len(anns)}
	cause, emitErr := s.fanOut(ctx, anns, s.cachedCertificate, func(sv StreamVerdict) error {
		if tr.Delivered == 0 {
			tr.FirstVerdict = time.Since(start)
			s.metrics.ttfv.observe(tr.FirstVerdict.Nanoseconds())
		}
		if err := emit(sv); err != nil {
			return err
		}
		tr.Delivered++
		if sv.Verdict.Accepted {
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

// fanOut is VerifyStream's submit/collect loop. A submitter goroutine feeds one pool job per announcement
// — batch length is wire-controlled, so it must not translate into
// goroutines, and the submit blocks while all workers are busy — and
// deliver runs on the calling goroutine once per completed item, in
// completion order. attach, when non-nil, runs on the worker to decorate
// a verified item with its certificate. Submission stops at the first
// infrastructure failure (returned as cause) or deliver error (returned,
// the remaining results drained so no worker blocks); everything that
// completed before a cause is still delivered. The caller holds the
// in-flight registration that keeps the pool alive.
func (s *Service) fanOut(ctx context.Context, anns []core.Announcement, attach func(*core.Announcement) *core.Certificate, deliver func(StreamVerdict) error) (cause, deliverErr error) {
	// results is drained by this goroutine until closed, so workers never
	// block on it longer than one deliver; abort stops the submitter
	// early when delivering fails. submitErr is the submitter's own reason
	// for stopping, published by the close of results.
	results := make(chan streamResult, s.workers)
	abort := make(chan struct{})
	var submitErr error
	var wg sync.WaitGroup
	go func() {
		defer func() {
			wg.Wait()
			close(results)
		}()
		for i := range anns {
			if submitErr = ctx.Err(); submitErr != nil {
				return
			}
			if s.closing() {
				submitErr = ErrServiceClosed
				return
			}
			select {
			case <-abort:
				return
			default:
			}
			ann := &anns[i]
			wg.Add(1)
			job := func() {
				defer wg.Done()
				err := ctx.Err()
				var v *core.Verdict
				if err == nil {
					v, err = s.verifyRegistered(ctx, ann.InventorID, ann.Format, ann.Game, ann.Advice, ann.Proof, true)
				}
				r := streamResult{}
				switch {
				case err == nil:
					r.sv = StreamVerdict{Index: i, Verdict: *v}
					if attach != nil {
						r.sv.Certificate = attach(ann)
					}
				case isContextError(err) || errors.Is(err, ErrServiceClosed):
					r.err = err
				default:
					r.sv = StreamVerdict{Index: i, Verdict: core.Verdict{Format: ann.Format, Reason: err.Error()}}
				}
				results <- r
			}
			select {
			case s.jobs <- job:
			case <-ctx.Done():
				wg.Done()
				submitErr = ctx.Err()
				return
			case <-abort:
				wg.Done()
				return
			}
		}
	}()

	for r := range results {
		switch {
		case r.err != nil:
			if cause == nil {
				cause = r.err
			}
		case deliverErr == nil:
			if deliverErr = deliver(r.sv); deliverErr != nil {
				close(abort)
			}
		} // after a deliver error: drain, so no worker blocks on a dead consumer
	}
	if cause == nil {
		cause = submitErr
	}
	return cause, deliverErr
}

// cachedCertificate fetches an announcement's quorum certificate from
// the verdict cache, if one is attached; best-effort — a certificate
// that fails to decode is simply omitted from the stream frame.
func (s *Service) cachedCertificate(ann *core.Announcement) *core.Certificate {
	key := identity.DigestBytes([]byte(ann.Format), ann.Game, ann.Advice, ann.Proof)
	raw, ok := s.cache.Cert(key)
	if !ok {
		return nil
	}
	cert, err := core.DecodeCertificate(raw)
	if err != nil {
		return nil
	}
	return cert
}

// Streams implements transport.StreamHandler: only the verify-stream
// exchange is served as a frame stream.
func (s *Service) Streams(msgType string) bool { return msgType == MsgVerifyStream }

// HandleStream implements transport.StreamHandler for MsgVerifyStream:
// it decodes the batch, runs VerifyStream with each verdict sent as one
// MsgStreamVerdict frame, and returns the MsgStreamTrailer frame the
// transport marks terminal.
func (s *Service) HandleStream(ctx context.Context, req transport.Message, send func(transport.Message) error) (transport.Message, error) {
	if req.Type != MsgVerifyStream {
		return transport.Message{}, fmt.Errorf("service: cannot stream %q", req.Type)
	}
	// The whole batch is decoded before the first item is submitted: a
	// submitter that decodes between submits is slower than the workers,
	// which then park and unpark per item.
	anns, err := decodeBatch(req)
	if err != nil {
		return transport.Message{}, err
	}
	trailer, err := s.VerifyStream(ctx, anns, func(sv StreamVerdict) error {
		payload, err := sv.appendJSON(make([]byte, 0, replyBufferSize))
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
