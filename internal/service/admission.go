package service

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// ErrAdmissionRejected is the sentinel every admission refusal wraps:
// errors.Is(err, ErrAdmissionRejected) detects a shed request, and the
// rendered message always starts with "admission rejected:" — the
// greppable prefix the operator docs and the CI smoke key on.
var ErrAdmissionRejected = errors.New("admission rejected")

// Class is an admission class: the tier a request is charged against.
type Class string

const (
	// ClassInteractive is the latency-sensitive tier: single Verify /
	// VerifyAnnouncement calls. When its own budget is empty it borrows
	// from the batch budget, so bulk capacity is sacrificed first.
	ClassInteractive Class = "interactive"
	// ClassBatch is the throughput tier: VerifyStream, whose batch of
	// announcements is charged one token per item. A whole batch is admitted or shed atomically — charging a partial
	// batch would let oversized batches starve the bucket while still
	// failing.
	ClassBatch Class = "batch"
)

// AdmissionConfig configures the two-tier admission controller. Budgets
// are token buckets denominated in verifications (items): an interactive
// call costs one token, a batch or stream costs one token per item, paid
// up front. A zero-value config disables admission control entirely —
// the service behaves exactly as before and Stats.Admission stays nil.
type AdmissionConfig struct {
	// InteractiveRate is the interactive tier's sustained budget in
	// verifications per second; zero or negative means unlimited.
	InteractiveRate float64
	// InteractiveBurst is the interactive bucket depth in verifications;
	// zero means twice the rate (minimum 1).
	InteractiveBurst int
	// BatchRate is the batch tier's sustained budget in verifications
	// per second; zero or negative means unlimited.
	BatchRate float64
	// BatchBurst is the batch bucket depth in verifications — the
	// largest batch that can ever be admitted at once; zero means twice
	// the rate (minimum 1).
	BatchBurst int
}

// enabled reports whether any tier carries a finite budget.
func (c AdmissionConfig) enabled() bool {
	return c.InteractiveRate > 0 || c.BatchRate > 0
}

// ClassAdmissionStats is one admission class's snapshot.
type ClassAdmissionStats struct {
	// Admitted counts requests the class let through; Shed counts
	// requests it refused. A batch counts once either way.
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	// ShedItems counts refused verifications: a shed batch of n items
	// adds n here, so CacheHits + CacheMisses + total ShedItems equals
	// the verifications offered to the service.
	ShedItems uint64 `json:"shedItems"`
	// Rate and Burst echo the configured budget (0 rate = unlimited).
	Rate  float64 `json:"rate"`
	Burst int     `json:"burst"`
}

// AdmissionStats is the admission controller's snapshot, per class.
type AdmissionStats struct {
	Interactive ClassAdmissionStats `json:"interactive"`
	Batch       ClassAdmissionStats `json:"batch"`
}

// tokenBucket is one class's refilling budget. Token arithmetic is
// float64 so fractional refill over short windows is not lost; the
// mutex is uncontended in practice (admission is one short critical
// section per request, not per item).
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket depth
	tokens float64
	last   time.Time
}

// newTokenBucket starts a bucket full: a fresh authority admits an
// initial burst instead of shedding its first seconds of traffic.
func newTokenBucket(rate float64, burst int) *tokenBucket {
	return &tokenBucket{rate: rate, burst: float64(burst), tokens: float64(burst), last: time.Now()}
}

// take refills for the elapsed time and takes n tokens if they fit.
func (b *tokenBucket) take(n float64, now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if elapsed := now.Sub(b.last).Seconds(); elapsed > 0 {
		b.tokens = math.Min(b.burst, b.tokens+elapsed*b.rate)
		b.last = now
	}
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// classCounters is one class's live admission counters.
type classCounters struct {
	admitted  atomic.Uint64
	shed      atomic.Uint64
	shedItems atomic.Uint64
}

// admissionController is the two-tier gate in front of the verification
// paths. Shed ordering is structural, not scheduled: the interactive
// tier borrows from the batch bucket when its own runs dry, so whenever
// both tiers compete for the same scarce tokens the batch class is the
// one that hits empty first.
type admissionController struct {
	cfg         AdmissionConfig
	interactive *tokenBucket // nil = unlimited
	batch       *tokenBucket // nil = unlimited

	interactiveStats classCounters
	batchStats       classCounters
}

// defaultBurst derives a bucket depth from a rate: twice the sustained
// budget, at least one token so a unit request can ever pass.
func defaultBurst(rate float64) int {
	b := int(math.Ceil(2 * rate))
	if b < 1 {
		b = 1
	}
	return b
}

// newAdmissionController builds the controller, or nil for a config with
// no finite budget.
func newAdmissionController(cfg AdmissionConfig) *admissionController {
	if !cfg.enabled() {
		return nil
	}
	a := &admissionController{cfg: cfg}
	if cfg.InteractiveRate > 0 {
		burst := cfg.InteractiveBurst
		if burst <= 0 {
			burst = defaultBurst(cfg.InteractiveRate)
		}
		a.cfg.InteractiveBurst = burst
		a.interactive = newTokenBucket(cfg.InteractiveRate, burst)
	}
	if cfg.BatchRate > 0 {
		burst := cfg.BatchBurst
		if burst <= 0 {
			burst = defaultBurst(cfg.BatchRate)
		}
		a.cfg.BatchBurst = burst
		a.batch = newTokenBucket(cfg.BatchRate, burst)
	}
	return a
}

// counters resolves a class's counter block.
func (a *admissionController) counters(class Class) *classCounters {
	if class == ClassBatch {
		return &a.batchStats
	}
	return &a.interactiveStats
}

// admit charges one request of `items` verifications against its class,
// or refuses it with an "admission rejected:" error. An unlimited class
// always admits (but still counts), and refusals never block: shedding
// is a synchronous verdict, not a queue.
func (a *admissionController) admit(class Class, items int) error {
	n := float64(items)
	now := time.Now()
	ok := true
	switch class {
	case ClassBatch:
		if a.batch != nil {
			ok = a.batch.take(n, now)
		}
	default: // interactive
		if a.interactive != nil {
			ok = a.interactive.take(n, now)
			if !ok && a.batch != nil {
				// Borrow from the batch budget: under saturation the bulk
				// tier's tokens drain into interactive traffic, so batches
				// shed strictly before any interactive request does.
				ok = a.batch.take(n, now)
			}
		}
	}
	c := a.counters(class)
	if !ok {
		c.shed.Add(1)
		c.shedItems.Add(uint64(items))
		rate, burst := a.budget(class)
		return fmt.Errorf("%w: %s class saturated (%d verification(s) over the %g/s budget, burst %d)",
			ErrAdmissionRejected, class, items, rate, burst)
	}
	c.admitted.Add(1)
	return nil
}

// budget reports a class's configured rate and burst.
func (a *admissionController) budget(class Class) (float64, int) {
	if class == ClassBatch {
		return a.cfg.BatchRate, a.cfg.BatchBurst
	}
	return a.cfg.InteractiveRate, a.cfg.InteractiveBurst
}

// snapshot assembles the AdmissionStats block for Stats().
func (a *admissionController) snapshot() *AdmissionStats {
	return &AdmissionStats{
		Interactive: ClassAdmissionStats{
			Admitted:  a.interactiveStats.admitted.Load(),
			Shed:      a.interactiveStats.shed.Load(),
			ShedItems: a.interactiveStats.shedItems.Load(),
			Rate:      a.cfg.InteractiveRate,
			Burst:     a.cfg.InteractiveBurst,
		},
		Batch: ClassAdmissionStats{
			Admitted:  a.batchStats.admitted.Load(),
			Shed:      a.batchStats.shed.Load(),
			ShedItems: a.batchStats.shedItems.Load(),
			Rate:      a.cfg.BatchRate,
			Burst:     a.cfg.BatchBurst,
		},
	}
}
