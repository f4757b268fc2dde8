package service

import (
	"context"
	"errors"
	"strings"
	"testing"

	"rationality/internal/core"
)

func TestAdmissionDisabledByDefault(t *testing.T) {
	s := newTestService(t, Config{})
	if _, err := s.VerifyAnnouncement(context.Background(), pdAnnouncement(t)); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if st := s.Stats(); st.Admission != nil {
		t.Fatalf("Stats.Admission = %+v, want nil without an AdmissionConfig", st.Admission)
	}
}

func TestAdmissionShedsWholeBatchOverBurst(t *testing.T) {
	s := newTestService(t, Config{Admission: AdmissionConfig{BatchRate: 1, BatchBurst: 10}})
	proc := &slowProc{format: "slow/v1"}
	s.Register(proc)

	over := make([]core.Announcement, 11)
	for i := range over {
		over[i] = annNumbered("slow/v1", i)
	}
	// Twice: a shed stream spends no tokens, so the second is judged
	// against the same full bucket.
	for range 2 {
		_, _, err := streamAll(context.Background(), s, over)
		if !errors.Is(err, ErrAdmissionRejected) {
			t.Fatalf("oversized stream err = %v, want ErrAdmissionRejected", err)
		}
		if !strings.HasPrefix(err.Error(), "admission rejected: batch class saturated") {
			t.Fatalf("err = %q, want the greppable 'admission rejected: batch class saturated' prefix", err)
		}
	}

	// A batch within the burst is admitted whole.
	within := over[:5]
	_, tr, err := streamAll(context.Background(), s, within)
	if err != nil {
		t.Fatalf("within-burst stream: %v", err)
	}
	if tr.Delivered != 5 || tr.Truncated {
		t.Fatalf("trailer = %+v, want all 5 delivered", tr)
	}

	st := s.Stats()
	adm := st.Admission
	if adm == nil {
		t.Fatal("Stats.Admission nil with a configured batch budget")
	}
	if adm.Batch.Shed != 2 || adm.Batch.ShedItems != 22 || adm.Batch.Admitted != 1 {
		t.Fatalf("batch counters = %+v, want shed=2 shedItems=22 admitted=1", adm.Batch)
	}
	// Shed batches never count as requests: the hit/miss partition keeps
	// covering exactly the admitted verifications.
	if st.Requests != 5 || st.CacheHits+st.CacheMisses != st.Requests {
		t.Fatalf("requests = %d (hits+misses = %d), want 5 admitted items only",
			st.Requests, st.CacheHits+st.CacheMisses)
	}
}

func TestAdmissionInteractiveBorrowsFromBatchFirst(t *testing.T) {
	s := newTestService(t, Config{Admission: AdmissionConfig{
		InteractiveRate: 0.001, InteractiveBurst: 1,
		BatchRate: 0.001, BatchBurst: 5,
	}})
	proc := &slowProc{format: "slow/v1"}
	s.Register(proc)

	// 6 interactive requests: 1 from the interactive bucket, then 5
	// borrowed from the batch budget — all admitted.
	for i := 0; i < 6; i++ {
		if _, err := s.VerifyAnnouncement(context.Background(), annNumbered("slow/v1", i)); err != nil {
			t.Fatalf("interactive %d: %v (interactive must drain the batch budget before shedding)", i, err)
		}
	}
	// The batch budget is now exhausted by the borrowing: a batch sheds
	// even though no batch ever ran — batch-first shedding is structural.
	_, _, err := streamAll(context.Background(), s, []core.Announcement{annNumbered("slow/v1", 100)})
	if !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("batch err = %v, want ErrAdmissionRejected after interactive borrowing", err)
	}
	// Only with both buckets empty does interactive shed.
	_, err = s.VerifyAnnouncement(context.Background(), annNumbered("slow/v1", 101))
	if !errors.Is(err, ErrAdmissionRejected) {
		t.Fatalf("interactive err = %v, want ErrAdmissionRejected once both budgets are dry", err)
	}
	if !strings.HasPrefix(err.Error(), "admission rejected: interactive class saturated") {
		t.Fatalf("err = %q, want the 'admission rejected: interactive class saturated' prefix", err)
	}

	adm := s.Stats().Admission
	if adm.Interactive.Admitted != 6 || adm.Interactive.Shed != 1 {
		t.Fatalf("interactive counters = %+v, want admitted=6 shed=1", adm.Interactive)
	}
	if adm.Batch.Shed != 1 || adm.Batch.ShedItems != 1 {
		t.Fatalf("batch counters = %+v, want shed=1 shedItems=1", adm.Batch)
	}
}

func TestAdmissionBurstDefaultsToTwiceRate(t *testing.T) {
	s := newTestService(t, Config{Admission: AdmissionConfig{BatchRate: 10}})
	adm := s.Stats().Admission
	if adm.Batch.Burst != 20 {
		t.Fatalf("default batch burst = %d, want 2x the rate = 20", adm.Batch.Burst)
	}
	if adm.Interactive.Rate != 0 || adm.Interactive.Burst != 0 {
		t.Fatalf("interactive budget = %+v, want unlimited (zero)", adm.Interactive)
	}
	// The unlimited interactive class still counts its traffic.
	proc := &slowProc{format: "slow/v1"}
	s.Register(proc)
	for i := 0; i < 3; i++ {
		if _, err := s.VerifyAnnouncement(context.Background(), annNumbered("slow/v1", i)); err != nil {
			t.Fatalf("interactive %d: %v", i, err)
		}
	}
	if got := s.Stats().Admission.Interactive.Admitted; got != 3 {
		t.Fatalf("interactive admitted = %d, want 3", got)
	}
}

func TestAdmissionErrorsDoNotDisturbVerdictCounters(t *testing.T) {
	s := newTestService(t, Config{Admission: AdmissionConfig{BatchRate: 1, BatchBurst: 1}})
	proc := &slowProc{format: "slow/v1"}
	s.Register(proc)
	anns := make([]core.Announcement, 8)
	for i := range anns {
		anns[i] = annNumbered("slow/v1", i)
	}
	for i := 0; i < 4; i++ {
		_, _, _ = streamAll(context.Background(), s, anns)
	}
	st := s.Stats()
	if st.Requests != 0 || st.Accepted != 0 || st.Rejected != 0 || st.Failures != 0 {
		t.Fatalf("shed batches leaked into verdict counters: %+v", st)
	}
	if st.Admission.Batch.Shed != 4 || st.Admission.Batch.ShedItems != 32 {
		t.Fatalf("batch counters = %+v, want shed=4 shedItems=32", st.Admission.Batch)
	}
	if st.Streams != 0 {
		t.Fatalf("Streams = %d, want 0 (a shed stream never started)", st.Streams)
	}
}
