package rationality

// One benchmark per paper artifact (the E-numbers index the experiments
// table in cmd/experiments/main.go):
//
//	BenchmarkFig7PerM          E1  Fig. 7 — one full iteration (greedy +
//	                               inventor) per link count
//	BenchmarkParticipation     E2  §5 — equilibrium solve and verify
//	BenchmarkOnlineParticipation E3 §5 online — exact expected-gain analysis
//	BenchmarkP1Verifier        E4  Lemma 1 — P1 verification per game size
//	BenchmarkP1Prover          E4  Lemma 1 — the prover's support enumeration
//	BenchmarkP2Verifier        E5  Remark 3 — P2 private verification per
//	                               hidden-support size
//	BenchmarkFig6              E6  the diamond-network scenario
//	BenchmarkEnumerationProof  E7  §3 — proof build + check per profile count
//	BenchmarkGreedyVsOPT       E8  Lemma 2 — greedy schedule vs exact OPT
//
// Run: go test -bench=. -benchmem

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"

	"rationality/internal/bimatrix"
	"rationality/internal/congestion"
	"rationality/internal/core"
	"rationality/internal/game"
	"rationality/internal/interactive"
	"rationality/internal/links"
	"rationality/internal/numeric"
	"rationality/internal/participation"
	"rationality/internal/proof"
	"rationality/internal/quorum"
	"rationality/internal/reputation"
	"rationality/internal/service"
	"rationality/internal/transport"
)

// E1 — Fig. 7: cost of one simulation iteration per link count.
func BenchmarkFig7PerM(b *testing.B) {
	for _, m := range []int{2, 42, 192, 500} {
		b.Run(fmt.Sprintf("links=%d", m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			loads := links.UniformLoads(rng, 1000, 1000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				greedy, err := links.Run(m, loads, links.Greedy{})
				if err != nil {
					b.Fatal(err)
				}
				inventor, err := links.Run(m, loads, links.Inventor{})
				if err != nil {
					b.Fatal(err)
				}
				if greedy.Makespan() == 0 || inventor.Makespan() == 0 {
					b.Fatal("degenerate makespan")
				}
			}
		})
	}
}

// E2 — §5: the inventor's solve and the agent's verification.
func BenchmarkParticipation(b *testing.B) {
	g := participation.MustNew(3, 2, numeric.I(8), numeric.I(3))
	b.Run("solve-exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := g.SolveExact(participation.LowBranch, 64); !ok {
				b.Fatal("no root")
			}
		}
	})
	b.Run("solve-bisect", func(b *testing.B) {
		tol := numeric.R(1, 1<<20)
		for i := 0; i < b.N; i++ {
			if _, _, err := g.Solve(participation.LowBranch, tol); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("verify", func(b *testing.B) {
		p := numeric.R(1, 4)
		for i := 0; i < b.N; i++ {
			if _, err := g.VerifyAdvice(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Larger n: verification stays cheap. (The fee must sit below the peak
	// pivot value v·(1−1/(n−1))^{n−2} ≈ v/e for an interior equilibrium to
	// exist at n = 50, so use c = v/8.)
	big := participation.MustNew(50, 2, numeric.I(8), numeric.I(1))
	b.Run("verify-n50", func(b *testing.B) {
		p, _, err := big.Solve(participation.LowBranch, numeric.R(1, 1<<24))
		if err != nil {
			b.Fatal(err)
		}
		tol := numeric.R(1, 1024)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := big.VerifyAdviceApprox(p, tol); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// E3 — §5 online: the exact expected-gain analysis.
func BenchmarkOnlineParticipation(b *testing.B) {
	for _, n := range []int{3, 8, 12} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := participation.MustNew(n, 2, numeric.I(8), numeric.I(3))
			p := numeric.R(1, 4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.AnalyzeOnline(p, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// hideAndSeek builds the diagonal zero-sum game with the unique fully mixed
// equilibrium (see cmd/experiments): the P1 scaling instance.
func hideAndSeek(n int) (*bimatrix.Game, *interactive.P1Advice) {
	a := make([][]int64, n)
	bm := make([][]int64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]int64, n)
		bm[i] = make([]int64, n)
		a[i][i] = int64(i + 1)
		bm[i][i] = -int64(i + 1)
	}
	g := bimatrix.FromInts(a, bm)
	full := make([]int, n)
	for i := range full {
		full[i] = i
	}
	return g, &interactive.P1Advice{RowSupport: full, ColSupport: full, Rows: n, Cols: n}
}

// E4 — Lemma 1: polynomial verification...
func BenchmarkP1Verifier(b *testing.B) {
	for _, n := range []int{2, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g, advice := hideAndSeek(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := interactive.VerifyP1(g, advice); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ... versus the prover's exponential support enumeration.
func BenchmarkP1Prover(b *testing.B) {
	for _, n := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g, _ := hideAndSeek(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.FindEquilibrium(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E5 — Remark 3: P2 queries vs hidden-support size (n = 32 columns).
func BenchmarkP2Verifier(b *testing.B) {
	const n = 32
	for _, s := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("support=%d", s), func(b *testing.B) {
			a := make([][]int64, n)
			bm := make([][]int64, n)
			for i := 0; i < n; i++ {
				a[i] = make([]int64, n)
				bm[i] = make([]int64, n)
			}
			for i := 0; i < s; i++ {
				a[i][i], bm[i][i] = 1, 1
			}
			g := bimatrix.FromInts(a, bm)
			x := numeric.NewVec(n)
			y := numeric.NewVec(n)
			for i := 0; i < s; i++ {
				x.SetAt(i, numeric.R(1, int64(s)))
				y.SetAt(i, numeric.R(1, int64(s)))
			}
			eq := &bimatrix.Equilibrium{
				Profile:   bimatrix.Profile{X: x, Y: y},
				LambdaRow: numeric.R(1, int64(s)),
				LambdaCol: numeric.R(1, int64(s)),
			}
			prover, err := interactive.NewHonestProver(g, eq, rand.New(rand.NewSource(11)))
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(13))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := interactive.VerifyP2(g, interactive.RowAgent, prover,
					interactive.P2Config{Rng: rng}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E6 — Fig. 6: the diamond-network scenario end to end.
func BenchmarkFig6(b *testing.B) {
	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := congestion.BuildFig6(k)
				if err != nil {
					b.Fatal(err)
				}
				if res.GreedyFinalDelay.Sign() <= 0 {
					b.Fatal("degenerate result")
				}
			}
		})
	}
}

// E7 — §3: enumeration-proof build and check per profile-space size.
func BenchmarkEnumerationProof(b *testing.B) {
	shapes := []struct {
		name   string
		counts []int
	}{
		{"2x2", []int{2, 2}},
		{"2x8", []int{8, 8}},
		{"3x4", []int{4, 4, 4}},
		{"2x32", []int{32, 32}},
	}
	for _, shape := range shapes {
		rng := rand.New(rand.NewSource(17))
		var g *game.Game
		var pf *proof.Proof
		for {
			g = game.RandomGame("r", shape.counts, 8, rng.Int63n)
			var err error
			if pf, err = proof.BuildBestAdvice(g, proof.MaxNash); err == nil {
				break
			}
		}
		b.Run("build/"+shape.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := proof.Build(g, pf.Advised, proof.MaxNash); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("check/"+shape.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := proof.Check(g, pf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E8 — Lemma 2: greedy scheduling vs the exact-OPT branch and bound.
func BenchmarkGreedyVsOPT(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	loads := links.UniformLoads(rng, 12, 100)
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := links.Run(3, loads, links.Greedy{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exact-opt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := links.OptimalMakespan(3, loads); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation (DESIGN.md: §6's two statistics models) — the inventor with a
// dynamically updated average vs. the inventor with prior knowledge of the
// load distribution, vs. greedy, on the Fig. 7 workload.
func BenchmarkAblationStatistics(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	loads := links.UniformLoads(rng, 1000, 1000)
	const m = 100
	choosers := map[string]links.Chooser{
		"greedy":           links.Greedy{},
		"inventor-dynamic": links.Inventor{},
		"inventor-prior":   links.NewUniformPrior(1000),
	}
	for name, c := range choosers {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := links.Run(m, loads, c)
				if err != nil {
					b.Fatal(err)
				}
				if s.Makespan() == 0 {
					b.Fatal("degenerate")
				}
			}
		})
	}
}

// The end-to-end framework round trip, for the README's performance note.
func BenchmarkConsultationRoundTrip(b *testing.B) {
	ann, err := core.AnnounceEnumeration("inventor", game.PrisonersDilemma(), proof.MaxNash)
	if err != nil {
		b.Fatal(err)
	}
	// Caching off: every round runs the procedure, as a lone agent's
	// consultation of a fresh announcement would.
	var members []quorum.Member
	for _, id := range []string{"v1", "v2", "v3"} {
		vs, err := service.New(service.Config{ID: id, CacheSize: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer vs.Close()
		members = append(members, quorum.Member{ID: id, Client: transport.DialInProc(vs)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := consult(b, ann, members, reputation.NewRegistry())
		if err != nil {
			b.Fatal(err)
		}
		if !res.Accepted {
			b.Fatal("rejected")
		}
	}
}

// --- Service layer (internal/service): cold vs cached vs batched ---
//
// The service benchmarks use 64 content-distinct announcements per
// procedure so the cold and batch paths cannot hit the cache, and one
// repeated announcement for the cached path. The cached numbers should sit
// well below cold: a hit skips the procedure entirely.

func serviceEnumAnnouncements(b *testing.B, n int) []core.Announcement {
	b.Helper()
	anns := make([]core.Announcement, n)
	for i := range anns {
		g, err := game.New(fmt.Sprintf("pd-%d", i), []int{2, 2})
		if err != nil {
			b.Fatal(err)
		}
		g.SetPayoffs(game.Profile{0, 0}, numeric.I(3), numeric.I(3))
		g.SetPayoffs(game.Profile{0, 1}, numeric.I(0), numeric.I(5))
		g.SetPayoffs(game.Profile{1, 0}, numeric.I(5), numeric.I(0))
		g.SetPayoffs(game.Profile{1, 1}, numeric.I(1), numeric.I(1))
		ann, err := core.AnnounceEnumeration("bench-inventor", g, proof.MaxNash)
		if err != nil {
			b.Fatal(err)
		}
		anns[i] = ann
	}
	return anns
}

func serviceP1Announcements(b *testing.B, n int) []core.Announcement {
	b.Helper()
	g := bimatrix.FromInts(
		[][]int64{{1, -1}, {-1, 1}},
		[][]int64{{-1, 1}, {1, -1}},
	)
	anns := make([]core.Announcement, n)
	for i := range anns {
		ann, err := core.AnnounceP1("bench-inventor", fmt.Sprintf("mp-%d", i), g)
		if err != nil {
			b.Fatal(err)
		}
		anns[i] = ann
	}
	return anns
}

func BenchmarkServiceVerification(b *testing.B) {
	ctx := context.Background()
	const distinct = 64
	kinds := []struct {
		name string
		anns []core.Announcement
	}{
		{"enumeration", serviceEnumAnnouncements(b, distinct)},
		{"p1", serviceP1Announcements(b, distinct)},
	}
	for _, k := range kinds {
		// Cold: caching disabled, every verification runs the procedure.
		b.Run("cold/"+k.name, func(b *testing.B) {
			svc, err := service.New(service.Config{ID: "bench", CacheSize: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.VerifyAnnouncement(ctx, k.anns[i%distinct]); err != nil {
					b.Fatal(err)
				}
			}
		})
		// Cached: one warmed entry served repeatedly.
		b.Run("cached/"+k.name, func(b *testing.B) {
			svc, err := service.New(service.Config{ID: "bench"})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			if _, err := svc.VerifyAnnouncement(ctx, k.anns[0]); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := svc.VerifyAnnouncement(ctx, k.anns[0]); err != nil {
					b.Fatal(err)
				}
			}
		})
		// Batched: all 64 distinct announcements fanned across the pool in
		// one call; caching disabled so every item costs a real verification.
		b.Run("batch/"+k.name, func(b *testing.B) {
			svc, err := service.New(service.Config{ID: "bench", CacheSize: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr, err := svc.VerifyStream(ctx, k.anns, discardVerdict)
				if err != nil {
					b.Fatal(err)
				}
				if tr.Accepted != distinct {
					b.Fatalf("trailer = %+v, want all %d accepted", tr, distinct)
				}
			}
			b.ReportMetric(float64(b.N*distinct)/b.Elapsed().Seconds(), "verifications/s")
		})
	}
}

// --- Service hot path under parallelism (ISSUE 2) ---
//
// The parallel service benchmarks isolate the service layer itself: the
// procedure is a no-op, so ns/op is dominated by the cache, metrics and
// dispatch machinery. Each benchmark runs at GOMAXPROCS 1, 4 and 8 so the
// scaling (or the lack of it, under a single global mutex) is visible in
// one table. Hit-heavy models a popular announcement, miss-heavy a stream
// of fresh content, mixed a 90/10 blend, and batched the verify-stream
// path.

// nopProcedure accepts every input without doing any work.
type nopProcedure struct{}

func (nopProcedure) Format() string { return "bench-nop/v1" }

func (nopProcedure) Verify(_, _, _ json.RawMessage) (*core.Verdict, error) {
	return &core.Verdict{Accepted: true, Format: "bench-nop/v1",
		Details: map[string]string{"kind": "nop"}}, nil
}

// nopProcedures is the built-in procedure registry plus nopProcedure.
func nopProcedures() *core.ProcedureRegistry {
	procs := core.NewProcedureRegistry()
	procs.Register(nopProcedure{})
	return procs
}

func nopAnnouncement(n uint64) core.Announcement {
	return core.Announcement{
		InventorID: "bench-inventor",
		Format:     "bench-nop/v1",
		Game:       json.RawMessage(fmt.Sprintf(`{"n":%d}`, n)),
		Advice:     json.RawMessage(`{}`),
	}
}

// benchParallelProcs runs fn under b.RunParallel at several GOMAXPROCS
// settings, restoring the previous value afterwards.
func benchParallelProcs(b *testing.B, setup func(b *testing.B) (*service.Service, func(pb *testing.PB))) {
	for _, procs := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			svc, body := setup(b)
			defer svc.Close()
			b.ResetTimer()
			b.RunParallel(body)
		})
	}
}

// BenchmarkServiceCached is the pure cache-hit path: one warmed entry
// served concurrently — the acceptance benchmark for the sharded cache.
// BENCH_service.json records the baseline: on the 1-CPU reference
// container the lock-free path measured ~1.1x (~1.25x under paired
// GOGC=1000 runs) over the single-mutex implementation at GOMAXPROCS=8
// and stays nearly flat as parallelism grows; re-validate the larger
// multicore separation on real multicore hardware.
func BenchmarkServiceCached(b *testing.B) {
	ctx := context.Background()
	benchParallelProcs(b, func(b *testing.B) (*service.Service, func(pb *testing.PB)) {
		svc, err := service.New(service.Config{ID: "bench", Procedures: nopProcedures()})
		if err != nil {
			b.Fatal(err)
		}
		ann := nopAnnouncement(0)
		if _, err := svc.VerifyAnnouncement(ctx, ann); err != nil {
			b.Fatal(err)
		}
		return svc, func(pb *testing.PB) {
			for pb.Next() {
				if _, err := svc.VerifyAnnouncement(ctx, ann); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
}

// BenchmarkServiceCachedPersist is BenchmarkServiceCached with the
// durable verdict store enabled: the acceptance benchmark for ISSUE 3's
// "persistence never touches the hit path" claim. A cache hit reads the
// sharded cache and never reaches the store, so ns/op must match the
// non-persistent cached benchmark within noise.
func BenchmarkServiceCachedPersist(b *testing.B) {
	ctx := context.Background()
	benchParallelProcs(b, func(b *testing.B) (*service.Service, func(pb *testing.PB)) {
		svc, err := service.New(service.Config{ID: "bench", PersistPath: b.TempDir(), Procedures: nopProcedures()})
		if err != nil {
			b.Fatal(err)
		}
		ann := nopAnnouncement(0)
		if _, err := svc.VerifyAnnouncement(ctx, ann); err != nil {
			b.Fatal(err)
		}
		return svc, func(pb *testing.PB) {
			for pb.Next() {
				if _, err := svc.VerifyAnnouncement(ctx, ann); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
}

// BenchmarkServiceMissPersist streams fresh content through a persistent
// service: each miss costs one extra non-blocking channel send (the
// flusher does the framing and the syscalls off-path), so the gap to
// BenchmarkServiceMissHeavy bounds the store's verify-path overhead.
func BenchmarkServiceMissPersist(b *testing.B) {
	ctx := context.Background()
	var seq atomic.Uint64
	benchParallelProcs(b, func(b *testing.B) (*service.Service, func(pb *testing.PB)) {
		svc, err := service.New(service.Config{ID: "bench", CacheSize: 1024, PersistPath: b.TempDir(), Procedures: nopProcedures()})
		if err != nil {
			b.Fatal(err)
		}
		return svc, func(pb *testing.PB) {
			for pb.Next() {
				ann := nopAnnouncement(seq.Add(1))
				if _, err := svc.VerifyAnnouncement(ctx, ann); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
}

// BenchmarkServiceMissHeavy streams fresh content: every request is a
// cache miss that runs the (no-op) procedure and inserts its verdict.
func BenchmarkServiceMissHeavy(b *testing.B) {
	ctx := context.Background()
	var seq atomic.Uint64
	benchParallelProcs(b, func(b *testing.B) (*service.Service, func(pb *testing.PB)) {
		svc, err := service.New(service.Config{ID: "bench", CacheSize: 1024, Procedures: nopProcedures()})
		if err != nil {
			b.Fatal(err)
		}
		return svc, func(pb *testing.PB) {
			for pb.Next() {
				ann := nopAnnouncement(seq.Add(1))
				if _, err := svc.VerifyAnnouncement(ctx, ann); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
}

// BenchmarkServiceMixed blends 90% repeats of a hot announcement with 10%
// fresh content — the shape of real verification traffic.
func BenchmarkServiceMixed(b *testing.B) {
	ctx := context.Background()
	var seq atomic.Uint64
	benchParallelProcs(b, func(b *testing.B) (*service.Service, func(pb *testing.PB)) {
		svc, err := service.New(service.Config{ID: "bench", CacheSize: 1024, Procedures: nopProcedures()})
		if err != nil {
			b.Fatal(err)
		}
		hot := nopAnnouncement(0)
		if _, err := svc.VerifyAnnouncement(ctx, hot); err != nil {
			b.Fatal(err)
		}
		return svc, func(pb *testing.PB) {
			for pb.Next() {
				n := seq.Add(1)
				ann := hot
				if n%10 == 0 {
					ann = nopAnnouncement(n)
				}
				if _, err := svc.VerifyAnnouncement(ctx, ann); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
}

// discardVerdict is a VerifyStream emit for benchmarks that read only
// the trailer.
func discardVerdict(service.StreamVerdict) error { return nil }

// BenchmarkServiceBatched fans 16-item streams of warmed announcements
// through the service concurrently: the verify-stream hot path.
func BenchmarkServiceBatched(b *testing.B) {
	ctx := context.Background()
	const batchLen = 16
	benchParallelProcs(b, func(b *testing.B) (*service.Service, func(pb *testing.PB)) {
		svc, err := service.New(service.Config{ID: "bench", Procedures: nopProcedures()})
		if err != nil {
			b.Fatal(err)
		}
		anns := make([]core.Announcement, batchLen)
		for i := range anns {
			anns[i] = nopAnnouncement(uint64(i))
		}
		if _, err := svc.VerifyStream(ctx, anns, discardVerdict); err != nil {
			b.Fatal(err)
		}
		return svc, func(pb *testing.PB) {
			for pb.Next() {
				if _, err := svc.VerifyStream(ctx, anns, discardVerdict); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
}
