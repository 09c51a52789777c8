package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"gaussrange/internal/gauss"
	"gaussrange/internal/stats"
	"gaussrange/internal/vecmat"
)

// tierSum returns how many candidates the tier pipeline decided.
func tierSum(st PhaseStats) int {
	return st.TierBF + st.TierEnvelope + st.TierExact + st.TierMC
}

// TestTieredPropertyIdentity is the tiered kernel's agreement property test:
// across random (Σ, δ, θ, seed) plans in d ∈ {2, 3, 5}, the tiered answer set
// must equal shared-flat's and shared-early's everywhere the exact
// qualification probability is farther from θ than the shared kernels' own
// sampling tolerance — the exact tiers may only out-decide the cloud on
// candidates Monte Carlo cannot certify either way.
func TestTieredPropertyIdentity(t *testing.T) {
	const samples = 5000
	rng := rand.New(rand.NewSource(61))
	sampleFree := 0
	for _, d := range []int{2, 3, 5} {
		ix := uniformIndex(t, rng, 3000, d, 100)
		for trial := 0; trial < 6; trial++ {
			center := make(vecmat.Vector, d)
			for j := range center {
				center[j] = 30 + 40*rng.Float64()
			}
			delta := 8 + 22*rng.Float64()
			theta := 0.01 + 0.39*rng.Float64()
			q := randomSPDQuery(t, rng, center, delta, theta)
			seed := rng.Uint64()

			exactEngine := newExactEngine(t, ix, Options{})
			var res [3]*Result
			for i, kernel := range []Phase3Kernel{KernelSharedFlat, KernelSharedEarly, KernelTiered} {
				r, err := sharedEngine(t, ix, kernel, samples, seed).Search(q, StrategyAll)
				if err != nil {
					t.Fatalf("d=%d trial=%d %v: %v", d, trial, kernel, err)
				}
				res[i] = r
			}
			st := res[2].Stats
			if got, want := tierSum(st), st.Integrations; got != want {
				t.Errorf("d=%d trial=%d: tier counters sum to %d, want Integrations=%d", d, trial, got, want)
			}
			sampleFree += st.TierBF + st.TierEnvelope + st.TierExact

			// 6σ of the shared kernels' binomial proportion at this (θ, n).
			tol := 6*math.Sqrt(theta*(1-theta)/float64(samples)) + 1e-9
			flat := removeBoundary(t, exactEngine, q, res[0].IDs, tol)
			early := removeBoundary(t, exactEngine, q, res[1].IDs, tol)
			tiered := removeBoundary(t, exactEngine, q, res[2].IDs, tol)
			if !idsEqual(flat, tiered) || !idsEqual(early, tiered) {
				t.Errorf("d=%d trial=%d (δ=%.3f θ=%v seed=%d): tiered disagrees beyond MC tolerance\n  flat   %v\n  early  %v\n  tiered %v",
					d, trial, delta, theta, seed, flat, early, tiered)
			}
		}
	}
	if sampleFree == 0 {
		t.Error("no candidate closed at tiers 0–2 across all trials — the exact tiers never engaged")
	}
}

// TestTieredEnvelopeBracketsExact is the bracket-correctness property: the
// tier-1 noncentral-χ² envelope must always contain the Ruben exact value,
// for random well-conditioned Σ and candidate positions.
func TestTieredEnvelopeBracketsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	ev := NewExactEvaluator()
	for _, d := range []int{2, 3, 5} {
		for trial := 0; trial < 40; trial++ {
			center := make(vecmat.Vector, d)
			for j := range center {
				center[j] = 100 * rng.Float64()
			}
			delta := 5 + 30*rng.Float64()
			q := randomSPDQuery(t, rng, center, delta, 0.1)

			o := make(vecmat.Vector, d)
			for j := range o {
				o[j] = center[j] + 40*(rng.Float64()-0.5)
			}

			lambda := q.Dist.EigenValuesCov()
			lamMin, lamMax := lambda[0], lambda[0]
			for _, l := range lambda[1:] {
				lamMin = math.Min(lamMin, l)
				lamMax = math.Max(lamMax, l)
			}
			scratch := make(vecmat.Vector, d)
			y := make(vecmat.Vector, d)
			q.Dist.TransformToEigen(o, scratch, y)
			var nc float64
			for j, yj := range y {
				nc += yj * yj / lambda[j]
			}
			dsq := delta * delta
			pLow, err := stats.NoncentralChiSquareCDF(float64(d), nc, dsq/lamMax)
			if err != nil {
				t.Fatal(err)
			}
			pHigh, err := stats.NoncentralChiSquareCDF(float64(d), nc, dsq/lamMin)
			if err != nil {
				t.Fatal(err)
			}
			p, err := ev.Qualification(q.Dist, o, delta)
			if err != nil {
				t.Fatal(err)
			}
			if p < pLow-1e-9 || p > pHigh+1e-9 {
				t.Errorf("d=%d trial=%d: exact %g outside envelope [%g, %g]", d, trial, p, pLow, pHigh)
			}
		}
	}
}

// TestTieredWorkerInvariance: answers AND the full tier accounting must be
// identical for every worker count — the tiers are pure per-candidate
// functions, so not even the counters may drift.
func TestTieredWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	ix := uniformIndex(t, rng, 4000, 2, 1000)
	e := sharedEngine(t, ix, KernelTiered, 20000, 9)
	q := paperQuery(t, vecmat.Vector{500, 500}, 10, 25, 0.02)

	plan, err := e.Compile(q, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Tier() == nil {
		t.Fatal("tiered kernel compiled without a tier evaluator")
	}
	if plan.Cloud() != nil {
		t.Fatal("tiered kernel drew a cloud at compile time — it must be lazy")
	}
	want, err := plan.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := tierSum(want.Stats); got != want.Stats.Integrations {
		t.Errorf("tier counters sum to %d, want Integrations=%d", got, want.Stats.Integrations)
	}
	for _, workers := range []int{1, 2, 4, 8, 1 << 20} {
		got, err := plan.ExecuteParallel(context.Background(), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !idsEqual(got.IDs, want.IDs) {
			t.Errorf("workers=%d: IDs differ from serial", workers)
		}
		g, w := got.Stats, want.Stats
		if g.TierBF != w.TierBF || g.TierEnvelope != w.TierEnvelope ||
			g.TierExact != w.TierExact || g.TierMC != w.TierMC ||
			g.SamplesTouched != w.SamplesTouched || g.SamplesDrawn != w.SamplesDrawn {
			t.Errorf("workers=%d: tier stats (bf=%d env=%d exact=%d mc=%d touched=%d drawn=%d) differ from serial (bf=%d env=%d exact=%d mc=%d touched=%d drawn=%d)",
				workers, g.TierBF, g.TierEnvelope, g.TierExact, g.TierMC, g.SamplesTouched, g.SamplesDrawn,
				w.TierBF, w.TierEnvelope, w.TierExact, w.TierMC, w.SamplesTouched, w.SamplesDrawn)
		}
	}
}

// TestTieredSeedIndependent: when the exact tiers close every candidate, the
// answer is a pure function of the query — engines seeded differently must
// agree exactly, and no samples may be drawn or touched.
func TestTieredSeedIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	ix := uniformIndex(t, rng, 4000, 2, 1000)
	q := paperQuery(t, vecmat.Vector{500, 500}, 10, 25, 0.02)

	a, err := sharedEngine(t, ix, KernelTiered, 20000, 1).Search(q, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sharedEngine(t, ix, KernelTiered, 20000, 424242).Search(q, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.TierMC != 0 {
		t.Skipf("MC fallback fired on the paper workload (%d candidates) — seed independence not expected", a.Stats.TierMC)
	}
	if a.Stats.SamplesDrawn != 0 || a.Stats.SamplesTouched != 0 {
		t.Errorf("sample-free run drew %d / touched %d samples", a.Stats.SamplesDrawn, a.Stats.SamplesTouched)
	}
	if !idsEqual(a.IDs, b.IDs) {
		t.Errorf("seed changed the tiered answer set: %v vs %v", a.IDs, b.IDs)
	}
}

// TestTieredRebindSharesEvaluator: the tier evaluator is mean-independent, so
// a rebound plan must share it (and with it the lazily drawn tier-3 cloud)
// while answering exactly like a fresh compile at the new center.
func TestTieredRebindSharesEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	ix := uniformIndex(t, rng, 4000, 2, 1000)
	e := sharedEngine(t, ix, KernelTiered, 20000, 9)
	q := paperQuery(t, vecmat.Vector{500, 500}, 10, 25, 0.02)

	plan, err := e.Compile(q, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := gauss.New(vecmat.Vector{350, 640}, q.Dist.Cov())
	if err != nil {
		t.Fatal(err)
	}
	rebound, err := plan.Rebind(g2)
	if err != nil {
		t.Fatal(err)
	}
	if rebound.Tier() != plan.Tier() {
		t.Error("rebound plan rebuilt the tier evaluator")
	}
	got, err := rebound.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Search(Query{Dist: g2, Delta: q.Delta, Theta: q.Theta}, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	if !idsEqual(got.IDs, want.IDs) {
		t.Errorf("rebound plan IDs %v != fresh compile IDs %v", got.IDs, want.IDs)
	}
}

// illConditionedQuery builds a 2-D query whose Σ eigenvalue ratio exceeds
// tierMaxCondition, routing undecided candidates straight to the MC tier.
func illConditionedQuery(t testing.TB, center vecmat.Vector, delta, theta float64) Query {
	t.Helper()
	g, err := gauss.New(center, vecmat.MustFromRows([][]float64{
		{10000, 0},
		{0, 1},
	}))
	if err != nil {
		t.Fatal(err)
	}
	return Query{Dist: g, Delta: delta, Theta: theta}
}

// TestTieredIllConditionedFallsBack: with λmax/λmin ≫ tierMaxCondition the
// exact tier is skipped, the envelope cannot close boundary candidates, and
// the MC fallback must draw its lazy cloud and decide them — still agreeing
// with the shared-early kernel on the same seed.
func TestTieredIllConditionedFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	ix := uniformIndex(t, rng, 4000, 2, 1000)
	const samples = 20000
	q := illConditionedQuery(t, vecmat.Vector{500, 500}, 50, 0.1)

	tiered, err := sharedEngine(t, ix, KernelTiered, samples, 9).Search(q, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	if tiered.Stats.TierMC == 0 {
		t.Fatal("ill-conditioned Σ never reached the MC tier — fallback not exercised")
	}
	if tiered.Stats.SamplesDrawn != samples {
		t.Errorf("SamplesDrawn = %d, want lazy cloud of %d once tier 3 fires", tiered.Stats.SamplesDrawn, samples)
	}
	if tiered.Stats.SamplesTouched == 0 {
		t.Error("MC tier decided candidates without touching samples")
	}
	early, err := sharedEngine(t, ix, KernelSharedEarly, samples, 9).Search(q, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	// The exact tiers only close candidates certifiably beyond θ; MC-tier
	// decisions use the same cloud construction and threshold as
	// shared-early, so full agreement is expected away from the boundary.
	exactEngine := newExactEngine(t, ix, Options{})
	tol := 6*math.Sqrt(0.1*0.9/float64(samples)) + 1e-9
	a := removeBoundary(t, exactEngine, q, tiered.IDs, tol)
	b := removeBoundary(t, exactEngine, q, early.IDs, tol)
	if !idsEqual(a, b) {
		t.Errorf("tiered %v != shared-early %v beyond MC tolerance", a, b)
	}
}

// TestTieredParallelStatsCompleteOnCancel: a cancelled tiered query must
// still fold every flushed worker's tier counters — the sum of the four tier
// counts equals the number of decided candidates, so it can never exceed the
// candidate count, and some cancelled run must surface a partial-but-nonzero
// mix (proving the LIFO flush ran on the cancellation path).
func TestTieredParallelStatsCompleteOnCancel(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	ix := uniformIndex(t, rng, 5000, 2, 1000)
	e := sharedEngine(t, ix, KernelTiered, 20000, 9)
	// Ill-conditioned Σ with a permissive θ keeps thousands of candidates in
	// flight and routes boundary ones through the slower MC tier.
	q := illConditionedQuery(t, vecmat.Vector{500, 500}, 100, 0.001)
	plan, err := e.Compile(q, StrategyRR)
	if err != nil {
		t.Fatal(err)
	}
	snap, base, accepted, needEval, err := plan.filterPhases(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(needEval) < 500 {
		t.Fatalf("test needs many candidates, got %d", len(needEval))
	}

	observed := false
	for attempt := 0; attempt < 100 && !observed; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(500 * time.Microsecond)
			cancel()
		}()
		st := base
		res, err := plan.executeTieredParallel(ctx, snap, &st, accepted, needEval, 4)
		cancel()
		if got := tierSum(st); got > len(needEval) {
			t.Fatalf("torn accounting: %d tier decisions exceed %d candidates", got, len(needEval))
		}
		if err != nil {
			if res != nil {
				t.Fatal("cancelled execution returned a result alongside the error")
			}
			if s := tierSum(st); s > 0 && s < len(needEval) {
				observed = true
			}
		}
	}
	if !observed {
		t.Error("no cancelled run reported partial-but-complete tier counters; worker flushes are being dropped")
	}
}

// TestTieredEmptyPlan: a compile-time-empty plan must not build tier state
// that would draw a cloud, and must answer empty.
func TestTieredEmptyPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(68))
	ix := uniformIndex(t, rng, 500, 2, 1000)
	e := sharedEngine(t, ix, KernelTiered, 20000, 9)
	q := paperQuery(t, vecmat.Vector{500, 500}, 100, 1, 0.9)
	plan, err := e.Compile(q, StrategyBF)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Empty() {
		t.Skip("plan not proven empty under these parameters")
	}
	if plan.Tier() != nil {
		t.Error("empty plan built a tier evaluator")
	}
	res, err := plan.Execute(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IDs) != 0 {
		t.Errorf("empty plan returned %d ids", len(res.IDs))
	}
}

// TestTieredExtremeConditionBounded: Σ = diag(1e9, 1e-9) puts the far point's
// squared Mahalanobis offset at ≈1e9, where the noncentral-χ² envelope
// either sweeps ≈1e6 recurrence steps or reports that it cannot evaluate.
// The query must come back — answered, or with a typed error — within its
// deadline plus a second, never hang in tier 1.
func TestTieredExtremeConditionBounded(t *testing.T) {
	ix, err := NewIndex([]vecmat.Vector{{0, 0}, {1, 1}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := gauss.New(vecmat.Vector{0, 0}, vecmat.MustFromRows([][]float64{{1e9, 0}, {0, 1e-9}}))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Dist: g, Delta: 1, Theta: 0.01}
	e := sharedEngine(t, ix, KernelTiered, 20000, 9)

	const deadline = 3 * time.Second
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		plan, err := e.Compile(q, StrategyAll)
		if err != nil {
			done <- outcome{nil, err}
			return
		}
		res, err := plan.ExecuteParallel(ctx, 1)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Logf("typed error after %v: %v", time.Since(start), o.err)
		} else if tierSum(o.res.Stats) != o.res.Stats.Integrations {
			t.Errorf("tier counters %+v do not sum to %d integrations", o.res.Stats, o.res.Stats.Integrations)
		}
	case <-time.After(deadline + time.Second):
		t.Fatalf("tiered query still running %v past its %v deadline", time.Second, deadline)
	}
}
