package core

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"gaussrange/internal/gauss"
	"gaussrange/internal/mc"
	"gaussrange/internal/vecmat"
)

// TestCompileExecuteMatchesSearch checks that the compile → execute path
// returns exactly the Search answer set for every paper strategy.
func TestCompileExecuteMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ix := uniformIndex(t, rng, 3000, 2, 1000)
	e := newExactEngine(t, ix, Options{})
	q := paperQuery(t, vecmat.Vector{500, 500}, 10, 25, 0.05)

	for _, strat := range PaperStrategies {
		want, err := e.Search(q, strat)
		if err != nil {
			t.Fatalf("%v: Search: %v", strat, err)
		}
		plan, err := e.Compile(q, strat)
		if err != nil {
			t.Fatalf("%v: Compile: %v", strat, err)
		}
		got, err := plan.Execute(context.Background())
		if err != nil {
			t.Fatalf("%v: Execute: %v", strat, err)
		}
		if !idsEqual(got.IDs, want.IDs) {
			t.Errorf("%v: Execute IDs %v != Search IDs %v", strat, got.IDs, want.IDs)
		}
		// Plans are reusable: a second execution must agree.
		again, err := plan.Execute(context.Background())
		if err != nil {
			t.Fatalf("%v: re-Execute: %v", strat, err)
		}
		if !idsEqual(again.IDs, want.IDs) {
			t.Errorf("%v: second Execute diverged", strat)
		}
	}
}

// TestExecuteParallelWorkerCounts checks that the pooled executor returns the
// serial answer set at every worker count, including workers > candidates.
func TestExecuteParallelWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ix := uniformIndex(t, rng, 4000, 2, 1000)
	e := newExactEngine(t, ix, Options{})
	q := paperQuery(t, vecmat.Vector{500, 500}, 10, 25, 0.02)

	want, err := e.Search(q, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.Compile(q, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8, 1 << 20} {
		got, err := plan.ExecuteParallel(context.Background(), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !idsEqual(got.IDs, want.IDs) {
			t.Errorf("workers=%d: IDs differ from serial", workers)
		}
		if got.Stats.Integrations != want.Stats.Integrations {
			t.Errorf("workers=%d: Integrations = %d, want %d",
				workers, got.Stats.Integrations, want.Stats.Integrations)
		}
	}
}

// TestExecuteCancelledContext checks that a cancelled context aborts
// execution with ctx.Err() on both the serial and pooled paths.
func TestExecuteCancelledContext(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ix := uniformIndex(t, rng, 500, 2, 1000)
	e := newExactEngine(t, ix, Options{})
	q := paperQuery(t, vecmat.Vector{500, 500}, 10, 25, 0.05)

	plan, err := e.Compile(q, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.Execute(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("serial Execute error = %v, want context.Canceled", err)
	}
	if _, err := plan.ExecuteParallel(ctx, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("parallel Execute error = %v, want context.Canceled", err)
	}
}

// countingFailEval fails every qualification and counts attempts, to verify
// that the worker pool stops promptly after the first error.
type countingFailEval struct {
	calls *atomic.Int64
}

func (f countingFailEval) Qualification(*gauss.Dist, vecmat.Vector, float64) (float64, error) {
	f.calls.Add(1)
	return 0, errors.New("synthetic evaluator failure")
}

func (f countingFailEval) ForkEvaluator(uint64) Evaluator { return f }

// TestSearchParallelAbortsOnError is the regression test for the old static
// chunk split, where workers kept integrating their whole chunk after another
// worker had already failed. The pool must stop claiming candidates once the
// first error cancels the run, so only a small number of evaluations happen.
func TestSearchParallelAbortsOnError(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	ix := uniformIndex(t, rng, 5000, 2, 1000)
	var calls atomic.Int64
	e, err := NewEngine(ix, countingFailEval{calls: &calls}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// γ=100 with a low θ keeps thousands of Phase-3 candidates.
	q := paperQuery(t, vecmat.Vector{500, 500}, 100, 50, 0.001)

	plan, err := e.Compile(q, StrategyRR)
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, needEval, err := plan.filterPhases(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(needEval) < 100 {
		t.Fatalf("test needs many candidates, got %d", len(needEval))
	}

	const workers = 4
	if _, err := e.SearchParallel(q, StrategyRR, workers); err == nil {
		t.Fatal("SearchParallel with failing evaluator returned no error")
	}
	// Each worker may have one claim in flight when cancellation lands; any
	// count near the worker count means the pool aborted promptly. The old
	// chunked implementation evaluated all len(needEval) candidates.
	if n := calls.Load(); n > int64(4*workers) {
		t.Errorf("evaluator ran %d times after first error, want ≤ %d (of %d candidates)",
			n, 4*workers, len(needEval))
	}
}

// TestRebindMatchesFreshCompile checks that a plan rebound to a new mean is
// indistinguishable from compiling at that mean directly.
func TestRebindMatchesFreshCompile(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	ix := uniformIndex(t, rng, 3000, 2, 1000)
	e := newExactEngine(t, ix, Options{})

	qA := paperQuery(t, vecmat.Vector{300, 300}, 10, 25, 0.05)
	qB := paperQuery(t, vecmat.Vector{700, 600}, 10, 25, 0.05)

	for _, strat := range PaperStrategies {
		planA, err := e.Compile(qA, strat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		distB, err := planA.Dist().WithMean(qB.Dist.Mean())
		if err != nil {
			t.Fatalf("%v: WithMean: %v", strat, err)
		}
		rebound, err := planA.Rebind(distB)
		if err != nil {
			t.Fatalf("%v: Rebind: %v", strat, err)
		}
		got, err := rebound.Execute(context.Background())
		if err != nil {
			t.Fatalf("%v: Execute: %v", strat, err)
		}
		want, err := e.Search(qB, strat)
		if err != nil {
			t.Fatalf("%v: Search: %v", strat, err)
		}
		if !idsEqual(got.IDs, want.IDs) {
			t.Errorf("%v: rebound plan IDs differ from fresh compile", strat)
		}
	}

	// Rebind must reject a different covariance and a dimension mismatch.
	plan, err := e.Compile(qA, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	otherCov, err := gauss.New(vecmat.Vector{0, 0}, paperSigma(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Rebind(otherCov); err == nil {
		t.Error("Rebind accepted a different covariance")
	}
	g3, err := gauss.New(vecmat.Vector{0, 0, 0}, vecmat.Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Rebind(g3); err == nil {
		t.Error("Rebind accepted a dimension mismatch")
	}
	if _, err := plan.Rebind(nil); err == nil {
		t.Error("Rebind accepted nil")
	}
}

// TestMCParallelWorkerInvariance checks the satellite requirement that Monte
// Carlo parallel results are independent of the worker count: the random
// stream is forked per candidate (by candidate index), so any pool size
// produces the same answer set as any other.
func TestMCParallelWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	ix := uniformIndex(t, rng, 2000, 2, 1000)
	q := paperQuery(t, vecmat.Vector{500, 500}, 10, 25, 0.05)

	run := func(workers int) []int64 {
		t.Helper()
		// Fresh same-seed integrator per run: any divergence between runs can
		// then only come from how the pool assigns streams.
		integ, err := mc.NewIntegrator(2000, 7)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(ix, MCEvaluator{integ}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := e.Compile(q, StrategyAll)
		if err != nil {
			t.Fatal(err)
		}
		res, err := plan.ExecuteParallel(context.Background(), workers)
		if err != nil {
			t.Fatal(err)
		}
		return res.IDs
	}

	want := run(1)
	if len(want) == 0 {
		t.Fatal("test query returned no answers")
	}
	for _, workers := range []int{2, 3, 4, 8} {
		if got := run(workers); !idsEqual(got, want) {
			t.Errorf("workers=%d: MC answer set differs from workers=1", workers)
		}
	}
}

// TestExecuteEval checks the explicit-evaluator serial entry point used by
// the public DB layer to share one immutable plan across executions.
func TestExecuteEval(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	ix := uniformIndex(t, rng, 1000, 2, 1000)
	e := newExactEngine(t, ix, Options{})
	q := paperQuery(t, vecmat.Vector{500, 500}, 10, 25, 0.05)

	plan, err := e.Compile(q, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.ExecuteEval(context.Background(), nil); err == nil {
		t.Error("nil evaluator accepted")
	}
	got, err := plan.ExecuteEval(context.Background(), NewExactEvaluator())
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Search(q, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	if !idsEqual(got.IDs, want.IDs) {
		t.Error("ExecuteEval IDs differ from Search")
	}
}

// decideOnlyEval answers through DecideQualifies only: its value path fails,
// so an executor that still sums full probabilities errors out.
type decideOnlyEval struct {
	inner   *ExactEvaluator
	decides *atomic.Int64
}

var _ DecisionEvaluator = (*ExactEvaluator)(nil)

func (d decideOnlyEval) Qualification(*gauss.Dist, vecmat.Vector, float64) (float64, error) {
	return 0, errors.New("value path used instead of DecideQualifies")
}

func (d decideOnlyEval) DecideQualifies(dist *gauss.Dist, o vecmat.Vector, delta, theta float64) (bool, int, error) {
	d.decides.Add(1)
	return d.inner.DecideQualifies(dist, o, delta, theta)
}

func (d decideOnlyEval) ForkEvaluator(id uint64) Evaluator {
	return decideOnlyEval{inner: d.inner.ForkEvaluator(id).(*ExactEvaluator), decides: d.decides}
}

// TestExecutorsPreferDecision: both Phase-3 executors, serial and the worker
// pool, decide through DecisionEvaluator when the (forked) evaluator has it,
// once per candidate, with the exact evaluator's answer.
func TestExecutorsPreferDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	ix := uniformIndex(t, rng, 6000, 2, 1000)
	q := paperQuery(t, vecmat.Vector{500, 500}, 10, 25, 0.01)
	want, err := newExactEngine(t, ix, Options{}).Search(q, StrategyAll)
	if err != nil {
		t.Fatal(err)
	}
	var decides atomic.Int64
	e, err := NewEngine(ix, decideOnlyEval{inner: NewExactEvaluator(), decides: &decides}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		decides.Store(0)
		got, err := e.SearchParallel(q, StrategyAll, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !idsEqual(got.IDs, want.IDs) {
			t.Errorf("workers=%d: %d answers, want %d", workers, len(got.IDs), len(want.IDs))
		}
		if n := decides.Load(); n != int64(got.Stats.Integrations) || n == 0 {
			t.Errorf("workers=%d: %d decisions for %d integrations", workers, n, got.Stats.Integrations)
		}
	}
}
