// Package quadform computes exact distribution functions of positive
// definite quadratic forms in Gaussian variables using Ruben's series
// (H. Ruben 1962; Farebrother's Algorithm AS 204).
//
// The qualification probability of the paper — Pr(‖x − o‖² ≤ δ²) with
// x ~ N(q, Σ) — is exactly such a form: in the eigenbasis of Σ,
//
//	‖x − o‖² = Σⱼ λⱼ·(zⱼ + bⱼ)²,   zⱼ ~ N(0,1) i.i.d.,
//
// with λⱼ the eigenvalues of Σ and bⱼ the scaled offset of o from q. The
// paper evaluates this integral by Monte Carlo (100 000 samples ≈ 3-digit
// accuracy, ~0.05 s/object on 2009 hardware); Ruben's series delivers
// 12-digit accuracy in microseconds and is used here both as an optional
// fast evaluator and as the ground truth that the test suite validates the
// Monte Carlo integrator and all filter strategies against.
package quadform

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"gaussrange/internal/stats"
	"gaussrange/internal/vecmat"
)

// ErrNotConverged indicates the series needed more than MaxTerms terms.
var ErrNotConverged = errors.New("quadform: Ruben series did not converge")

// MaxTerms bounds the Ruben series length. Convergence rate is
// max_j (1 − β/λ_j) per term; 20 000 terms covers eigenvalue ratios beyond
// anything produced by the experiments (ratio 9 in 2-D, ~10² in 9-D).
const MaxTerms = 20000

// epsAbs is the absolute truncation error target of the series.
const epsAbs = 1e-12

// RubenCDF returns Pr(Σⱼ lambda[j]·(z_j + b[j])² ≤ t) for independent
// standard normal z_j. All lambda[j] must be positive; len(b) must equal
// len(lambda). For t ≤ 0 the result is 0.
func RubenCDF(lambda, b []float64, t float64) (float64, error) {
	p, _, err := RubenCDFBound(lambda, b, t)
	return p, err
}

// RubenCDFBound is RubenCDF plus a certified absolute error bound: the true
// CDF value lies in [p − bound, p + bound]. The bound is rigorous, not an
// estimate — the discarded mixture coefficients sum to exactly 1 − Σ aₖ and
// each multiplies a χ² CDF no larger than the last one computed, so the
// truncated tail is contained in [0, (1 − Σ aₖ)·F_k] and p is reported at the
// interval midpoint. The bound also carries the tracked rounding error of the
// χ² recurrence (see stats.ChiChain). Callers comparing p against a threshold θ can
// therefore certify the comparison whenever |p − θ| > bound.
func RubenCDFBound(lambda, b []float64, t float64) (p, bound float64, err error) {
	var s series
	r, err := s.run(lambda, b, t, math.NaN())
	return r.p, r.bound, err
}

// decideGuard is the margin by which a certified bracket must clear θ before
// Decide stops the series. The bracket already covers truncation and the χ²
// recurrence's rounding; the guard absorbs what it does not model — the
// rounding of the mixture coefficients and of the partial sum, and GammaP's
// own accuracy. Against 200-bit arithmetic the coefficients stay within
// 5e-15 relative after 2 500 terms at condition 500, so the guard leaves
// orders of magnitude to spare.
const decideGuard = 1e-9

// seriesResult is the outcome of one series run. Value runs (θ = NaN) fill p
// and bound and leave certified false. Decide runs set certified when the
// bracket cleared θ by decideGuard; otherwise the series ran to convergence
// and qualifies is the midpoint test p ≥ θ.
type seriesResult struct {
	p, bound             float64
	qualifies, certified bool
}

// series holds the scratch buffers of one Ruben series evaluation so that an
// evaluator reusing it allocates nothing per candidate.
type series struct {
	gamma, gammaPow, etaPow []float64
	a                       []float64
	// gRev holds g_1..g_k at its tail, g_i at gRev[len(gRev)−i], so the
	// convolution for a_k is a forward inner product with a[:k].
	gRev []float64
}

// run sums Ruben's mixture Σ aₖ·F_k with F_k = P(d/2 + k, t/2β), the χ² CDF
// with d + 2k degrees of freedom at t/β. After every term the true CDF lies
// in the certified bracket
//
//	[S − E, S + E + (1 − A)·(F_k + e_k)]
//
// where S is the partial sum, A = Σ aᵢ, e_k the rounding bound of F_k and E
// = Σ aᵢ·eᵢ. With theta a number the run stops as soon as the bracket clears
// theta by decideGuard; with theta NaN, and for brackets that never clear,
// it stops once the tail (1 − A)·(F_k + e_k) drops below epsAbs and reports
// the bracket midpoint.
func (s *series) run(lambda, b []float64, t, theta float64) (seriesResult, error) {
	d := len(lambda)
	if d == 0 || len(b) != d {
		return seriesResult{}, fmt.Errorf("quadform: need len(lambda) == len(b) > 0, got %d and %d", d, len(b))
	}
	for j, l := range lambda {
		if l <= 0 || math.IsNaN(l) {
			return seriesResult{}, fmt.Errorf("quadform: lambda[%d] = %g must be positive", j, l)
		}
		if math.IsNaN(b[j]) {
			return seriesResult{}, fmt.Errorf("quadform: b[%d] is NaN", j)
		}
	}
	if math.IsNaN(t) {
		return seriesResult{}, fmt.Errorf("quadform: t is NaN")
	}
	decide := !math.IsNaN(theta)
	if t <= 0 {
		// The CDF is exactly 0: no bracket to narrow.
		return seriesResult{qualifies: theta <= 0, certified: decide}, nil
	}
	if math.IsInf(t, 1) {
		// The CDF is exactly 1.
		return seriesResult{p: 1, qualifies: theta <= 1, certified: decide}, nil
	}

	// Scale parameter: β = min λ_j keeps all mixture coefficients a_k ≥ 0
	// and Σ a_k = 1, giving a rigorous truncation bound.
	beta := lambda[0]
	for _, l := range lambda[1:] {
		if l < beta {
			beta = l
		}
	}

	// γ_j = 1 − β/λ_j ∈ [0, 1);  η_j = b_j²·β/λ_j. gammaPow[j] = γ_j^k and
	// etaPow[j] = η_j·γ_j^{k−1} track the two geometric families in
	// g_k = Σ γ_j^k + k·Σ η_j·γ_j^{k−1}.
	s.gamma = grow(s.gamma, d)
	s.gammaPow = grow(s.gammaPow, d)
	s.etaPow = grow(s.etaPow, d)
	var logA0 float64
	for j := range lambda {
		s.gamma[j] = 1 - beta/lambda[j]
		logA0 += -0.5*b[j]*b[j] + 0.5*math.Log(beta/lambda[j])
		s.gammaPow[j] = 1 // γ_j^0; advanced before first use
		s.etaPow[j] = b[j] * b[j] * beta / lambda[j]
	}
	// a_0 = e^{logA0} underflows once the Mahalanobis offset Σb² passes
	// ≈1400, and then the mixture's mass sits hundreds of terms out. The
	// recursion for a_k is linear, so the coefficients are kept as
	// ã_k·e^{logScale} while they are negligible (below e^{logScaled}) and
	// folded back into plain values once they grow past it. Terms skipped
	// while scaled are under 1e-260 each; they are left out of the sum,
	// which keeps it a lower bound, and out of aSum, which only widens the
	// tail.
	var logScale float64
	a0 := math.Exp(logA0)
	if logA0 < logScaled {
		logScale, a0 = logA0, 1
	}
	s.a = append(s.a[:0], a0)

	var chi stats.ChiChain
	if err := chi.Seed(float64(d)/2, t/(2*beta)); err != nil {
		return seriesResult{}, err
	}
	var sum, sumErr, aSum float64
	if logScale == 0 {
		sum, sumErr, aSum = a0*chi.F(), a0*chi.Err(), a0
	}

	for k := 0; ; k++ {
		if k > 0 {
			// g_k = Σ_j γ_j^k + k·Σ_j η_j γ_j^{k−1}.
			var gk float64
			for j := 0; j < d; j++ {
				gk += s.gammaPow[j]*s.gamma[j] + float64(k)*s.etaPow[j]
				s.gammaPow[j] *= s.gamma[j]
				s.etaPow[j] *= s.gamma[j]
			}
			s.pushG(gk, k)

			// a_k = (1/2k)·Σ_{r=0}^{k−1} g_{k−r}·a_r.
			ak := dot(s.gRev[len(s.gRev)-k:], s.a[:k]) / (2 * float64(k))
			s.a = append(s.a, ak)
			if logScale != 0 {
				ak = s.unscale(&logScale)
			}

			if err := chi.Next(chiErrBudget); err != nil {
				return seriesResult{}, err
			}
			if logScale == 0 {
				aSum += ak
				sum += ak * chi.F()
				sumErr += ak * chi.Err()
			}
		}

		// Every remaining coefficient sums to 1 − aSum and multiplies a CDF
		// no larger than F_k ≤ chi.f + chi.err (the CDF decreases in dof).
		rest := 1 - aSum
		if rest < 0 { // rounding can push aSum past 1
			rest = 0
		}
		tail := rest * (chi.F() + chi.Err())
		if decide {
			if sum-sumErr >= theta+decideGuard {
				return seriesResult{qualifies: true, certified: true}, nil
			}
			if sum+sumErr+tail < theta-decideGuard {
				return seriesResult{certified: true}, nil
			}
		}
		if tail < epsAbs {
			// Midpoint of [sum, sum + tail]; clamping to [0, 1] can only move
			// the report toward the true value, so tail/2 stays valid.
			p := clamp01(sum + tail/2)
			return seriesResult{p: p, bound: tail/2 + sumErr, qualifies: p >= theta}, nil
		}
		if k == MaxTerms {
			return seriesResult{}, ErrNotConverged
		}
	}
}

// logScaled is the log of the smallest mixture coefficient kept as a plain
// value; see run.
const logScaled = -600.0

// unscale maintains the scaled coefficients after a new one was appended:
// it renormalizes them before they can overflow and, once the newest true
// coefficient reaches e^{logScaled}, folds the scale into every stored value
// and zeroes *logScale. It returns the newest coefficient, which is a true
// value only when *logScale is 0 on return.
func (s *series) unscale(logScale *float64) float64 {
	k := len(s.a) - 1
	if s.a[k] > 1e200 {
		for r := range s.a {
			s.a[r] *= 1e-200
		}
		*logScale += 200 * math.Ln10
	}
	if *logScale+math.Log(s.a[k]) < logScaled {
		return s.a[k]
	}
	// *logScale ≥ logScaled − ln 1e200 > −1061, so e^{logScale/2} is a
	// normal number and two multiplications fold the scale in.
	f := math.Exp(*logScale / 2)
	for r := range s.a {
		s.a[r] *= f
		s.a[r] *= f
	}
	*logScale = 0
	return s.a[k]
}

// pushG stores g_k, growing gRev at the front when it is full.
func (s *series) pushG(gk float64, k int) {
	n := len(s.gRev)
	if k > n {
		grown := make([]float64, 2*n+64)
		copy(grown[len(grown)-(k-1):], s.gRev[n-(k-1):])
		s.gRev, n = grown, len(grown)
	}
	s.gRev[n-k] = gk
}

// dot returns Σ x[i]·y[i] over len(x) ≤ len(y) terms: the O(k) inner
// product that dominates a long series. Four partial sums break the
// floating-point add chain.
func dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// grow returns buf resized to n, reallocating only when it is too small.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// chiErrBudget is the recurrence rounding the χ² chain may accumulate
// before it re-seeds from GammaP, small against epsAbs so the value path
// still converges to its target.
const chiErrBudget = epsAbs / 8

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Exact is a qualification-probability evaluator backed by RubenCDF. It
// satisfies the same contract as the Monte Carlo integrator: Qualification
// returns Pr(‖x − o‖ ≤ delta) for x ~ N(q, Σ).
//
// Per-distribution spectral data is cached so repeated candidates against the
// same query pay only the O(d²) offset transform plus the series.
//
// An Exact instance is single-goroutine, but a family of instances created
// with Fork shares one cumulative evaluation counter safely: each instance
// counts locally and publishes with Fold (or transparently on Evaluations of
// the instance itself), so parallel executors can give every worker its own
// fork and still report one total.
type Exact struct {
	// evalLocal counts qualifications not yet folded into evalTotal. Only the
	// owning goroutine touches it.
	evalLocal int64
	// evalTotal is shared by every fork in the family.
	evalTotal *atomic.Int64

	// Cache keyed by distribution identity.
	dist    interface{ Dim() int }
	lambda  []float64
	basis   *vecmat.Dense
	mean    vecmat.Vector
	scratch vecmat.Vector
	u       vecmat.Vector
	bBuf    []float64

	// series holds the Ruben scratch buffers reused across candidates.
	series series
}

// GaussDist is the subset of *gauss.Dist the evaluator needs; declared as an
// interface to keep the package importable without a gauss dependency cycle.
type GaussDist interface {
	Dim() int
	Mean() vecmat.Vector
	EigenBasis() *vecmat.Dense
	EigenValuesCov() []float64
}

// NewExact returns an exact evaluator.
func NewExact() *Exact { return &Exact{evalTotal: new(atomic.Int64)} }

// Fork returns an evaluator with its own spectral cache and scratch buffers
// that shares this evaluator's cumulative evaluation counter. It is the
// per-worker instance for parallel executors: forks never contend on cache
// state, and their counts surface in the family total once they Fold.
func (e *Exact) Fork() *Exact { return &Exact{evalTotal: e.evalTotal} }

// Fold publishes this instance's pending evaluation count into the shared
// family total with a single atomic add and zeroes the local counter.
// Parallel executors defer it per worker — LIFO, before the worker signals
// its WaitGroup — so the total is complete after Wait even when a query is
// cancelled mid-flight.
func (e *Exact) Fold() {
	if e.evalLocal != 0 {
		e.evalTotal.Add(e.evalLocal)
		e.evalLocal = 0
	}
}

// Evaluations returns the number of qualification computations performed by
// this instance's family: the folded total plus this instance's unfolded
// count. Counts pending in other un-Folded forks are not visible.
func (e *Exact) Evaluations() int { return int(e.evalTotal.Load() + e.evalLocal) }

// ResetEvaluations zeroes the family total and this instance's local count.
func (e *Exact) ResetEvaluations() {
	e.evalTotal.Store(0)
	e.evalLocal = 0
}

// Qualification returns the exact probability Pr(‖x − o‖ ≤ delta) for
// x ~ dist.
func (e *Exact) Qualification(dist GaussDist, o vecmat.Vector, delta float64) (float64, error) {
	r, err := e.run(dist, o, delta, math.NaN())
	return r.p, err
}

// QualificationBound is Qualification plus the certified truncation bound of
// RubenCDFBound: the true probability lies in [p − bound, p + bound].
func (e *Exact) QualificationBound(dist GaussDist, o vecmat.Vector, delta float64) (p, bound float64, err error) {
	r, err := e.run(dist, o, delta, math.NaN())
	return r.p, r.bound, err
}

// Decide answers the threshold question Pr(‖x − o‖ ≤ delta) ≥ theta for
// x ~ dist without evaluating the probability to full precision: Ruben's
// series stops as soon as its certified bracket clears theta by a fixed
// guard, which for most candidates takes a fraction of the terms.
//
// certified reports that the bracket cleared. When it never does (the
// probability lies within about 1e-9 of theta), the series runs to
// convergence and qualifies falls back to the midpoint test p ≥ theta — the
// answer Qualification would give. Every call counts as one evaluation.
func (e *Exact) Decide(dist GaussDist, o vecmat.Vector, delta, theta float64) (qualifies, certified bool, err error) {
	r, err := e.run(dist, o, delta, theta)
	return r.qualifies, r.certified, err
}

// run transforms o into the eigenbasis of dist and runs the series; theta is
// NaN for a value run.
func (e *Exact) run(dist GaussDist, o vecmat.Vector, delta, theta float64) (seriesResult, error) {
	d := dist.Dim()
	if o.Dim() != d {
		return seriesResult{}, fmt.Errorf("quadform: object dim %d vs distribution dim %d", o.Dim(), d)
	}
	if delta <= 0 {
		return seriesResult{}, fmt.Errorf("quadform: delta must be positive, got %g", delta)
	}
	e.evalLocal++

	if e.dist != dist || len(e.lambda) != d {
		e.dist = dist
		e.lambda = dist.EigenValuesCov()
		e.basis = dist.EigenBasis()
		e.mean = dist.Mean()
		e.scratch = make(vecmat.Vector, d)
		e.u = make(vecmat.Vector, d)
		e.bBuf = make([]float64, d)
	}

	// In the eigenbasis of Σ: u = Eᵗ(q − o) is the sphere-center offset; the
	// quadratic form is Σ λ_j (z_j + u_j/√λ_j)².
	e.mean.SubTo(o, e.scratch)
	e.basis.MulVecTransTo(e.scratch, e.u)
	for j := 0; j < d; j++ {
		e.bBuf[j] = e.u[j] / math.Sqrt(e.lambda[j])
	}
	return e.series.run(e.lambda, e.bBuf, delta*delta, theta)
}
