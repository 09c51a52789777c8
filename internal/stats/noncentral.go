package stats

import (
	"errors"
	"fmt"
	"math"
)

// NoncentralChiSquareCDF returns Pr(X ≤ x) for X ~ χ'²(k, λ): the noncentral
// chi-square distribution with k > 0 degrees of freedom and noncentrality
// λ ≥ 0. It is NoncentralChiSquareCDFBound without the bound.
//
// For a d-dimensional standard normal vector z and a center c with ‖c‖ = α,
// Pr(‖z − c‖ ≤ δ) = NoncentralChiSquareCDF(d, α², δ²). This is exactly the
// integral of the normalized Gaussian over an off-center sphere that defines
// the BF strategy's α radii (Eqs. 21 and 26 of the paper), so the BF
// U-catalog can be built — or bypassed — with this function.
func NoncentralChiSquareCDF(k, lambda, x float64) (float64, error) {
	p, _, err := NoncentralChiSquareCDFBound(k, lambda, x)
	return p, err
}

// NoncentralChiSquareCDFBound returns F = Pr(X ≤ x) for X ~ χ'²(k, λ) with a
// certified absolute error bound: the true CDF lies in [p − bound, p + bound].
// The bound covers truncation and floating-point rounding; it is relative to
// F where F is far below 1. When the evaluation would need more than its
// step budget the error wraps ErrNotConverged and no value is returned.
//
// The evaluation uses the Poisson mixture representation
//
//	F(x; k, λ) = Σ_j  e^{−λ/2} (λ/2)^j / j! · P(k/2 + j, x/2),
//
// swept outward from the modal Poisson term with one χ² recurrence
// (ChiChain), so a call takes O(√λ) steps.
func NoncentralChiSquareCDFBound(k, lambda, x float64) (p, bound float64, err error) {
	if k <= 0 || lambda < 0 || math.IsNaN(k) || math.IsNaN(lambda) || math.IsNaN(x) {
		return 0, 0, ErrDomain
	}
	if x <= 0 {
		return 0, 0, nil
	}
	if math.IsInf(x, 1) {
		return 1, 0, nil
	}
	if math.IsInf(lambda, 1) {
		return 0, 0, nil
	}
	r, err := noncentralSweep(k, lambda, x)
	return r.f, r.bound, err
}

const (
	// sweepTruncRel is the relative truncation target of the Poisson sweep:
	// each direction stops once the certified bounds on the weight and on
	// the mass it has not visited fall below this fraction of the weight and
	// the mass it has.
	sweepTruncRel = 1e-16
	// sweepTruncAbs is the absolute truncation floor, far below anything a
	// float64 probability can resolve against 1.
	sweepTruncAbs = 1e-300
	// maxSweepSteps bounds one sweep. Both stop rules are met within about
	// 45·√(λ/2) steps, so this admits λ up to ≈1.6e10; beyond it the CDF
	// returns ErrNotConverged instead of spinning.
	maxSweepSteps = 1 << 22
)

// ncSweep is the outcome of one Poisson-mixture sweep.
type ncSweep struct {
	// f and bound are F(x; k, λ) and the certified bound on |f − F|.
	f, bound float64
	// dF is ∂F/∂λ. Differentiating the Poisson weights gives
	// ∂F/∂λ = ½·(F(x; k+2, λ) − F(x; k, λ)) = −½·Σ wⱼhⱼ, with hⱼ the
	// recurrence's own steps, so it comes out of the same sweep. slopeLo is
	// a certified lower bound on |∂F/∂λ|: the visited terms only, less their
	// rounding, over the largest possible total weight.
	dF, slopeLo float64
	// steps counts recurrence steps in both directions.
	steps int
}

// noncentralSweep evaluates F(x; k, λ) for finite λ ≥ 0, x > 0.
//
// The chain carries G = P(k/2 + j, x/2), or its complement Q = 1 − P when
// P is above ½ at the mode (see ChiChain.seedSaddle), and the sweep forms
// Ḡ = Σ wⱼGⱼ: F itself, or 1 − F. Either way the error stays relative to
// the smaller of F and 1 − F.
//
// The weights are kept relative to the modal one, w̃ⱼ = wⱼ/w_{j0}, so Ḡ is
// their weighted mean Σ w̃ⱼGⱼ / Σ w̃ⱼ and no lgamma-sized cancellation
// enters the weights. Past the last visited index J the unvisited weight is
// at most w̃_J·r/(1 − r), with r = (λ/2)/(J+1) upward and J/(λ/2) downward
// (the ratio of consecutive Poisson weights only falls away from the mode).
// It multiplies G values no larger than G_J on the side where G falls (P
// upward, Q downward) and no larger than 1 on the other. Each direction runs
// until both the unvisited weight (the mean's normalizer) and the unvisited
// mass are negligible: about 8.6·√(λ/2) steps, more only when Ḡ itself is
// far below 1.
func noncentralSweep(k, lambda, x float64) (ncSweep, error) {
	half, y := lambda/2, x/2
	j0 := math.Floor(half)
	var up ChiChain
	if err := up.seedSaddle(k/2+j0, y); err != nil {
		return ncSweep{}, err
	}
	dn := up
	comp := up.comp
	// s = Σ w̃G, e = Σ w̃·err(G), wSum = Σ w̃, hSum = Σ w̃h.
	s, e, wSum, hSum := up.f, up.err, 1.0, up.h
	steps := 0
	// stop reports that the unvisited weight tw·om and mass tc·om, both
	// scaled by om > 0, are negligible.
	stop := func(tw, tc, om float64) bool {
		return tw <= sweepTruncRel*wSum*om && (tc <= sweepTruncRel*s*om || tc <= sweepTruncAbs*wSum*om)
	}

	// In the stop tests tw = w·r/(1 − r) is compared as w·r against
	// (1 − r)·limit, which keeps divisions out of the loops.
	var twUp, tcUp float64 // unvisited weight and mass above the sweep
	w := 1.0
	for j := j0; ; j++ {
		r := half / (j + 1) // < 1: j ≥ ⌊λ/2⌋
		wr, om := w*r, 1-r
		g := 1.0 // bound on the unvisited G: P falls upward, Q does not
		if !comp && up.f+up.err < 1 {
			g = up.f + up.err
		}
		if stop(wr, wr*g, om) {
			twUp = wr / om
			tcUp = twUp * g
			break
		}
		if steps++; steps > maxSweepSteps {
			return ncSweep{}, sweepErr(k, lambda, x)
		}
		w = wr
		up.Next(math.Inf(1))
		s += w * up.f
		e += w * up.err
		wSum += w
		hSum += w * up.h
	}
	upSteps := steps

	var twDn, tcDn float64 // unvisited weight and mass below the sweep
	w = 1.0
	invHalf := 1 / half
	for j := j0; j > 0; j-- {
		q := j * invHalf
		if q < 1 {
			wq, om := w*q, 1-q
			g := 1.0 // Q falls downward, P does not
			if comp && dn.f+dn.err < 1 {
				g = dn.f + dn.err
			}
			if stop(wq, wq*g, om) {
				twDn = wq / om
				tcDn = twDn * g
				break
			}
		}
		if steps++; steps > maxSweepSteps {
			return ncSweep{}, sweepErr(k, lambda, x)
		}
		w *= q
		dn.prev()
		s += w * dn.f
		e += w * dn.err
		wSum += w
		hSum += w * dn.h
	}

	// Each weight carries the rounding of at most three operations per step
	// from the mode, within 2·ulp; a common relative error δⱼ ≤ δw of the
	// weights moves the mean by at most 2·δw·min(Ḡ, 1 − Ḡ). Forming the
	// products and the two sums adds (2n + 2)·ulp relative.
	n := float64(steps + 1)
	dw := 2 * ulp * float64(max(upSteps, steps-upSteps))
	rho := (2*n + 2) * ulp
	lo := (s - e) / (wSum + twUp + twDn) * (1 - rho)
	hi := (s + e + tcUp + tcDn) / wSum * (1 + rho)
	spread := 2 * dw / (1 - dw) * math.Min(math.Min(hi, 1), 1-math.Max(lo, 0))
	lo = math.Max(lo-spread, 0)
	hi = math.Min(hi+spread, 1)
	// Ḡ lies within hw of mid; rounding mid adds an ulp of it, and
	// forming 1 − mid for a complement sweep at most one more.
	mid, hw := (lo+hi)/2, (hi-lo)/2+ulp*hi
	relH := math.Max(up.relHMax, dn.relHMax) + 2*ulp*n
	r := ncSweep{f: mid, bound: hw, dF: -0.5 * hSum / wSum, steps: steps,
		slopeLo: 0.5 * hSum * (1 - relH - dw - rho) / (wSum + twUp + twDn)}
	if comp {
		r.f, r.bound = 1-mid, hw+ulp
	}
	return r, nil
}

func sweepErr(k, lambda, x float64) error {
	return fmt.Errorf("%w: noncentral χ² sweep past %d steps (k=%g, λ=%g, x=%g)",
		ErrNotConverged, maxSweepSteps, k, lambda, x)
}

// ErrNoSolution is returned when a root-finding routine cannot bracket the
// requested value.
var ErrNoSolution = errors.New("stats: no solution in range")

// bracketRel is the relative width NoncentralityForCDF narrows its bracket
// to: hi − lo ≤ bracketRel·max(hi, 1).
const bracketRel = 1e-12

// endgameRel is the relative Newton step below which the next iterate is
// within a small fraction of bracketRel of the root (Newton's error after a
// step of relative size s is of order s²); where the slope bound cannot
// certify the bracket, the solver then probes both sides of it instead.
const endgameRel = 1e-7

// NoncentralityForCDF returns a certified bracket [lo, hi] around the
// noncentrality λ = α² at which Pr(χ'²(k, λ) ≤ x) = p:
// F(x; k, hi) ≤ p ≤ F(x; k, lo), each side established beyond the CDF's
// certified error bound. F is strictly decreasing in λ, so the root is
// unique; ErrNoSolution is returned when even λ = 0 gives probability below
// p (no center offset reaches mass p inside the sphere).
//
// The bracket is at most 1e-12·max(hi, 1) wide wherever the CDF's bound
// resolves the root that finely. Where it does not — F flat in λ against its
// bound — the bracket is the root's certified ambiguity interval instead, a
// small multiple of the bound's own width in λ.
//
// The iteration is Newton's method on log F, started from Sankaran's
// normal approximation and safeguarded by the bracket; ∂F/∂λ comes from the
// same sweep as F (see noncentralSweep). Near the root a certified lower
// bound on the slope turns one sweep into both ends of the bracket, so a
// solve typically takes three sweeps. Where the slope is too flat for that,
// the solver probes both sides of the Newton estimate instead.
//
// In paper terms: given a sphere radius δ (x = δ²) and threshold probability
// p, the root is the squared distance α² at which the integral of the
// normalized Gaussian over the sphere equals p (Eq. 21). The BF radii take
// the conservative end: hi for the pruning radius α∥, lo for the acceptance
// radius α⊥.
func NoncentralityForCDF(k, x, p float64) (lo, hi float64, err error) {
	if k <= 0 || x <= 0 || p <= 0 || p >= 1 || math.IsNaN(k) || math.IsNaN(x) || math.IsNaN(p) {
		return 0, 0, ErrDomain
	}
	f0, err := ChiSquareCDF(k, x)
	if err != nil {
		return 0, 0, err
	}
	if f0 < p {
		return 0, 0, ErrNoSolution
	}
	if f0 == p {
		return 0, 0, nil
	}
	hi = math.Inf(1)
	logP := math.Log(p)
	// eval sweeps at c and narrows the bracket on the side c is certified
	// to lie; ambiguous reports F(c) within its own bound of p.
	eval := func(c float64) (r ncSweep, ambiguous bool, err error) {
		r, err = noncentralSweep(k, c, x)
		switch {
		case err != nil:
		case r.f-r.bound > p:
			lo = c
		case r.f+r.bound < p:
			hi = c
		default:
			ambiguous = true
		}
		return r, ambiguous, err
	}
	closed := func() bool { return !math.IsInf(hi, 1) && hi-lo <= bracketRel*math.Max(hi, 1) }

	m := sankaranStart(k, x, p)
	for it := 0; it < 100; it++ {
		r, amb, err := eval(m)
		if err != nil {
			return 0, 0, err
		}
		if closed() {
			return lo, hi, nil
		}
		// |∂²F/∂λ²| = ¼·|Σ wⱼ(hⱼ₊₁ − hⱼ)| ≤ ½, so on [m − d, m + d] the slope
		// stays above slopeLo − d/2, and F(m ∓ d) lies beyond p once
		// d·(slopeLo − d/2) > |F̂ − p| + bound. Near the root one sweep
		// thus certifies both ends.
		num := math.Abs(r.f-p) + r.bound
		d0 := num / r.slopeLo
		certifies := r.slopeLo > 0 && r.slopeLo > 2*d0
		if certifies {
			d := num/(r.slopeLo-d0)*(1+1e-9) + 4*ulp*math.Max(m, 1)
			if amb || 2*d <= bracketRel*math.Max(m, 1) {
				return math.Max(lo, m-d), math.Min(hi, m+d), nil
			}
		}
		next := math.NaN()
		if r.f > 0 && r.dF < 0 {
			next = m - (math.Log(r.f)-logP)*r.f/r.dF
		}
		if amb && math.IsNaN(next) {
			next = m
		}
		if !certifies && (amb || math.Abs(next-m) <= endgameRel*math.Max(m, 1)) {
			// End game: probe next ∓ Δ, from a third of the target width
			// or, where F is flat against its bound, from just over two
			// bound-widths (a certified side needs F beyond p by twice the
			// bound).
			delta := bracketRel / 3 * math.Max(next, 1)
			if r.dF < 0 {
				delta = math.Max(delta, 2.1*r.bound/-r.dF)
			}
			for try := 0; try < 100; try++ {
				c1, c2 := next-delta, next+delta
				for _, c := range [2]float64{c1, c2} {
					if c > lo && c < hi {
						if _, _, err := eval(c); err != nil {
							return 0, 0, err
						}
					}
				}
				if closed() || lo >= c1 && hi <= c2 {
					return lo, hi, nil
				}
				if lo >= c2 || hi <= c1 {
					break // the root lies outside: back to Newton
				}
				delta *= 1.2 // a probe was ambiguous
			}
			next = math.NaN()
		}
		if !(next > lo && next < hi) {
			switch {
			case math.IsInf(hi, 1):
				next = 2*m + 1
			case hi > 4*math.Max(lo, 1):
				next = math.Sqrt(math.Max(lo, 1) * hi)
			default:
				next = lo + (hi-lo)/2
			}
		}
		m = next
	}
	return 0, 0, fmt.Errorf("%w: noncentrality for F(%g; k=%g) = %g", ErrNotConverged, x, k, p)
}

// sankaranStart inverts Sankaran's normal approximation of the noncentral χ²
// CDF (Johnson, Kotz & Balakrishnan, §29.8), F ≈ Φ(z(λ)), for λ: no sweeps,
// and typically within 1e-3 of the root. z falls monotonically in α = √λ,
// so the Illinois variant of regula falsi on α converges in a handful of
// evaluations.
func sankaranStart(k, x, p float64) float64 {
	zp, err := NormalQuantile(p)
	if err != nil {
		return x
	}
	g := func(alpha float64) float64 {
		lam := alpha * alpha
		kl, k2l := k+lam, k+2*lam
		h := 1 - 2.0/3*kl*(k+3*lam)/(k2l*k2l)
		pp := k2l / (kl * kl)
		m := (h - 1) * (1 - 3*h)
		return (math.Exp(h*math.Log(x/kl))-(1+h*pp*(h-1-0.5*(2-h)*m*pp)))/(h*math.Sqrt(2*pp)*(1+0.5*m*pp)) - zp
	}
	a, b := 0.0, math.Sqrt(x)+math.Abs(zp)+10
	ga, gb := g(a), g(b)
	c := a
	if ga > 0 && gb < 0 {
		side := 0
		for i := 0; i < 40 && b-a > 1e-7*b; i++ {
			c = (a*gb - b*ga) / (gb - ga)
			gc := g(c)
			switch {
			case gc > 0:
				a, ga = c, gc
				if side == -1 {
					gb /= 2
				}
				side = -1
			case gc < 0:
				b, gb = c, gc
				if side == 1 {
					ga /= 2
				}
				side = 1
			default:
				a, b = c, c
			}
		}
	}
	return math.Max(c*c, 1e-6*math.Max(x, 1))
}

// PoissonPMF returns e^{−λ}·λ^k/k!, computed in log space for stability.
func PoissonPMF(k int, lambda float64) float64 {
	if k < 0 || lambda < 0 {
		return 0
	}
	if lambda == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return math.Exp(-lambda + float64(k)*math.Log(lambda) - lg)
}
