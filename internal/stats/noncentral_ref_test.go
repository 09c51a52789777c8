package stats

import "math"

// noncentralReference is the noncentral χ² CDF as it stood before the
// certified sweep: a Poisson-mixture sweep from the modal term that pays an
// Lgamma per downward step, stops the downward sweep only once P passes
// 1 − 1e-12, and caps the upward sweep at maxIter terms. It is kept as a
// test oracle for moderate λ, where it is accurate to about 1e-13; it is
// neither bounded nor certified at large λ.
func noncentralReference(k, lambda, x float64) (float64, error) {
	if k <= 0 || lambda < 0 || math.IsNaN(k) || math.IsNaN(lambda) || math.IsNaN(x) {
		return 0, ErrDomain
	}
	if x <= 0 {
		return 0, nil
	}
	if lambda == 0 {
		return ChiSquareCDF(k, x)
	}

	half := lambda / 2
	X := x / 2

	// Start at the modal Poisson index.
	j0 := int(half)
	a0 := k/2 + float64(j0)

	p0, err := GammaP(a0, X)
	if err != nil {
		return 0, err
	}
	// logW(j) = −λ/2 + j·log(λ/2) − logΓ(j+1).
	logW := func(j int) float64 {
		lg, _ := math.Lgamma(float64(j) + 1)
		return -half + float64(j)*math.Log(half) - lg
	}
	w0 := math.Exp(logW(j0))

	sum := w0 * p0

	// termT(a) = X^a·e^{−X}/Γ(a+1), the decrement of P when a increases by 1.
	termT := func(a float64) float64 {
		lg, _ := math.Lgamma(a + 1)
		return math.Exp(a*math.Log(X) - X - lg)
	}

	// Upward sweep: j = j0+1, j0+2, …
	w := w0
	p := p0
	tUp := termT(a0)
	for j := j0 + 1; j <= j0+maxIter; j++ {
		w *= half / float64(j)
		p -= tUp
		if p < 0 {
			p = 0
		}
		term := w * p
		sum += term
		// The Poisson tail beyond j is bounded by w (for j > λ/2 weights
		// decay geometrically) and p only decreases; stop when a crude tail
		// bound is negligible.
		if term < epsRel*sum && float64(j) > half {
			break
		}
		a := k/2 + float64(j)
		tUp *= X / a
	}

	// Downward sweep: j = j0−1, …, 0.
	w = w0
	p = p0
	a := a0
	for j := j0 - 1; j >= 0; j-- {
		w *= float64(j+1) / half
		a--
		p += termT(a)
		if p > 1 {
			p = 1
		}
		term := w * p
		sum += term
		if term < epsRel*sum && p > 1-1e-12 {
			// All remaining P values are ≥ this one; the remaining weight
			// sums to less than term/(1−j/half) — negligible here.
			rest := 0.0
			ww := w
			for jj := j - 1; jj >= 0; jj-- {
				ww *= float64(jj+1) / half
				rest += ww
			}
			sum += rest // p ≤ 1 for all, so this over-approximates by < eps
			break
		}
	}

	if sum > 1 {
		sum = 1
	}
	return sum, nil
}

// noncentralityReference is the bisection that NoncentralityForCDF
// replaced: bracket by doubling, then halve to a relative width of 1e-12 and
// return the midpoint.
func noncentralityReference(k, x, p float64) (float64, error) {
	if k <= 0 || x <= 0 || p <= 0 || p >= 1 {
		return 0, ErrDomain
	}
	f0, err := ChiSquareCDF(k, x)
	if err != nil {
		return 0, err
	}
	if f0 < p {
		return 0, ErrNoSolution
	}
	if f0 == p {
		return 0, nil
	}
	// Bracket: find hi with F(hi) < p.
	lo, hi := 0.0, math.Max(x, 1.0)
	for i := 0; ; i++ {
		f, err := noncentralReference(k, hi, x)
		if err != nil {
			return 0, err
		}
		if f < p {
			break
		}
		lo = hi
		hi *= 2
		if i > 200 {
			return 0, ErrNoSolution
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		f, err := noncentralReference(k, mid, x)
		if err != nil {
			return 0, err
		}
		if f > p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*math.Max(hi, 1) {
			break
		}
	}
	return (lo + hi) / 2, nil
}
