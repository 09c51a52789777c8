// Package stats implements the special functions used by Gaussian
// probabilistic range query processing:
//
//   - regularized incomplete gamma functions P(a,x), Q(a,x) and the inverse
//     of P with respect to x;
//   - the chi and chi-square distributions (CDF and quantile), which give the
//     probability mass of a normalized Gaussian inside a sphere (Eq. 7 of the
//     paper, Fig. 17);
//   - the noncentral chi-square CDF, which gives the mass of a normalized
//     Gaussian inside an off-center sphere (Eqs. 21 and 26, the BF strategy).
//
// All functions are pure, deterministic, and stdlib-only.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrDomain is returned when an argument is outside a function's domain.
var ErrDomain = errors.New("stats: argument outside domain")

// ErrNotConverged is returned when a series, continued fraction or sweep
// would need more iterations than its bound allows. No value is returned in
// that case: a truncated one could be arbitrarily wrong.
var ErrNotConverged = errors.New("stats: evaluation did not converge")

const (
	// epsRel is the target relative accuracy of the series and continued
	// fraction expansions. 1e-14 leaves ~2 ulps of headroom for float64.
	epsRel = 1e-14
	// maxIter bounds series/CF iterations; generous for all practical (a, x).
	maxIter = 10000
)

// GammaP returns the regularized lower incomplete gamma function
//
//	P(a, x) = γ(a, x) / Γ(a),  a > 0, x ≥ 0.
//
// For the normalized d-dimensional Gaussian, Pr(‖x‖ ≤ r) = P(d/2, r²/2).
func GammaP(a, x float64) (float64, error) {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return 0, ErrDomain
	}
	if x == 0 {
		return 0, nil
	}
	if math.IsInf(x, 1) {
		return 1, nil
	}
	if x < a+1 {
		return gammaPSeries(a, x)
	}
	q, err := gammaQContinuedFraction(a, x)
	if err != nil {
		return 0, err
	}
	return 1 - q, nil
}

// GammaQ returns the regularized upper incomplete gamma function
// Q(a, x) = 1 − P(a, x).
func GammaQ(a, x float64) (float64, error) {
	if a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x) {
		return 0, ErrDomain
	}
	if x == 0 {
		return 1, nil
	}
	if math.IsInf(x, 1) {
		return 0, nil
	}
	if x < a+1 {
		p, err := gammaPSeries(a, x)
		if err != nil {
			return 0, err
		}
		return 1 - p, nil
	}
	return gammaQContinuedFraction(a, x)
}

// gammaPSeries evaluates P(a,x) by its power series, accurate for x < a+1.
func gammaPSeries(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*epsRel {
			return sum * math.Exp(-x+a*math.Log(x)-lg), nil
		}
	}
	return 0, fmt.Errorf("%w: incomplete gamma series at a=%g, x=%g", ErrNotConverged, a, x)
}

// gammaQContinuedFraction evaluates Q(a,x) by the Lentz continued fraction,
// accurate for x ≥ a+1.
func gammaQContinuedFraction(a, x float64) (float64, error) {
	lg, _ := math.Lgamma(a)
	h, _, err := gammaCF(a, x, epsRel)
	if err != nil {
		return 0, err
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h, nil
}

// gammaCF returns C with Q(a,x) = C·xᵃe⁻ˣ/Γ(a): the Lentz continued
// fraction without its prefactor, run until a step changes it by less than
// tol, and the number of iterations that took.
func gammaCF(a, x, tol float64) (h float64, iters int, err error) {
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h = d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < tol {
			return h, i, nil
		}
	}
	return 0, 0, fmt.Errorf("%w: incomplete gamma continued fraction at a=%g, x=%g", ErrNotConverged, a, x)
}

// gammaSeriesCertified is the power series of P(a,x) without its prefactor
// xᵃe⁻ˣ/Γ(a), for the noncentral sweep's seed: unlike gammaPSeries it stops
// only once the geometric bound on the series' tail,
// del·r/(1 − r) with r = x/(a + i + 1) < 1, drops below the unit roundoff,
// and it returns a bound on the sum's relative error — the tail plus three
// roundings per term (the ratio, the product, the addition).
func gammaSeriesCertified(a, x float64) (sum, rel float64, err error) {
	ap := a
	sum = 1 / a
	del := sum
	for i := 1; i <= maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		// del·r/(1 − r) with r = x/(ap + 1), free of divisions.
		if del*x < 0x1p-54*sum*(ap+1-x) {
			return sum, (3*float64(i) + 2) * ulp / 2, nil
		}
	}
	return 0, 0, fmt.Errorf("%w: incomplete gamma series at a=%g, x=%g", ErrNotConverged, a, x)
}

// saddleMinA is the shape from which logGammaPrefactor switches to the
// saddle-point form; the Stirling series is accurate to 3e-16 there.
const saddleMinA = 15

// logGammaPrefactor returns z = a·log x − x − lnΓ(a), the log of the
// prefactor xᵃe⁻ˣ/Γ(a) shared by P(a,x) and Q(a,x), with a bound on its
// absolute error. Summed directly its terms reach a·log x and lnΓ(a), so at
// a ≈ x ≈ 1e5 the rounding alone is ≈1e-10. From a = saddleMinA on it uses
// Loader's saddle-point form
//
//	z = ½·log(a/2π) − stirlerr(a) − bd0(a, x),  bd0(a, x) = a·log(a/x) + x − a,
//
// whose terms are no larger than z itself.
func logGammaPrefactor(a, x float64) (z, zErr float64) {
	if a < saddleMinA {
		lg, _ := math.Lgamma(a)
		z = a*math.Log(x) - x - lg
		return z, 4 * ulp * (math.Abs(a*math.Log(x)) + x + math.Abs(lg) + 1)
	}
	d, dErr := bd0(a, x)
	half := 0.5 * math.Log(a/(2*math.Pi))
	z = half - stirlerr(a) - d
	return z, dErr + 4*ulp*(math.Abs(half)+math.Abs(z)+1)
}

// stirlerr returns lnΓ(a) − ((a − ½)·log a − a + ½·log 2π) for a ≥ 15 by its
// asymptotic series, whose first omitted term is below 3e-16 there.
func stirlerr(a float64) float64 {
	const (
		s0 = 1.0 / 12
		s1 = 1.0 / 360
		s2 = 1.0 / 1260
		s3 = 1.0 / 1680
		s4 = 1.0 / 1188
	)
	r := 1 / (a * a)
	return (s0 - (s1-(s2-(s3-s4*r)*r)*r)*r) / a
}

// bd0 returns a·log(a/x) + x − a ≥ 0 with a bound on its absolute error.
// Near a = x the difference cancels, so there it sums Loader's series in
// v = (a − x)/(a + x): bd0 = (a − x)·v + 2a·(v³/3 + v⁵/5 + …).
func bd0(a, x float64) (float64, float64) {
	if math.Abs(a-x) < 0.1*(a+x) {
		v := (a - x) / (a + x)
		s := (a - x) * v
		ej := 2 * a * v
		v2 := v * v
		for j := 1; j < 1000; j++ {
			ej *= v2
			s1 := s + ej/float64(2*j+1)
			if s1 == s {
				return s, 8 * ulp * (s + math.Abs(a-x)*math.Abs(v))
			}
			s = s1
		}
	}
	l := a * math.Log(a/x)
	return l + x - a, 4 * ulp * (math.Abs(l) + x + a)
}

// GammaPInv returns x such that P(a, x) = p, for a > 0 and 0 ≤ p < 1.
// This inverts the radial mass of a normalized Gaussian and therefore yields
// the exact rθ of the paper's Definition 5 without a lookup table:
// rθ = √(2 · GammaPInv(d/2, 1−2θ)).
func GammaPInv(a, p float64) (float64, error) {
	if a <= 0 || p < 0 || p >= 1 || math.IsNaN(a) || math.IsNaN(p) {
		return 0, ErrDomain
	}
	if p == 0 {
		return 0, nil
	}

	// Initial guess (Numerical Recipes §6.2.1, after DiDonato & Morris).
	var x float64
	lg, _ := math.Lgamma(a)
	if a > 1 {
		pp := p
		if pp > 0.5 {
			pp = 1 - p
		}
		t := math.Sqrt(-2 * math.Log(pp))
		z := (2.30753 + t*0.27061) / (1 + t*(0.99229+t*0.04481))
		z -= t
		if p > 0.5 {
			z = -z
		}
		a1 := 1 / (9 * a)
		cube := 1 - a1 + z*math.Sqrt(a1)
		x = a * cube * cube * cube
		if x <= 0 {
			x = 1e-8
		}
	} else {
		t := 1 - a*(0.253+a*0.12)
		if p < t {
			x = math.Pow(p/t, 1/a)
		} else {
			x = 1 - math.Log(1-(p-t)/(1-t))
		}
	}

	// Halley refinement on f(x) = P(a,x) − p.
	for it := 0; it < 100; it++ {
		if x <= 0 {
			x = 1e-300
		}
		pv, err := GammaP(a, x)
		if err != nil {
			return 0, err
		}
		f := pv - p
		// P'(a,x) = x^{a−1} e^{−x} / Γ(a).
		logDeriv := (a-1)*math.Log(x) - x - lg
		deriv := math.Exp(logDeriv)
		if deriv == 0 {
			break
		}
		u := f / deriv
		// Halley correction using P''/P' = (a−1)/x − 1.
		corr := u * ((a-1)/x - 1) / 2
		if math.Abs(corr) < 1 {
			u /= 1 - corr
		}
		xNew := x - u
		if xNew <= 0 {
			xNew = x / 2
		}
		if math.Abs(xNew-x) < 1e-14*math.Max(xNew, 1e-300) {
			return xNew, nil
		}
		x = xNew
	}
	// Bisection fallback for extreme arguments: P is monotone in x.
	lo, hi := 0.0, math.Max(2*x, 1.0)
	for {
		pv, err := GammaP(a, hi)
		if err != nil {
			return 0, err
		}
		if pv >= p || hi > 1e308/2 {
			break
		}
		hi *= 2
	}
	for it := 0; it < 200; it++ {
		mid := (lo + hi) / 2
		pv, err := GammaP(a, mid)
		if err != nil {
			return 0, err
		}
		if pv < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// LogGamma returns log Γ(x) for x > 0.
func LogGamma(x float64) float64 {
	lg, _ := math.Lgamma(x)
	return lg
}
