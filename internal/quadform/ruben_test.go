package quadform

import (
	"math"
	"math/rand"
	"testing"

	"gaussrange/internal/gauss"
	"gaussrange/internal/stats"
	"gaussrange/internal/vecmat"
)

func TestRubenCDFValidation(t *testing.T) {
	if _, err := RubenCDF(nil, nil, 1); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := RubenCDF([]float64{1}, []float64{0, 0}, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := RubenCDF([]float64{-1}, []float64{0}, 1); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := RubenCDF([]float64{1}, []float64{math.NaN()}, 1); err == nil {
		t.Error("NaN b accepted")
	}
	if _, err := RubenCDF([]float64{1}, []float64{0}, math.NaN()); err == nil {
		t.Error("NaN t accepted")
	}
	v, err := RubenCDF([]float64{1, 2}, []float64{0, 0}, -3)
	if err != nil || v != 0 {
		t.Errorf("t<0 gave %g, %v; want 0", v, err)
	}
}

// Equal lambdas with zero offsets reduce to the central chi-square.
func TestRubenCentralChiSquare(t *testing.T) {
	for _, d := range []int{1, 2, 5, 9} {
		lambda := make([]float64, d)
		b := make([]float64, d)
		for i := range lambda {
			lambda[i] = 3.5
		}
		for _, x := range []float64{0.5, 2, 10, 40} {
			got, err := RubenCDF(lambda, b, 3.5*x)
			if err != nil {
				t.Fatal(err)
			}
			want, err := stats.ChiSquareCDF(float64(d), x)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-10 {
				t.Errorf("d=%d x=%g: Ruben %.14g vs central %.14g", d, x, got, want)
			}
		}
	}
}

// Equal lambdas with offsets reduce to the noncentral chi-square.
func TestRubenNoncentralChiSquare(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(10)
		scale := math.Exp(rng.Float64()*4 - 2)
		lambda := make([]float64, d)
		b := make([]float64, d)
		var nc float64
		for i := range lambda {
			lambda[i] = scale
			b[i] = rng.NormFloat64() * 2
			nc += b[i] * b[i]
		}
		x := math.Exp(rng.Float64()*4 - 1)
		got, err := RubenCDF(lambda, b, scale*x)
		if err != nil {
			t.Fatal(err)
		}
		want, err := stats.NoncentralChiSquareCDF(float64(d), nc, x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("d=%d scale=%g nc=%g x=%g: Ruben %.14g vs noncentral %.14g",
				d, scale, nc, x, got, want)
		}
	}
}

// Reference values computed with 25-digit mpmath quadrature.
func TestRubenReference2D(t *testing.T) {
	cases := []struct {
		l1, l2, b1, b2, t, want float64
	}{
		{90, 10, 0.5, 1.2, 100, 0.56518307769380629},
		{90, 10, 0, 0, 625, 0.99101377055618121},
		{1, 4, 2, -1, 9, 0.4428474755270923},
		{700, 300, 0.3, 0.1, 625, 0.46574717337809076},
	}
	for _, c := range cases {
		got, err := RubenCDF([]float64{c.l1, c.l2}, []float64{c.b1, c.b2}, c.t)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-10 {
			t.Errorf("RubenCDF(λ=(%g,%g), b=(%g,%g), t=%g) = %.16g, want %.16g",
				c.l1, c.l2, c.b1, c.b2, c.t, got, c.want)
		}
	}
}

// Property: monotone in t, bounded in [0,1].
func TestRubenMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 100; trial++ {
		d := 1 + rng.Intn(9)
		lambda := make([]float64, d)
		b := make([]float64, d)
		for i := range lambda {
			lambda[i] = math.Exp(rng.Float64()*5 - 2)
			b[i] = rng.NormFloat64() * 3
		}
		t1 := math.Exp(rng.Float64() * 6)
		t2 := t1 * (1 + rng.Float64())
		p1, err := RubenCDF(lambda, b, t1)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := RubenCDF(lambda, b, t2)
		if err != nil {
			t.Fatal(err)
		}
		if p1 < 0 || p1 > 1 || p2 < p1-1e-11 {
			t.Errorf("trial %d: p(%g)=%g, p(%g)=%g violates monotone/[0,1]", trial, t1, p1, t2, p2)
		}
	}
}

// Property: Monte Carlo agreement for anisotropic forms.
func TestRubenMonteCarloAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	const n = 300000
	for trial := 0; trial < 6; trial++ {
		d := 2 + rng.Intn(7)
		lambda := make([]float64, d)
		b := make([]float64, d)
		for i := range lambda {
			lambda[i] = math.Exp(rng.Float64()*3 - 1)
			b[i] = rng.NormFloat64()
		}
		tt := 0.0
		for _, l := range lambda {
			tt += l * (1 + rng.Float64()*3)
		}
		var hit int
		for i := 0; i < n; i++ {
			var q float64
			for j := 0; j < d; j++ {
				z := rng.NormFloat64() + b[j]
				q += lambda[j] * z * z
			}
			if q <= tt {
				hit++
			}
		}
		mcEst := float64(hit) / n
		got, err := RubenCDF(lambda, b, tt)
		if err != nil {
			t.Fatal(err)
		}
		se := math.Sqrt(got*(1-got)/n) + 1e-9
		if math.Abs(got-mcEst) > 6*se {
			t.Errorf("trial %d d=%d: Ruben %g vs MC %g (6σ=%g)", trial, d, got, mcEst, 6*se)
		}
	}
}

func paperDist(t testing.TB, gamma float64) *gauss.Dist {
	t.Helper()
	s := math.Sqrt(3)
	cov := vecmat.MustFromRows([][]float64{
		{7 * gamma, 2 * s * gamma},
		{2 * s * gamma, 3 * gamma},
	})
	g, err := gauss.New(vecmat.Vector{500, 500}, cov)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestExactQualification(t *testing.T) {
	g := paperDist(t, 10)
	e := NewExact()

	// At the mean with a huge radius, probability ≈ 1.
	p, err := e.Qualification(g, vecmat.Vector{500, 500}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.999999 {
		t.Errorf("huge sphere probability = %g, want ≈1", p)
	}
	// Far away object: ≈ 0.
	p, err = e.Qualification(g, vecmat.Vector{900, 900}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-9 {
		t.Errorf("distant object probability = %g, want ≈0", p)
	}
	if e.Evaluations() != 2 {
		t.Errorf("Evaluations = %d, want 2", e.Evaluations())
	}
	e.ResetEvaluations()
	if e.Evaluations() != 0 {
		t.Error("ResetEvaluations failed")
	}
}

func TestExactValidation(t *testing.T) {
	g := paperDist(t, 1)
	e := NewExact()
	if _, err := e.Qualification(g, vecmat.Vector{1, 2, 3}, 5); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := e.Qualification(g, vecmat.Vector{1, 2}, 0); err == nil {
		t.Error("delta=0 accepted")
	}
}

// The exact evaluator must be invariant under which equivalent formulation is
// used: compare against directly-constructed RubenCDF inputs.
func TestExactMatchesDirectRuben(t *testing.T) {
	g := paperDist(t, 10)
	e := NewExact()
	rng := rand.New(rand.NewSource(83))
	for i := 0; i < 50; i++ {
		o := vecmat.Vector{500 + rng.NormFloat64()*30, 500 + rng.NormFloat64()*30}
		delta := 5 + rng.Float64()*40
		got, err := e.Qualification(g, o, delta)
		if err != nil {
			t.Fatal(err)
		}

		// Direct: rotate the offset into the eigenbasis.
		diff := g.Mean().Sub(o)
		eb := g.EigenBasis()
		u := make(vecmat.Vector, 2)
		eb.MulVecTransTo(diff, u)
		lams := g.EigenValuesCov()
		b := []float64{u[0] / math.Sqrt(lams[0]), u[1] / math.Sqrt(lams[1])}
		want, err := RubenCDF(lams, b, delta*delta)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("Exact %g != direct %g", got, want)
		}
	}
}

// Symmetry: objects at mirrored positions through q have equal probability
// (the paper's point-symmetry argument for the RR bound, Fig. 3).
func TestExactPointSymmetry(t *testing.T) {
	g := paperDist(t, 10)
	e := NewExact()
	rng := rand.New(rand.NewSource(89))
	q := g.Mean()
	for i := 0; i < 30; i++ {
		o := vecmat.Vector{500 + rng.NormFloat64()*25, 500 + rng.NormFloat64()*25}
		mirror := q.Scale(2).Sub(o)
		p1, err := e.Qualification(g, o, 25)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := e.Qualification(g, mirror, 25)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p1-p2) > 1e-11 {
			t.Errorf("symmetry violated: %g vs %g at %v", p1, p2, o)
		}
	}
}

// rubenReference is the reference oracle for the production series: Ruben's
// series summed term by term with a fresh incomplete-gamma evaluation per χ²
// CDF, run to the 1e-12 truncation target with no early stop. The true CDF
// lies in [p − bound, p + bound] (up to GammaP's own accuracy).
func rubenReference(lambda, b []float64, t float64) (p, bound float64, err error) {
	d := len(lambda)
	if t <= 0 {
		return 0, 0, nil
	}
	beta := lambda[0]
	for _, l := range lambda[1:] {
		if l < beta {
			beta = l
		}
	}
	gamma := make([]float64, d)
	eta := make([]float64, d)
	var logA0 float64
	for j := range lambda {
		gamma[j] = 1 - beta/lambda[j]
		eta[j] = b[j] * b[j] * beta / lambda[j]
		logA0 += -0.5*b[j]*b[j] + 0.5*math.Log(beta/lambda[j])
	}
	a := []float64{math.Exp(logA0)}
	g := []float64{0}
	gammaPow := make([]float64, d)
	etaPow := make([]float64, d)
	for j := range gammaPow {
		gammaPow[j] = 1
		etaPow[j] = eta[j]
	}
	x := t / beta
	dof := float64(d)
	f, err := stats.ChiSquareCDF(dof, x)
	if err != nil {
		return 0, 0, err
	}
	sum := a[0] * f
	aSum := a[0]
	for k := 1; k <= MaxTerms; k++ {
		var gk float64
		for j := 0; j < d; j++ {
			gk += gammaPow[j]*gamma[j] + float64(k)*etaPow[j]
			gammaPow[j] *= gamma[j]
			etaPow[j] *= gamma[j]
		}
		g = append(g, gk)
		var ak float64
		for r := 0; r < k; r++ {
			ak += g[k-r] * a[r]
		}
		ak /= 2 * float64(k)
		a = append(a, ak)
		aSum += ak
		fk, err := stats.ChiSquareCDF(dof+2*float64(k), x)
		if err != nil {
			return 0, 0, err
		}
		sum += ak * fk
		if tail := (1 - aSum) * fk; tail < epsAbs {
			return clamp01(sum + tail/2), tail / 2, nil
		}
	}
	return 0, 0, ErrNotConverged
}

// randomSPD returns a d×d covariance with eigenvalues spread log-uniformly
// over [1, cond]·scale in a random orthonormal basis (Gram–Schmidt of a
// Gaussian matrix).
func randomSPD(rng *rand.Rand, d int, cond, scale float64) *vecmat.Symmetric {
	basis := make([][]float64, d)
	for i := range basis {
		for {
			v := make([]float64, d)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			for _, u := range basis[:i] {
				var dot float64
				for j := range v {
					dot += v[j] * u[j]
				}
				for j := range v {
					v[j] -= dot * u[j]
				}
			}
			var n float64
			for _, x := range v {
				n += x * x
			}
			if n = math.Sqrt(n); n > 1e-6 {
				for j := range v {
					v[j] /= n
				}
				basis[i] = v
				break
			}
		}
	}
	lam := make([]float64, d)
	lam[0], lam[d-1] = 1, cond // pin the extremes so the ratio is exactly cond
	for i := 1; i < d-1; i++ {
		lam[i] = math.Exp(rng.Float64() * math.Log(cond))
	}
	rows := make([][]float64, d)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			for k := range lam {
				rows[i][j] += scale * lam[k] * basis[k][i] * basis[k][j]
			}
		}
	}
	// Symmetrize exactly; the rounding above can differ by an ulp.
	for i := range rows {
		for j := 0; j < i; j++ {
			rows[i][j] = rows[j][i]
		}
	}
	return vecmat.MustFromRows(rows)
}

// referenceFor evaluates the oracle for candidate o against dist, doing the
// eigenbasis transform independently of Exact. inDomain is false when the
// oracle's first mixture coefficient e^{−Σb²/2}·Π√(β/λⱼ) is not a normal
// float64: the unscaled oracle then returns garbage (TestRubenLargeOffset
// covers that range for the production series).
func referenceFor(dist *gauss.Dist, o vecmat.Vector, delta float64) (p, bound float64, inDomain bool, err error) {
	d := dist.Dim()
	u := make(vecmat.Vector, d)
	dist.EigenBasis().MulVecTransTo(dist.Mean().Sub(o), u)
	lams := dist.EigenValuesCov()
	b := make([]float64, d)
	beta := lams[0]
	for _, l := range lams {
		beta = math.Min(beta, l)
	}
	var logA0 float64
	for j := range b {
		b[j] = u[j] / math.Sqrt(lams[j])
		logA0 += -0.5*b[j]*b[j] + 0.5*math.Log(beta/lams[j])
	}
	if logA0 < -700 {
		return 0, 0, false, nil
	}
	p, bound, err = rubenReference(lams, b, delta*delta)
	return p, bound, true, err
}

// TestDecideMatchesReference is the property test of the decide stop and the
// χ² recurrence against the reference oracle: over random SPD Σ (condition
// up to 500) in d ∈ {2, 3, 5, 9}, θ across four decades and random offsets,
// every Decide answer equals the oracle's p ≥ θ, and every value-path p lies
// within the sum of both certified bounds of the oracle's p. Candidates
// bisected to within [1e-10, 9e-10] of θ cannot clear the guard, so they
// exercise the converged-midpoint fallback. Every call counts as one
// evaluation.
func TestDecideMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	thetas := []float64{1e-4, 0.01, 0.3, 0.9}
	e := NewExact()
	calls, checked, fallbacks := 0, 0, 0
	for _, d := range []int{2, 3, 5, 9} {
		for trial := 0; trial < 5; trial++ {
			cond := math.Exp(rng.Float64() * math.Log(500))
			scale := math.Exp(rng.Float64()*4 - 1)
			mean := make(vecmat.Vector, d)
			for j := range mean {
				mean[j] = 100 * rng.NormFloat64()
			}
			dist, err := gauss.New(mean, randomSPD(rng, d, cond, scale))
			if err != nil {
				t.Fatal(err)
			}
			sigMax := math.Sqrt(cond * scale)
			for _, theta := range thetas {
				delta := sigMax * (0.3 + 2*rng.Float64()) * math.Sqrt(float64(d))
				check := func(o vecmat.Vector, pRef, bRef float64, nearTheta bool) {
					t.Helper()
					p, bound, err := e.QualificationBound(dist, o, delta)
					if err != nil {
						t.Fatal(err)
					}
					qual, certified, err := e.Decide(dist, o, delta, theta)
					if err != nil {
						t.Fatal(err)
					}
					calls += 2
					checked++
					// |bRef|: the oracle's bound goes negative when rounding
					// pushes Σ aₖ past 1; its bracket is then [p + 2·bound, p].
					if diff := math.Abs(p - pRef); diff > bound+math.Abs(bRef) {
						t.Errorf("d=%d cond=%.0f: p=%.15g vs reference %.15g differ by %g > bounds %g+%g",
							d, cond, p, pRef, diff, bound, bRef)
					}
					if qual != (pRef >= theta) {
						t.Errorf("d=%d cond=%.0f θ=%g: Decide=%v, reference p=%.15g",
							d, cond, theta, qual, pRef)
					}
					if nearTheta {
						if certified {
							t.Errorf("d=%d θ=%g: |p−θ|=%g certified inside the guard",
								d, theta, math.Abs(pRef-theta))
						}
						fallbacks++
					}
				}
				for i := 0; i < 8; i++ {
					o := make(vecmat.Vector, d)
					for j := range o {
						o[j] = mean[j] + rng.NormFloat64()*sigMax
					}
					pRef, bRef, ok, err := referenceFor(dist, o, delta)
					if err != nil {
						t.Fatal(err)
					}
					if ok {
						check(o, pRef, bRef, false)
					}
				}

				// Bisect the offset along a random ray (the probability is
				// non-increasing along it, by Anderson's theorem) to land within
				// [1e-10, 9e-10] of θ, on either side.
				dir := make(vecmat.Vector, d)
				for j := range dir {
					dir[j] = rng.NormFloat64()
				}
				dir = dir.Scale(1 / dir.Norm())
				at := func(s float64) vecmat.Vector { return mean.Add(dir.Scale(s)) }
				target := theta + 5e-10
				if rng.Intn(2) == 0 {
					target = theta - 5e-10
				}
				lo, hi := 0.0, sigMax
				inDomain := true
				for inDomain {
					ph, _, ok, err := referenceFor(dist, at(hi), delta)
					if err != nil {
						t.Fatal(err)
					}
					inDomain = ok
					if !ok || ph < target {
						break
					}
					lo, hi = hi, 2*hi
				}
				if p0, _, _, _ := referenceFor(dist, mean, delta); p0 < target || !inDomain {
					continue // the mean misses θ, or the crossing is past the oracle's range
				}
				for it := 0; ; it++ {
					if it == 200 {
						t.Fatalf("d=%d θ=%g: bisection did not reach the band", d, theta)
					}
					mid := (lo + hi) / 2
					pm, bm, _, err := referenceFor(dist, at(mid), delta)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(pm-target) < 4e-10 {
						check(at(mid), pm, bm, true)
						break
					}
					if pm > target {
						lo = mid
					} else {
						hi = mid
					}
				}
			}
		}
	}
	if checked < 500 || fallbacks < 40 {
		t.Errorf("only %d candidates checked, %d near θ", checked, fallbacks)
	}
	if got := e.Evaluations(); got != calls {
		t.Errorf("Evaluations() = %d after %d calls, want one per call", got, calls)
	}
}

// TestRubenLargeOffset covers Mahalanobis offsets whose first mixture
// coefficient e^{−Σb²/2} underflows: with equal λ the form is λ times a
// noncentral χ², an independent reference; anisotropic forms are checked
// against Imhof's inversion.
func TestRubenLargeOffset(t *testing.T) {
	for _, c := range []struct {
		d  int
		nc float64
	}{{2, 1500}, {3, 2200}, {9, 1600}} {
		lambda := make([]float64, c.d)
		b := make([]float64, c.d)
		for j := range lambda {
			lambda[j] = 2.5
			b[j] = math.Sqrt(c.nc / float64(c.d))
		}
		for _, z := range []float64{-2, 0, 2} {
			x := c.nc + float64(c.d) + z*math.Sqrt(4*c.nc)
			got, bound, err := RubenCDFBound(lambda, b, 2.5*x)
			if err != nil {
				t.Fatal(err)
			}
			want, err := stats.NoncentralChiSquareCDF(float64(c.d), c.nc, x)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > bound+1e-9 {
				t.Errorf("d=%d nc=%g x=%g: Ruben %.12g ± %g vs noncentral %.12g",
					c.d, c.nc, x, got, bound, want)
			}
			var s series
			r, err := s.run(lambda, b, 2.5*x, 0.5)
			if err != nil || !r.certified || r.qualifies != (want >= 0.5) {
				t.Errorf("d=%d nc=%g x=%g: decide(0.5) = %+v, %v; p=%g", c.d, c.nc, x, r, err, want)
			}
		}
	}
	lambda := []float64{1, 3}
	b := []float64{35, 10}
	for _, tt := range []float64{1200, 1600, 2000} {
		got, err := RubenCDF(lambda, b, tt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ImhofCDF(lambda, b, tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-6 {
			t.Errorf("t=%g: Ruben %.10g vs Imhof %.10g", tt, got, want)
		}
	}
}

// TestDecideTrivialCases covers the exits before the series: t ≤ 0 is an
// exact 0 and t = +Inf an exact 1; a far candidate is rejected on the first
// term.
func TestDecideTrivialCases(t *testing.T) {
	var s series
	r, err := s.run([]float64{1, 2}, []float64{0, 0}, -1, 0.01)
	if err != nil || r.qualifies || !r.certified {
		t.Errorf("t<0: %+v, %v; want certified reject", r, err)
	}
	for _, theta := range []float64{0.01, 1} {
		r, err = s.run([]float64{1, 2}, []float64{3, 4}, math.Inf(1), theta)
		if err != nil || !r.qualifies || !r.certified {
			t.Errorf("t=+Inf θ=%g: %+v, %v; want certified accept", theta, r, err)
		}
	}
	if p, bound, err := RubenCDFBound([]float64{1, 2}, []float64{3, 4}, math.Inf(1)); err != nil || p != 1 || bound != 0 {
		t.Errorf("t=+Inf value: p=%g bound=%g err=%v; want exactly 1", p, bound, err)
	}
	// δ = 1e160 passes query validation, and δ² overflows to +Inf.
	if ok, certified, err := NewExact().Decide(paperDist(t, 10), vecmat.Vector{505, 505}, 1e160, 0.9); err != nil || !ok || !certified {
		t.Errorf("δ=1e160: Decide = %v, %v, %v; want certified accept", ok, certified, err)
	}
	r, err = s.run([]float64{1, 2}, []float64{40, 40}, 4, 0.01)
	if err != nil || r.qualifies || !r.certified {
		t.Errorf("far candidate: %+v, %v; want certified reject", r, err)
	}
	r, err = s.run([]float64{1, 2}, []float64{0, 0}, 400, 0.9)
	if err != nil || !r.qualifies || !r.certified {
		t.Errorf("centered wide sphere: %+v, %v; want certified accept", r, err)
	}
}
