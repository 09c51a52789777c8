package stats

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestNoncentralDomain(t *testing.T) {
	bad := []struct{ k, lam, x float64 }{
		{0, 1, 1}, {-2, 1, 1}, {2, -1, 1}, {math.NaN(), 1, 1}, {2, math.NaN(), 1},
	}
	for _, c := range bad {
		if _, err := NoncentralChiSquareCDF(c.k, c.lam, c.x); err == nil {
			t.Errorf("NoncentralChiSquareCDF(%g,%g,%g) accepted invalid input", c.k, c.lam, c.x)
		}
	}
	v, err := NoncentralChiSquareCDF(2, 1, -1)
	if err != nil || v != 0 {
		t.Errorf("CDF at negative x = %g, %v; want 0", v, err)
	}
}

func TestNoncentralReducesToCentral(t *testing.T) {
	for _, k := range []float64{1, 2, 5, 9} {
		for _, x := range []float64{0.5, 2, 10} {
			want, err := ChiSquareCDF(k, x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := NoncentralChiSquareCDF(k, 0, x)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-13 {
				t.Errorf("λ=0: CDF(%g,%g) = %g, want central %g", k, x, got, want)
			}
		}
	}
}

// Reference values computed with 30-digit mpmath Poisson-mixture evaluation.
func TestNoncentralReference(t *testing.T) {
	cases := []struct{ x, k, lam, want float64 }{
		{4.0, 2, 1.0, 0.73098793996409},
		{25.0, 2, 9.0, 0.96932239791597826},
		{2.0, 9, 16.0, 1.0411050688994186e-5},
		{50.0, 9, 100.0, 0.00033241367326304339},
		{1.0, 3, 0.5, 0.16220059072318914},
		{625.0, 2, 694.4, 0.085194702951275463},
	}
	for _, c := range cases {
		got, err := NoncentralChiSquareCDF(c.k, c.lam, c.x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-10*math.Max(c.want, 1e-6) {
			t.Errorf("F(%g; k=%g, λ=%g) = %.16g, want %.16g", c.x, c.k, c.lam, got, c.want)
		}
	}
}

// Property: CDF is decreasing in λ and increasing in x.
func TestNoncentralMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 300; i++ {
		k := float64(1 + rng.Intn(15))
		lam := math.Exp(rng.Float64()*8 - 3)
		x := math.Exp(rng.Float64()*6 - 2)
		f, err := NoncentralChiSquareCDF(k, lam, x)
		if err != nil {
			t.Fatal(err)
		}
		f2, _ := NoncentralChiSquareCDF(k, lam*1.5, x)
		if f2 > f+1e-12 {
			t.Errorf("CDF not decreasing in λ: k=%g x=%g λ=%g: %g → %g", k, x, lam, f, f2)
		}
		f3, _ := NoncentralChiSquareCDF(k, lam, x*1.5)
		if f3 < f-1e-12 {
			t.Errorf("CDF not increasing in x: k=%g λ=%g x=%g: %g → %g", k, lam, x, f, f3)
		}
		if f < 0 || f > 1 {
			t.Errorf("CDF out of range: %g", f)
		}
	}
}

// Property: Monte Carlo agreement. Pr(‖z − c‖² ≤ x) with z standard normal
// and ‖c‖² = λ matches the analytic CDF.
func TestNoncentralMonteCarloAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cases := []struct {
		d      int
		lam, x float64
	}{
		{2, 4, 9}, {3, 1, 4}, {9, 9, 25}, {5, 0.25, 2},
	}
	const n = 400000
	for _, c := range cases {
		alpha := math.Sqrt(c.lam)
		var count int
		for i := 0; i < n; i++ {
			var s float64
			// Center at (α, 0, …, 0) w.l.o.g. (isotropy).
			z := rng.NormFloat64() - alpha
			s = z * z
			for j := 1; j < c.d; j++ {
				z := rng.NormFloat64()
				s += z * z
			}
			if s <= c.x {
				count++
			}
		}
		mc := float64(count) / n
		got, err := NoncentralChiSquareCDF(float64(c.d), c.lam, c.x)
		if err != nil {
			t.Fatal(err)
		}
		se := math.Sqrt(got*(1-got)/n) + 1e-9
		if math.Abs(got-mc) > 6*se {
			t.Errorf("d=%d λ=%g x=%g: analytic %g vs MC %g (6σ=%g)", c.d, c.lam, c.x, got, mc, 6*se)
		}
	}
}

func TestNoncentralityForCDF(t *testing.T) {
	// Round trip: pick λ, compute p = F(x; k, λ), invert back.
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 100; i++ {
		k := float64(1 + rng.Intn(12))
		x := math.Exp(rng.Float64()*4 - 1)
		lam := math.Exp(rng.Float64()*4 - 1)
		p, err := NoncentralChiSquareCDF(k, lam, x)
		if err != nil {
			t.Fatal(err)
		}
		if p <= 1e-14 || p >= 1-1e-14 {
			continue
		}
		lo, hi, err := NoncentralityForCDF(k, x, p)
		if err != nil {
			t.Fatalf("k=%g x=%g p=%g: %v", k, x, p, err)
		}
		if got := (lo + hi) / 2; math.Abs(got-lam) > 1e-6*(1+lam) {
			t.Errorf("invert k=%g x=%g: λ = %g, want %g", k, x, got, lam)
		}
	}
}

func TestNoncentralityForCDFNoSolution(t *testing.T) {
	// Central CDF at x is the max over λ; asking for more mass must fail.
	f0, err := ChiSquareCDF(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := NoncentralityForCDF(2, 1, f0*1.01); err == nil {
		t.Error("unreachable probability did not error")
	}
	if _, _, err := NoncentralityForCDF(2, 0, 0.5); err == nil {
		t.Error("x=0 did not error")
	}
	if _, _, err := NoncentralityForCDF(2, 1, 0); err == nil {
		t.Error("p=0 did not error")
	}
}

func TestPoissonPMF(t *testing.T) {
	if got := PoissonPMF(0, 0); got != 1 {
		t.Errorf("PoissonPMF(0, 0) = %g, want 1", got)
	}
	if got := PoissonPMF(3, 0); got != 0 {
		t.Errorf("PoissonPMF(3, 0) = %g, want 0", got)
	}
	if got := PoissonPMF(-1, 2); got != 0 {
		t.Errorf("PoissonPMF(-1, 2) = %g, want 0", got)
	}
	// λ=2, k=2: e^{-2}·4/2.
	want := math.Exp(-2) * 2
	if got := PoissonPMF(2, 2); math.Abs(got-want) > 1e-14 {
		t.Errorf("PoissonPMF(2, 2) = %g, want %g", got, want)
	}
	// PMF sums to ~1.
	var sum float64
	for k := 0; k < 100; k++ {
		sum += PoissonPMF(k, 7.5)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("Σ PMF = %g, want 1", sum)
	}
}

// referenceTol bounds noncentralReference's own error: it forms its modal
// Poisson weight and every χ² term from exponentials of lgamma-sized sums,
// whose rounding grows with λ and x.
func referenceTol(lambda, x, f float64) float64 {
	mag := func(v float64) float64 { return v * (1 + math.Abs(math.Log(v))) }
	return 1e-13*f + 1e-16 + 8*ulp*(mag(lambda/2+1)+mag(x/2+1))*f
}

// TestNoncentralCertifiedProperty checks the certified sweep and the Newton
// solver against the reference over k ∈ {2, 3, 5, 9}, λ ∈ [0, 1e5] and
// p ∈ [1e-6, 0.999]: every value lies within its own bound of the
// reference, every bracket satisfies F(hi) ≤ p ≤ F(lo), and the bracket is
// at most 1e-12·max(hi, 1) wide — or, where the CDF's certified bound cannot
// resolve the root that finely, no wider than a few times the bound's own
// width in λ (a certified bracket cannot be narrower than four).
func TestNoncentralCertifiedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	zLo, _ := NormalQuantile(1e-6)
	zHi, _ := NormalQuantile(0.999)
	cases, wide := 0, 0
	for cases < 400 {
		k := []float64{2, 3, 5, 9}[rng.Intn(4)]
		lam := 0.0
		if rng.Intn(10) > 0 {
			lam = math.Pow(10, -3+8*rng.Float64())
		}
		z := zLo + (zHi-zLo)*rng.Float64()
		x := k + lam + z*math.Sqrt(2*k+4*lam)
		if x <= 0 {
			continue
		}
		p, err := noncentralReference(k, lam, x)
		if err != nil {
			t.Fatal(err)
		}
		if p < 1e-6 || p > 0.999 {
			continue
		}
		cases++

		r, err := noncentralSweep(k, lam, x)
		if err != nil {
			t.Fatalf("k=%g λ=%g x=%g: %v", k, lam, x, err)
		}
		if diff := math.Abs(r.f - p); diff > r.bound+referenceTol(lam, x, p) {
			t.Errorf("k=%g λ=%g x=%g: F=%.17g ± %.3g, reference %.17g (diff %.3g)", k, lam, x, r.f, r.bound, p, diff)
		}
		if r.bound > 1e-9*math.Min(p, 1-p) {
			t.Errorf("k=%g λ=%g x=%g: bound %.3g is loose at F=%g", k, lam, x, r.bound, p)
		}

		lo, hi, err := NoncentralityForCDF(k, x, p)
		if err != nil {
			t.Fatalf("k=%g x=%g p=%g: %v", k, x, p, err)
		}
		fLo, _ := noncentralReference(k, lo, x)
		fHi, _ := noncentralReference(k, hi, x)
		if fHi > p+referenceTol(hi, x, p) || fLo < p-referenceTol(lo, x, p) {
			t.Errorf("k=%g x=%g p=%.17g: bracket [%.17g, %.17g] has F(hi)=%.17g, F(lo)=%.17g", k, x, p, lo, hi, fHi, fLo)
		}
		if width := hi - lo; width > bracketRel*math.Max(hi, 1) {
			wide++
			// The ambiguity interval: where F lies within its bound of p.
			at, _ := noncentralSweep(k, (lo+hi)/2, x)
			amb := at.bound / -at.dF
			if width > 6*amb {
				t.Errorf("k=%g x=%g p=%g: bracket width %.3g exceeds 1e-12·max(hi,1) and 6× the bound's width %.3g",
					k, x, p, width, amb)
			}
		}
	}
	t.Logf("%d cases, %d brackets wider than 1e-12·max(hi,1) (limited by the CDF's certified bound)", cases, wide)
}

// BenchmarkNoncentralCDF times one certified sweep at the mode (x = λ + k,
// F ≈ ½), where both directions run their full O(√λ) course.
func BenchmarkNoncentralCDF(b *testing.B) {
	for _, lam := range []float64{10, 1e3, 1e6} {
		b.Run(fmt.Sprintf("lambda=%g", lam), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NoncentralChiSquareCDF(2, lam, lam+2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestNoncentralLargeLambda covers the regime the old sweep got wrong or
// could not finish: at λ = 1e8, x = 1.001e8 (z ≈ 5) the true CDF is
// 1 − 2.9e-7, so the value must read ≥ 1 − 1e-6 within its bound, or the
// call must fail with ErrNotConverged. Values at λ ∈ [1e3, 1e5] are checked
// against 40-digit Poisson-mixture sums (mpmath), two of them on both sides
// of the p = 0.999 root at x = 1e5, where the old sweep was off by 7e-11.
func TestNoncentralLargeLambda(t *testing.T) {
	p, bound, err := NoncentralChiSquareCDFBound(2, 1e8, 1.001e8)
	switch {
	case errors.Is(err, ErrNotConverged):
	case err != nil:
		t.Fatalf("λ=1e8: %v, want a value or ErrNotConverged", err)
	case p-bound < 1-1e-6:
		t.Errorf("λ=1e8 x=1.001e8: F = %.12g ± %.3g, want ≥ 1 − 1e-6", p, bound)
	}
	for _, c := range []struct{ k, lam, x, want float64 }{
		{2, 98054.1199183141, 1e5, 0.99900000000268114383},
		{2, 98054.119919772595, 1e5, 0.99899999999483970779},
		{2, 1e4, 1e4, 0.49800526366269763395},
		{5, 1000, 1100, 0.93079142105797713282},
		{9, 1e5, 100300, 0.67772508045812199109},
	} {
		p, bound, err := NoncentralChiSquareCDFBound(c.k, c.lam, c.x)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-c.want) > bound || bound > 1e-11 {
			t.Errorf("F(%g; %g, %.17g) = %.17g ± %.3g, want %.17g", c.x, c.k, c.lam, p, bound, c.want)
		}
	}
}

// TestNoncentralSweepSteps: the sweep does O(√λ) recurrence steps — at
// λ = 1e6 at most 16·√λ in the body of the distribution, where the old
// sweep took 76 ms.
func TestNoncentralSweepSteps(t *testing.T) {
	const lam = 1e6
	for _, z := range []float64{-5, 0, 5} {
		x := lam + 2 + z*math.Sqrt(4*lam+4)
		r, err := noncentralSweep(2, lam, x)
		if err != nil {
			t.Fatal(err)
		}
		if limit := 16 * math.Sqrt(lam); float64(r.steps) > limit {
			t.Errorf("z=%g: %d sweep steps, want ≤ %.0f", z, r.steps, limit)
		}
	}
}
