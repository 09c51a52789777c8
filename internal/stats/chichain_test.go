package stats

import (
	"math"
	"testing"
)

// chiErrBudget mirrors the re-seed budget Ruben's series passes to Next.
const chiErrBudget = 1e-12 / 8

// TestChiChainCertified walks the χ² recurrence far past where it cancels or
// underflows — small y (every term cancels), y ≫ a (h starts below the
// double range and is tracked in the log domain) — and checks every step
// against a fresh GammaP within the chain's running error bound.
func TestChiChainCertified(t *testing.T) {
	for _, a0 := range []float64{0.5, 1, 2.5, 4.5} {
		for _, y := range []float64{1e-3, 0.7, 12, 150, 800, 3000} {
			var c ChiChain
			if err := c.Seed(a0, y); err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 4000; k++ {
				want, err := GammaP(a0+float64(k), y)
				if err != nil {
					t.Fatal(err)
				}
				// 2e-13·want stands for the reference's own accuracy.
				if diff := math.Abs(c.F() - want); diff > c.Err()+2e-13*want {
					t.Fatalf("a0=%g y=%g k=%d: F=%.17g GammaP=%.17g |diff| %g > bound %g",
						a0, y, k, c.F(), want, diff, c.Err())
				}
				// Re-seeding keeps the bound well below the guard; at y = 3000
				// it is GammaP's own prefactor rounding, ≈1e-11.
				if c.Err() > 1e-10 {
					t.Fatalf("a0=%g y=%g k=%d: error bound %g grew unbounded", a0, y, k, c.Err())
				}
				if err := c.Next(chiErrBudget); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestChiChainDownward walks the sweep's chain down in the shape from far
// above and far below y — h starting in the log domain and h leaving the
// double range on the way down — and checks every step against a fresh
// GammaP (GammaQ for a complement chain) within the chain's bound, relative
// where the value is tiny.
func TestChiChainDownward(t *testing.T) {
	for _, y := range []float64{1e-3, 0.7, 12, 150, 800, 3000} {
		for _, top := range []float64{0.5 + 4000, 1 + 2500, 2.5 + 300} {
			var c ChiChain
			if err := c.seedSaddle(top, y); err != nil {
				t.Fatal(err)
			}
			for a := top; a > 1; a-- {
				want, err := GammaP(a, y)
				if c.comp {
					want, err = GammaQ(a, y)
				}
				if err != nil {
					t.Fatal(err)
				}
				// GammaP's own prefactor rounding grows with a·log y.
				lg, _ := math.Lgamma(a)
				refTol := (2e-13 + 4*ulp*(a*math.Abs(math.Log(y))+y+math.Abs(lg))) * math.Min(want, 1-want)
				if diff := math.Abs(c.F() - want); diff > c.Err()+refTol+ulp*want {
					t.Fatalf("y=%g a=%g: F=%.17g GammaP=%.17g |diff| %g > bound %g",
						y, a, c.F(), want, diff, c.Err())
				}
				if c.Err() > (1e-13+8*ulp*(top-a))*want+1e-13 {
					t.Fatalf("y=%g a=%g: bound %g is loose against P=%g", y, a, c.Err(), want)
				}
				// A P chain only adds on the way down; a complement chain
				// subtracts and may cancel, so only P stays relative.
				if !c.comp && want > 1e-280 && want < 1e-250 && c.Err() > 1e-6*want {
					t.Fatalf("y=%g a=%g: bound %g is not relative at P=%g", y, a, c.Err(), want)
				}
				c.prev()
			}
		}
	}
}
