package stats

import "math"

const (
	// ulp is 2⁻⁵², twice the unit roundoff: charging it per floating-point
	// operation leaves room for the second-order terms of the error model.
	ulp = 0x1p-52
	// gammaPRel is the relative accuracy assumed of GammaP's series and
	// continued fraction (tolerance epsRel, with headroom).
	gammaPRel = 1e-13
	// logTiny is log(1e-304): below it h is kept in the log domain, where
	// the multiplicative recurrence would underflow into denormals.
	logTiny = -700.0
	// tinyErr bounds the error one step charges for terms below e^logTiny
	// and for subnormal rounding.
	tinyErr = 1e-300
)

// minH is e^logTiny, the smallest h kept as a plain value.
var minH = math.Exp(logTiny)

// ChiChain walks the regularized lower incomplete gamma function
// F = P(a, y) in the shape a, in either direction, by the recurrence
//
//	P(a + 1, y) = P(a, y) − h(a),   h(a) = yᵃ·e⁻ʸ / Γ(a + 1),
//	h(a + 1) = h(a)·y / (a + 1),    h(a − 1) = h(a)·a / y,
//
// so each step costs an addition and a division instead of an
// incomplete-gamma evaluation. It is the χ² recurrence shared by Ruben's
// series (upward, one step per mixture term) and the noncentral χ² sweep
// (both ways from the modal Poisson term).
//
// Err is a rigorous running bound on |F̂ − F|: GammaP's accuracy at the
// seed, plus per step the rounding of the addition (ulp·|F|) and the
// relative error of ĥ (relH·h), which grows by 2·ulp per multiplication.
// Upward the subtraction cancels once a ≫ y; Next re-seeds from GammaP when
// the error accumulated since the last seed passes the caller's budget.
// Downward (prev, used by the noncentral sweep) P only grows, so prev never
// re-seeds; a complement chain cancels there instead, and its bound says so.
type ChiChain struct {
	a, y, logY float64
	// invY is 1/y for prev's multiplication.
	invY   float64
	f, err float64
	// h is h(a) when logH ≥ logTiny; relH bounds its relative error, and
	// relHMax is the largest relH any closed-form h of this chain started
	// from (relH then grows by 2·ulp per step).
	h, relH, relHMax float64
	// logH tracks log h(a) while h(a) would be subnormal: there F is flat
	// to machine precision and only the moment h becomes representable
	// matters.
	logH float64
	// seedErr is err right after the last seed.
	seedErr float64
	// saddle marks a chain seeded by seedSaddle; comp marks one of those
	// that carries the complement Q(a, y) = 1 − P(a, y) in f and err.
	saddle, comp bool
	// hCheck is where a saddle chain re-forms a growing h from its closed
	// form: √h at the last re-form. relH carries the rounding of log h,
	// ≈ulp·|log h|, from the moment h left the log domain near e^−700, so
	// re-forming it as h grows through e^−350, e^−175, … keeps the error
	// relative to the h that dominate P.
	hCheck float64
}

// Seed sets the chain to F = P(a, y) with a fresh GammaP evaluation.
func (c *ChiChain) Seed(a, y float64) error {
	f, err := GammaP(a, y)
	if err != nil {
		return err
	}
	c.a, c.y, c.logY = a, y, math.Log(y)
	lgA, _ := math.Lgamma(a)
	// GammaP forms e^z with z = a·log y − y − lnΓ(a); the rounding of z
	// (≈ ulp per unit of its terms' magnitudes) is a relative error of the
	// prefactor. The series branch (y < a+1) carries it on P, the continued
	// fraction on Q = 1 − P.
	rel := gammaPRel + 4*ulp*(math.Abs(a*c.logY)+y+math.Abs(lgA)+1)
	if y < a+1 {
		c.err = rel*f + ulp
	} else {
		c.err = rel*(1-f) + ulp
	}
	c.f, c.seedErr = f, c.err
	c.seedH()
	return nil
}

// seedSaddle is Seed for the noncentral sweep, which seeds once at a shape
// near λ/2 that may be large: it takes the prefactor e^z from
// logGammaPrefactor, so the relative error stays near 1e-14 at any a instead
// of growing with a·log y. Its series branch (y < a+1) sums to a certified
// tail and charges all of its rounding relative to P; its continued-fraction
// branch carries the complement Q = 1 − P, which the fraction delivers to
// relative accuracy, and the chain then steps Q (F and Err refer to Q). Either
// way the bound stays relative to the smaller of P and Q. The chain keeps
// using the saddle-point form whenever it re-forms h.
func (c *ChiChain) seedSaddle(a, y float64) error {
	c.a, c.y, c.logY, c.invY, c.saddle = a, y, math.Log(y), 1/y, true
	z, zErr := logGammaPrefactor(a, y)
	if y < a+1 {
		s, sRel, err := gammaSeriesCertified(a, y)
		if err != nil {
			return err
		}
		c.f = s * math.Exp(z)
		c.err = (zErr+sRel+2*ulp)*c.f + tinyErr
	} else {
		// The fraction runs to an ulp; charge two ulps for convergence and
		// three roundings per iteration, the model gammaPRel assumes with
		// headroom.
		h, iters, err := gammaCF(a, y, ulp)
		if err != nil {
			return err
		}
		c.comp = true
		c.f = math.Exp(z) * h
		c.err = (zErr+(3*float64(iters)+6)*ulp)*c.f + tinyErr
	}
	c.seedErr = c.err
	c.seedH()
	return nil
}

// seedH sets h = h(a) from its closed form, or only logH while h(a) is below
// e^logTiny.
func (c *ChiChain) seedH() {
	var relH float64
	if c.saddle {
		// h(a) = e^z / a.
		z, zErr := logGammaPrefactor(c.a, c.y)
		c.logH = z - math.Log(c.a)
		relH = zErr + 4*ulp*(math.Abs(c.logH)+1)
	} else {
		lg1, _ := math.Lgamma(c.a + 1)
		c.logH = c.a*c.logY - c.y - lg1
		relH = 4 * ulp * (math.Abs(c.a*c.logY) + c.y + math.Abs(lg1) + 1)
	}
	if c.logH < logTiny {
		c.h = 0
		return
	}
	c.h = math.Exp(c.logH)
	c.relH = relH
	c.relHMax = math.Max(c.relHMax, relH)
	c.hCheck = math.Inf(1)
	if c.saddle && c.logH < -8 {
		c.hCheck = math.Exp(c.logH / 2)
	}
}

// F returns the current value P(a, y).
func (c *ChiChain) F() float64 { return c.f }

// Err returns the certified bound on |F̂ − P(a, y)|.
func (c *ChiChain) Err() float64 { return c.err }

// Next advances the chain from P(a, y) to P(a + 1, y). When the error
// accumulated since the last seed exceeds budget it re-seeds from GammaP
// instead; a budget of +Inf never re-seeds and never fails.
func (c *ChiChain) Next(budget float64) error {
	if c.err-c.seedErr > budget {
		return c.Seed(c.a+1, c.y)
	}
	if c.h == 0 {
		// h(a) < 1e-304: F moves by less than its own ulp (F ≥ h(a)), so
		// only the error bound moves. log h grows by log(y/(a+1)); once it
		// is representable, take h from its closed form.
		c.err += tinyErr
		c.a++
		c.logH += c.logY - math.Log(c.a)
		if c.logH >= logTiny {
			c.seedH()
		}
		return nil
	}
	if c.comp {
		c.f += c.h
	} else {
		c.f -= c.h
	}
	c.err += (c.relH+ulp)*c.h + ulp*math.Abs(c.f) + tinyErr
	c.a++
	c.h *= c.y / c.a
	c.relH += 2 * ulp
	if c.saddle && c.h > c.hCheck {
		c.seedH()
	}
	return nil
}

// prev moves the chain from P(a, y) to P(a − 1, y); a − 1 must stay
// positive. The step adds h(a − 1) to P, so P never cancels; a complement
// chain subtracts it from Q.
func (c *ChiChain) prev() {
	if c.h == 0 {
		c.logH += math.Log(c.a) - c.logY
		c.a--
		if c.logH >= logTiny {
			c.seedH()
		}
	} else {
		// Three roundings (1/y, the product a·(1/y), the update), within the
		// 2·ulp charged.
		c.h *= c.a * c.invY
		c.a--
		c.relH += 2 * ulp
		if c.h < minH || c.h > c.hCheck {
			// Leaving the double range (a < y, h falls further with every
			// step down): hand over to the log domain. Or h grew past its
			// checkpoint: re-form it.
			c.seedH()
		}
	}
	if c.h == 0 {
		c.err += tinyErr
		return
	}
	if c.comp {
		c.f -= c.h
	} else {
		c.f += c.h
	}
	c.err += c.relH*c.h + ulp*math.Abs(c.f) + tinyErr
}
