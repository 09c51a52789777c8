package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"

	"gaussrange/internal/core"
	"gaussrange/internal/data"
	"gaussrange/internal/gauss"
	"gaussrange/internal/geom"
	"gaussrange/internal/mc"
	"gaussrange/internal/stats"
	"gaussrange/internal/vecmat"
)

// RegionResult describes the three integration regions of Figures 13–16 for
// one γ: the geometric extents the paper annotates plus numerically
// estimated areas of each region and of their intersection (the shaded
// region of Fig. 14).
type RegionResult struct {
	Gamma, Delta, Theta float64
	RTheta              float64
	// RR: box half-widths wᵢ = σᵢ·rθ and the Minkowski (rounded-box) area.
	W             vecmat.Vector
	RRArea        float64
	RRBoundingBox vecmat.Vector // half-extents wᵢ + δ
	// OR: oblique box half-extents rθ·√eigᵢ(Σ) + δ in the eigenbasis.
	ORHalf vecmat.Vector
	ORArea float64
	// BF radii and annulus area π(α∥² − α⊥²).
	AlphaUpper, AlphaLower float64
	BFArea                 float64
	// Intersections (Monte Carlo estimates over the common bounding box).
	AllArea float64 // RR ∩ OR ∩ BF, minus the BF acceptance disc
}

// paperRegionAnnotations reproduces the extents printed in Figures 13, 15
// and 16 for reference rendering.
var paperRegionAnnotations = map[float64][]float64{
	1:   {7.4, 4.8, 10.7, 32.0},
	10:  {23.4, 15.3, 15.6, 46.9},
	100: {74.1, 48.5, 30.9, 92.8},
}

// RunRegions computes the Figure 13–16 geometry for one γ at the paper's
// default δ=25, θ=0.01 with Σ = γ·Σ₀ centered at the origin.
func RunRegions(gamma float64) (*RegionResult, error) {
	const delta, theta = 25.0, 0.01
	cov := PaperSigmaBase().Scale(gamma)
	g, err := gauss.New(vecmat.NewVector(2), cov)
	if err != nil {
		return nil, err
	}
	rT, err := g.ThetaRegionRadius(theta)
	if err != nil {
		return nil, err
	}
	res := &RegionResult{Gamma: gamma, Delta: delta, Theta: theta, RTheta: rT}

	res.W = vecmat.Vector{g.SigmaAxis(0) * rT, g.SigmaAxis(1) * rT}
	res.RRBoundingBox = vecmat.Vector{res.W[0] + delta, res.W[1] + delta}
	box, err := geom.RectAround(vecmat.NewVector(2), res.W)
	if err != nil {
		return nil, err
	}
	mink, err := geom.NewMinkowskiRegion(box, delta)
	if err != nil {
		return nil, err
	}
	res.RRArea = mink.Volume()

	evs := g.EigenValuesCov()
	res.ORHalf = vecmat.Vector{rT*math.Sqrt(evs[0]) + delta, rT*math.Sqrt(evs[1]) + delta}
	res.ORArea = 4 * res.ORHalf[0] * res.ORHalf[1]

	upper, lower, err := bfRadiiFor(g, delta, theta)
	if err != nil {
		return nil, err
	}
	res.AlphaUpper, res.AlphaLower = upper, lower
	res.BFArea = math.Pi * (upper*upper - lower*lower)

	// Monte Carlo area of the ALL region: inside Minkowski ∧ inside oblique
	// box ∧ within α∥ ∧ beyond α⊥.
	rng := mc.NewRNG(123)
	bb := mink.BoundingRect()
	const n = 400000
	scratch := make(vecmat.Vector, 2)
	y := make(vecmat.Vector, 2)
	in := 0
	for i := 0; i < n; i++ {
		p := vecmat.Vector{
			bb.Lo[0] + rng.Float64()*(bb.Hi[0]-bb.Lo[0]),
			bb.Lo[1] + rng.Float64()*(bb.Hi[1]-bb.Lo[1]),
		}
		if !mink.Contains(p) {
			continue
		}
		g.TransformToEigen(p, scratch, y)
		if math.Abs(y[0]) > res.ORHalf[0] || math.Abs(y[1]) > res.ORHalf[1] {
			continue
		}
		d2 := p.Norm2()
		if d2 > upper*upper || d2 <= lower*lower {
			continue
		}
		in++
	}
	res.AllArea = float64(in) / n * bb.Volume()
	return res, nil
}

// bfRadiiFor computes the exact α∥ and α⊥ of Eqs. (28)–(31).
func bfRadiiFor(g *gauss.Dist, delta, theta float64) (upper, lower float64, err error) {
	d := float64(g.Dim())
	upper = math.Inf(1)
	lamPar, lamPerp := g.LambdaPar(), g.LambdaPerp()
	detHalf := math.Exp(0.5 * g.LogDet())

	tpPar := math.Pow(lamPar, d/2) * detHalf * theta
	if tpPar < 1 {
		_, hi, err := stats.NoncentralityForCDF(d, lamPar*delta*delta, tpPar)
		if err == nil {
			upper = math.Sqrt(hi) / math.Sqrt(lamPar)
		} else if !errors.Is(err, stats.ErrNoSolution) {
			return 0, 0, err
		}
	}
	tpPerp := math.Pow(lamPerp, d/2) * detHalf * theta
	if tpPerp < 1 {
		lo, _, err := stats.NoncentralityForCDF(d, lamPerp*delta*delta, tpPerp)
		if err == nil {
			lower = math.Sqrt(lo) / math.Sqrt(lamPerp)
		} else if !errors.Is(err, stats.ErrNoSolution) {
			return 0, 0, err
		}
	}
	return upper, lower, nil
}

// Render writes the region geometry with the paper's figure annotations.
func (r *RegionResult) Render(w io.Writer) {
	fig := map[float64]string{1: "Figure 15", 10: "Figures 13–14", 100: "Figure 16"}[r.Gamma]
	fmt.Fprintf(w, "%s — integration regions (γ=%g, δ=%g, θ=%g)\n", fig, r.Gamma, r.Delta, r.Theta)
	fmt.Fprintf(w, "  rθ = %.3f (paper: 2.79)\n", r.RTheta)
	ann := paperRegionAnnotations[r.Gamma]
	fmt.Fprintf(w, "  RR box half-widths  w = (%.1f, %.1f)   [paper annotations: %.1f, %.1f]\n",
		r.W[0], r.W[1], ann[0], ann[1])
	fmt.Fprintf(w, "  RR search box half-extents = (%.1f, %.1f); Minkowski area = %.0f\n",
		r.RRBoundingBox[0], r.RRBoundingBox[1], r.RRArea)
	fmt.Fprintf(w, "  OR oblique half-extents = (%.1f, %.1f); area = %.0f\n",
		r.ORHalf[0], r.ORHalf[1], r.ORArea)
	fmt.Fprintf(w, "  BF radii α∥ = %.1f, α⊥ = %.1f; annulus area = %.0f\n",
		r.AlphaUpper, r.AlphaLower, r.BFArea)
	fmt.Fprintf(w, "  ALL intersection area = %.0f (the Fig. 14 shaded region)\n", r.AllArea)
	fmt.Fprintf(w, "  [remaining paper annotations for this γ: %.1f, %.1f — the drawn region extents]\n",
		ann[2], ann[3])
}

// Fig17Result tabulates Pr(‖x‖ ≤ r) of the normalized Gaussian for several
// dimensionalities (the paper's Figure 17).
type Fig17Result struct {
	Dims  []int
	Radii []float64
	Mass  [][]float64 // Mass[i][j] = Pr for Dims[i], Radii[j]
}

// RunFig17 computes the Figure 17 curves for d ∈ {2, 3, 5, 9, 15} over
// r ∈ [0, 6].
func RunFig17() (*Fig17Result, error) {
	res := &Fig17Result{Dims: []int{2, 3, 5, 9, 15}}
	for r := 0.0; r <= 6.0001; r += 0.25 {
		res.Radii = append(res.Radii, r)
	}
	for _, d := range res.Dims {
		row := make([]float64, len(res.Radii))
		for j, r := range res.Radii {
			m, err := stats.SphereMass(d, r)
			if err != nil {
				return nil, err
			}
			row[j] = m
		}
		res.Mass = append(res.Mass, row)
	}
	return res, nil
}

// Render writes the Figure 17 series plus the paper's anchor values.
func (r *Fig17Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 17 — probability of existence vs radius (normalized Gaussian)\n")
	fmt.Fprintf(w, "%-6s", "r")
	for _, d := range r.Dims {
		fmt.Fprintf(w, "%8s", fmt.Sprintf("d=%d", d))
	}
	fmt.Fprintf(w, "\n")
	for j, radius := range r.Radii {
		fmt.Fprintf(w, "%-6.2f", radius)
		for i := range r.Dims {
			fmt.Fprintf(w, "%8.4f", r.Mass[i][j])
		}
		fmt.Fprintf(w, "\n")
	}
	m2, _ := stats.SphereMass(2, 1)
	m9, _ := stats.SphereMass(9, 2)
	r2, _ := stats.SphereRadiusForMass(2, 0.98)
	r9, _ := stats.SphereRadiusForMass(9, 0.98)
	fmt.Fprintf(w, "\nPaper anchors: Pr(d=2, r=1) = %.0f%% (paper 39%%); Pr(d=9, r=2) = %.0f%% (paper 9%%)\n",
		100*m2, 100*m9)
	fmt.Fprintf(w, "rθ(θ=0.01): d=2 → %.2f (paper 2.79); d=9 → %.2f (paper 4.44)\n", r2, r9)
}

// SweepResult captures the §V-B.3 parameter sensitivity runs: integration
// counts per strategy while varying δ, θ, and the covariance shape.
type SweepResult struct {
	Rows   []SweepRow
	Config Config
}

// SweepRow is one parameter setting.
type SweepRow struct {
	Label        string
	Delta, Theta float64
	Integrations map[core.Strategy]float64
	Answers      float64
}

// RunSweep varies δ ∈ {10, 25, 50}, θ ∈ {0.1, 0.01, 0.001}, and three
// covariance shapes (sphere-like, the paper's 3:1 ellipse, a thin 10:1
// ellipse) at γ=10, reporting mean integration counts per strategy.
func RunSweep(cfg Config, points []vecmat.Vector) (*SweepResult, error) {
	cfg = cfg.withDefaults(3)
	if points == nil {
		points = data.LongBeach(cfg.Seed)
	}
	ix, err := core.NewIndex(points, 2)
	if err != nil {
		return nil, err
	}
	eval, err := newEvaluator(cfg.Evaluator, cfg.Samples, cfg.Seed+3000)
	if err != nil {
		return nil, err
	}
	engine, err := core.NewEngine(ix, eval, core.Options{})
	if err != nil {
		return nil, err
	}
	rng := mc.NewRNG(cfg.Seed + 13)
	centers := make([]vecmat.Vector, cfg.Trials)
	for i := range centers {
		centers[i] = points[rng.Intn(len(points))]
	}

	shapes := []struct {
		label string
		cov   *vecmat.Symmetric
	}{
		{"sphere (ratio 1:1)", vecmat.Identity(2).Scale(50)},
		{"paper ellipse (3:1)", PaperSigmaBase().Scale(10)},
		{"thin ellipse (10:1)", vecmat.MustFromRows([][]float64{{100, 0}, {0, 1}}).Scale(1)},
	}

	res := &SweepResult{Config: cfg}
	run := func(label string, cov *vecmat.Symmetric, delta, theta float64) error {
		row := SweepRow{Label: label, Delta: delta, Theta: theta,
			Integrations: map[core.Strategy]float64{}}
		for _, c := range centers {
			g, err := gauss.New(c, cov)
			if err != nil {
				return err
			}
			q := core.Query{Dist: g, Delta: delta, Theta: theta}
			for _, strat := range core.PaperStrategies {
				r, err := engine.Search(q, strat)
				if err != nil {
					return err
				}
				row.Integrations[strat] += float64(r.Stats.Integrations)
				if strat == core.StrategyAll {
					row.Answers += float64(r.Stats.Answers)
				}
			}
		}
		n := float64(len(centers))
		for _, s := range core.PaperStrategies {
			row.Integrations[s] /= n
		}
		row.Answers /= n
		res.Rows = append(res.Rows, row)
		return nil
	}

	base := PaperSigmaBase().Scale(10)
	for _, delta := range []float64{10, 25, 50} {
		if err := run(fmt.Sprintf("δ=%g", delta), base, delta, 0.01); err != nil {
			return nil, err
		}
	}
	for _, theta := range []float64{0.1, 0.01, 0.001} {
		if err := run(fmt.Sprintf("θ=%g", theta), base, 25, theta); err != nil {
			return nil, err
		}
	}
	for _, sh := range shapes {
		if err := run(sh.label, sh.cov, 25, 0.01); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Render writes the sweep rows.
func (r *SweepResult) Render(w io.Writer) {
	fmt.Fprintf(w, "§V-B.3 parameter sweep (integration counts, %d trials, evaluator=%s)\n",
		r.Config.Trials, r.Config.Evaluator)
	fmt.Fprintf(w, "%-22s", "setting")
	for _, s := range core.PaperStrategies {
		fmt.Fprintf(w, "%9s", s.String())
	}
	fmt.Fprintf(w, "%9s\n", "ANS")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-22s", row.Label)
		for _, s := range core.PaperStrategies {
			fmt.Fprintf(w, "%9.1f", row.Integrations[s])
		}
		fmt.Fprintf(w, "%9.1f\n", row.Answers)
	}
	fmt.Fprintf(w, "\nPaper trends to verify: combinations help more for small δ; θ changes\n")
	fmt.Fprintf(w, "move counts little (exponential tails); near-spherical Σ shrinks the\n")
	fmt.Fprintf(w, "gap between strategies, thin Σ widens it.\n")
}
