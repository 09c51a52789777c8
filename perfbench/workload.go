package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"gaussrange"
	"gaussrange/internal/data"
	"gaussrange/internal/experiments"
	"gaussrange/internal/kalman"
	"gaussrange/internal/vecmat"
	"gaussrange/server"
)

// The paper's LongBeach query parameters (§V-A): δ = 25, θ = 0.01, all
// filters on. paper-g10 and live-rw scale the paper's Σ (Eq. 34) by γ = 10.
const (
	paperDelta    = 25.0
	paperTheta    = 0.01
	paperStrategy = "ALL"
	paperGamma    = 10.0

	// insertBatch is the size of one live-rw POST /v1/points batch.
	insertBatch = 32
	// writeShare is the live-rw share of write ops; half insert, half delete.
	writeShare = 0.20

	// fleetSize is the number of simulated robots whose posteriors make up
	// the track-fresh queries: enough that every noise level is seen at
	// many places on the map, so the seed moves the cost mix little.
	fleetSize = 256
	// gammaMin and gammaMax bound the covariance scale of track-fresh
	// posteriors: the paper's γ range.
	gammaMin, gammaMax = 1.0, 100.0
)

type opKind uint8

const (
	opQuery opKind = iota
	opInsert
	opDelete
)

// op is one generated request. The load generator replays ops in sequence
// order; the program under test receives only these inputs.
type op struct {
	kind  opKind
	query server.QueryRequest // opQuery
	pts   [][]float64         // opInsert
	id    int64               // opDelete: a base id, never deleted twice
}

// workloadNames lists the benchmark's workloads in documentation order.
var workloadNames = []string{"paper-g10", "track-fresh", "live-rw"}

// basePoints returns the dataset every workload serves: the LongBeach
// stand-in (fixed dataset seed, so --seed varies only the traffic), thinned
// to n points when n is below the full size.
func basePoints(n int) [][]float64 {
	pts := data.LongBeach(1)
	out := make([][]float64, 0, len(pts))
	if n <= 0 || n >= len(pts) {
		n = len(pts)
	}
	stride := float64(len(pts)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, []float64(pts[int(float64(i)*stride)]))
	}
	return out
}

// covRows converts a symmetric matrix to the wire form.
func covRows(s *vecmat.Symmetric) [][]float64 {
	d := s.Dim()
	rows := make([][]float64, d)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = s.At(i, j)
		}
	}
	return rows
}

// detGamma returns the γ at which the paper's Σ has the same determinant as
// the 2×2 matrix s: the scale a posterior "looks like" to the paper.
func detGamma(s *vecmat.Symmetric) float64 {
	base := experiments.PaperSigmaBase()
	det := func(m *vecmat.Symmetric) float64 { return m.At(0, 0)*m.At(1, 1) - m.At(0, 1)*m.At(1, 0) }
	return math.Sqrt(det(s) / det(base))
}

// generate builds n ops of the named workload from seed. The same
// (workload, seed, points) always yields the same sequence.
func generate(workload string, seed uint64, pts [][]float64, n int) ([]op, error) {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	switch workload {
	case "paper-g10":
		return paperOps(rng, pts, n, 0), nil
	case "live-rw":
		return paperOps(rng, pts, n, writeShare), nil
	case "track-fresh":
		return trackOps(rng, pts, n)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}

// paperOps draws paper-g10 queries — centres are data points, Σ is the
// paper's ×10 — and, when writes > 0, interleaves that share of writes:
// half 32-point inserts near data points, half deletes of distinct base ids
// (each live when its op is generated, since no id is deleted twice). Writes
// are placed by blocks of ten ops, shuffled within the block, so every
// stretch of the sequence carries the same write share whatever the seed.
func paperOps(rng *rand.Rand, pts [][]float64, n int, writes float64) []op {
	cov := covRows(experiments.PaperSigmaBase().Scale(paperGamma))
	perm := rng.Perm(len(pts))
	nextDel := 0
	const block = 10
	var slot []int
	ops := make([]op, n)
	for i := range ops {
		if i%block == 0 {
			slot = rng.Perm(block)
		}
		u := (float64(slot[i%block]) + 0.5) / block
		switch {
		case u < writes/2:
			batch := make([][]float64, insertBatch)
			for j := range batch {
				c := pts[rng.IntN(len(pts))]
				batch[j] = []float64{clamp(c[0]+5*rng.NormFloat64(), 0, 1000), clamp(c[1]+5*rng.NormFloat64(), 0, 1000)}
			}
			ops[i] = op{kind: opInsert, pts: batch}
		case u < writes && nextDel < len(perm):
			ops[i] = op{kind: opDelete, id: int64(perm[nextDel])}
			nextDel++
		default:
			c := pts[rng.IntN(len(pts))]
			ops[i] = op{kind: opQuery, query: server.QueryRequest{
				Center: []float64{c[0], c[1]}, Cov: cov, Delta: paperDelta, Theta: paperTheta, Strategy: paperStrategy,
			}}
		}
	}
	return ops
}

// robot is one fleet member: a true position and heading, and the Kalman
// belief the query is issued from.
type robot struct {
	pos, vel []float64
	f        *kalman.Filter
	noise    float64 // this robot's noise level: its posteriors sit near γ = noise
}

// trackOps simulates a fleet of robots localising with internal/kalman:
// each op advances one robot (odometry move with process noise shaped like
// the paper's Σ plus an isotropic slip term, then a position fix with
// probability 0.7) and queries with its posterior. Robot noise levels are
// evenly spaced in log scale, so posteriors span the paper's γ ∈ [1, 100]
// (a belief that drifts outside that range is re-localised), and robots
// take turns in a seeded order each round, so every seed gives the same mix
// of scales. Every Σ is distinct, so every request misses the plan cache.
func trackOps(rng *rand.Rand, pts [][]float64, n int) ([]op, error) {
	base := experiments.PaperSigmaBase()
	fleet := make([]*robot, fleetSize)
	reset := func(r *robot) error {
		f, err := kalman.New(vecmat.Vector{r.pos[0], r.pos[1]}, base.Scale(r.noise))
		r.f = f
		return err
	}
	for i := range fleet {
		c := pts[rng.IntN(len(pts))]
		ang := 2 * math.Pi * rng.Float64()
		r := &robot{
			pos:   []float64{c[0], c[1]},
			vel:   []float64{3 * math.Cos(ang), 3 * math.Sin(ang)},
			noise: gammaMin * 1.5 * math.Pow(gammaMax/gammaMin/2.5, (float64(i)+0.5)/fleetSize),
		}
		if err := reset(r); err != nil {
			return nil, err
		}
		fleet[i] = r
	}
	// move applies odometry with random process noise, so no two posteriors
	// are equal.
	move := func(r *robot) error {
		slip := vecmat.Identity(2).Scale(r.noise * 0.05 * (0.5 + rng.Float64()))
		q, err := base.Scale(r.noise * 0.3 * (0.5 + rng.Float64())).Add(slip)
		if err != nil {
			return err
		}
		return r.f.Predict(vecmat.Vector{r.vel[0], r.vel[1]}, q)
	}
	step := func(r *robot) error {
		for k := range r.pos {
			r.pos[k] += r.vel[k]
			if r.pos[k] < 0 || r.pos[k] > 1000 {
				r.vel[k] = -r.vel[k]
				r.pos[k] = clamp(r.pos[k], 0, 1000)
			}
		}
		if err := move(r); err != nil {
			return err
		}
		if rng.Float64() < 0.7 {
			sd := math.Sqrt(r.noise)
			z := vecmat.Vector{r.pos[0] + sd*rng.NormFloat64(), r.pos[1] + sd*rng.NormFloat64()}
			if err := r.f.Update(z, base.Scale(r.noise*4.3)); err != nil {
				return err
			}
		}
		if g := detGamma(r.f.Cov()); g < gammaMin || g > gammaMax {
			if err := reset(r); err != nil {
				return err
			}
			return move(r)
		}
		return nil
	}
	// Burn in so every belief starts near its steady state.
	for _, r := range fleet {
		for k := 0; k < 20; k++ {
			if err := step(r); err != nil {
				return nil, err
			}
		}
	}
	ops := make([]op, n)
	var order []int
	for i := range ops {
		if i%fleetSize == 0 {
			order = rng.Perm(fleetSize)
		}
		r := fleet[order[i%fleetSize]]
		if err := step(r); err != nil {
			return nil, err
		}
		m, cov := r.f.Mean(), r.f.Cov()
		ops[i] = op{kind: opQuery, query: server.QueryRequest{
			Center: []float64{m[0], m[1]}, Cov: covRows(cov), Delta: paperDelta, Theta: paperTheta, Strategy: paperStrategy,
		}}
	}
	return ops, nil
}

func clamp(v, lo, hi float64) float64 { return math.Max(lo, math.Min(hi, v)) }

// spec returns the query's library form.
func (o *op) spec() gaussrange.QuerySpec { return o.query.Spec() }
