// Package qp solves the relaxed FLMM migration-assignment problem of
// Sec. III-D. The paper relaxes the 0/1 migration variables p_ij to
// [0,1] and solves the resulting quadratic program with CVX; offline we
// implement the same relaxation with projected-gradient ascent over the
// row-stochastic polytope (each client's model is forwarded to exactly one
// destination in expectation), followed by rounding. The solver doubles as
// the "S-COP" baseline timed in Fig. 6.
//
// SolveAssignment is the package's one exact assignment solver: a
// Hungarian method over any rows ≤ cols instance, serving both the square
// model→destination problem (core.OptimalAssignmentMigrator) and the
// fleet allocator's job slots × clients rectangle.
package qp

import (
	"fmt"
	"math"
	"sort"

	"fedmigr/internal/tensor"
)

// Problem is a relaxed migration-assignment instance.
//
// Utility[i][j] is the estimated benefit of migrating client i's model to
// client j (diagonal = keep the model in place). The solver maximizes
//
//	Σ_ij P_ij·U_ij − (Mu/2)·‖P‖² − Lambda·Σ_j load_j²
//
// over row-stochastic P, where load_j = Σ_i P_ij. The quadratic terms make
// the relaxation a strongly concave QP (unique optimum) and the load term
// discourages piling every model onto one destination.
type Problem struct {
	Utility [][]float64
	// Mu is the strong-concavity regularizer (default 1).
	Mu float64
	// Lambda penalizes destination load concentration (default 0.1).
	Lambda float64
	// Iters is the projected-gradient iteration count (default 50).
	Iters int
	// Step is the gradient step size (default 0.5/Mu-ish; see Solve).
	Step float64
}

// K returns the instance size.
func (p *Problem) K() int { return len(p.Utility) }

func (p *Problem) withDefaults() Problem {
	q := *p
	if q.Mu <= 0 {
		q.Mu = 1
	}
	if q.Lambda < 0 {
		q.Lambda = 0
	} else if q.Lambda == 0 {
		q.Lambda = 0.1
	}
	if q.Iters <= 0 {
		q.Iters = 50
	}
	if q.Step <= 0 {
		q.Step = 0.5 / (q.Mu + 2*q.Lambda*float64(q.K()))
	}
	return q
}

// Validate reports an error for malformed instances.
func (p *Problem) Validate() error {
	k := len(p.Utility)
	if k == 0 {
		return fmt.Errorf("qp: empty utility matrix")
	}
	for i, row := range p.Utility {
		if len(row) != k {
			return fmt.Errorf("qp: utility row %d has %d entries, want %d", i, len(row), k)
		}
		for j, u := range row {
			if math.IsNaN(u) || math.IsInf(u, 0) {
				return fmt.Errorf("qp: utility[%d][%d] = %v", i, j, u)
			}
		}
	}
	return nil
}

// Solve runs projected-gradient ascent and returns the relaxed
// row-stochastic assignment matrix.
func (p *Problem) Solve() [][]float64 {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	q := p.withDefaults()
	k := q.K()
	// Start from the uniform assignment.
	P := make([][]float64, k)
	for i := range P {
		P[i] = make([]float64, k)
		for j := range P[i] {
			P[i][j] = 1 / float64(k)
		}
	}
	grad := make([]float64, k)
	load := make([]float64, k)
	for it := 0; it < q.Iters; it++ {
		for j := range load {
			load[j] = 0
		}
		for i := range P {
			for j, v := range P[i] {
				load[j] += v
			}
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				grad[j] = q.Utility[i][j] - q.Mu*P[i][j] - 2*q.Lambda*load[j]
			}
			for j := 0; j < k; j++ {
				P[i][j] += q.Step * grad[j]
			}
			ProjectSimplex(P[i])
		}
	}
	return P
}

// Objective evaluates the regularized objective at P (for tests and
// monitoring).
func (p *Problem) Objective(P [][]float64) float64 {
	q := p.withDefaults()
	k := q.K()
	obj := 0.0
	load := make([]float64, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			obj += P[i][j]*q.Utility[i][j] - q.Mu/2*P[i][j]*P[i][j]
			load[j] += P[i][j]
		}
	}
	for _, l := range load {
		obj -= q.Lambda * l * l
	}
	return obj
}

// ProjectSimplex projects v in place onto the probability simplex
// {x : x ≥ 0, Σx = 1} using the O(n log n) sort-based algorithm of
// Held/Wolfe/Crowder.
func ProjectSimplex(v []float64) {
	n := len(v)
	if n == 0 {
		return
	}
	u := append([]float64(nil), v...)
	sort.Sort(sort.Reverse(sort.Float64Slice(u)))
	css := 0.0
	rho, theta := -1, 0.0
	for i, ui := range u {
		css += ui
		t := (css - 1) / float64(i+1)
		if ui-t > 0 {
			rho, theta = i, t
		}
	}
	if rho < 0 {
		// All entries project to the uniform vertex (degenerate input).
		for i := range v {
			v[i] = 1 / float64(n)
		}
		return
	}
	for i, x := range v {
		x -= theta
		if x < 0 {
			x = 0
		}
		v[i] = x
	}
}

// RoundArgmax rounds a relaxed assignment to integer destinations:
// dest[i] = argmax_j P[i][j].
func RoundArgmax(P [][]float64) []int {
	dest := make([]int, len(P))
	for i, row := range P {
		bi := 0
		for j, v := range row {
			if v > row[bi] {
				bi = j
			}
		}
		dest[i] = bi
	}
	return dest
}

// RoundSample rounds a relaxed assignment by sampling each row as a
// categorical distribution — the stochastic rounding used during
// exploration so the agent sees diverse feasible actions.
func RoundSample(P [][]float64, g *tensor.RNG) []int {
	dest := make([]int, len(P))
	for i, row := range P {
		r := g.Float64()
		acc := 0.0
		dest[i] = len(row) - 1
		for j, v := range row {
			acc += v
			if r < acc {
				dest[i] = j
				break
			}
		}
	}
	return dest
}

// BuildUtility assembles the utility matrix the FLMM relaxation maximizes:
// the data-distribution difference D[i][j] (migrating toward different data
// shrinks EMD fastest — Sec. III-A) minus the normalized communication
// cost of the transfer. costWeight trades the two off; remainingBudget
// scales cost pressure up as the budget drains.
func BuildUtility(d [][]float64, costSeconds [][]float64, costWeight, remainingBudgetFrac float64) [][]float64 {
	k := len(d)
	u := make([][]float64, k)
	pressure := costWeight
	if remainingBudgetFrac < 1 && remainingBudgetFrac > 0 {
		pressure = costWeight / remainingBudgetFrac
	}
	var maxCost float64
	for i := range costSeconds {
		for _, c := range costSeconds[i] {
			if c > maxCost {
				maxCost = c
			}
		}
	}
	if maxCost == 0 {
		maxCost = 1
	}
	for i := 0; i < k; i++ {
		u[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			u[i][j] = d[i][j] - pressure*costSeconds[i][j]/maxCost
		}
	}
	return u
}
