package qp

import (
	"fmt"
	"math"
)

// SolveAssignment computes an exact maximum-utility assignment with the
// Hungarian algorithm: utility[i][j] is the value of giving row i (a model,
// or a job slot) column j (a destination client), and every row receives a
// distinct column. Instances must have rows ≤ cols; the square case is the
// paper's one-destination-per-model problem, the wide case the fleet
// allocator's slots × clients. dest[i] is row i's column and total the
// summed utility of the assignment.
//
// It is the exact counterpart of the relaxed FLMM solver: Solve+Round
// approximates it under capacity-1 semantics, and the tests bound the
// approximation gap. The relaxation exists because the *general* FLMM
// with budgets is NP-hard (Sec. II-D).
//
// The e-maxx potential method runs over the columns directly, so cost is
// O(rows²·cols) with O(rows + cols) scratch — no padding to a square.
// A column no row takes is never settled by a search, so its potential
// stays zero, as the zero-utility phantom rows of a padded square would
// leave it.
func SolveAssignment(utility [][]float64) ([]int, float64, error) {
	n := len(utility)
	if n == 0 {
		return nil, 0, fmt.Errorf("qp: empty assignment instance")
	}
	m := len(utility[0])
	if n > m {
		return nil, 0, fmt.Errorf("qp: assignment instance has %d rows but only %d columns", n, m)
	}
	for i, row := range utility {
		if len(row) != m {
			return nil, 0, fmt.Errorf("qp: utility row %d has %d entries, want %d", i, len(row), m)
		}
	}
	// Hungarian algorithm solves min-cost; utilities are negated on read.
	// Rows and columns are 1-based; column 0 is the virtual start column.
	const inf = math.MaxFloat64 / 4
	u := make([]float64, n+1)
	v := make([]float64, m+1)
	p := make([]int, m+1) // p[j] = row assigned to column j
	way := make([]int, m+1)
	minv := make([]float64, m+1)
	used := make([]bool, m+1)
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		for j := 0; j <= m; j++ {
			minv[j] = inf
			used[j] = false
		}
		for {
			used[j0] = true
			i0 := p[j0]
			delta := inf
			j1 := 0
			for j := 1; j <= m; j++ {
				if used[j] {
					continue
				}
				cur := -utility[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	dest := make([]int, n)
	total := 0.0
	for j := 1; j <= m; j++ {
		if p[j] > 0 {
			dest[p[j]-1] = j - 1
			total += utility[p[j]-1][j-1]
		}
	}
	return dest, total, nil
}

// AssignmentValue evaluates a destination vector against a utility matrix.
func AssignmentValue(utility [][]float64, dest []int) float64 {
	total := 0.0
	for i, j := range dest {
		if j >= 0 && j < len(utility[i]) {
			total += utility[i][j]
		}
	}
	return total
}
