package qp

import (
	"math"
	"strconv"
	"testing"
	"testing/quick"

	"fedmigr/internal/tensor"
)

func TestHungarianKnownCase(t *testing.T) {
	u := [][]float64{
		{9, 2, 7},
		{6, 4, 3},
		{5, 8, 1},
	}
	dest, val, err := SolveAssignment(u)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: 0→2 (7), 1→0 (6), 2→1 (8) = 21.
	if math.Abs(val-21) > 1e-12 {
		t.Fatalf("value %v want 21 (dest %v)", val, dest)
	}
	if dest[0] != 2 || dest[1] != 0 || dest[2] != 1 {
		t.Fatalf("dest %v", dest)
	}
}

func TestHungarianIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		n := 2 + g.Intn(8)
		u := make([][]float64, n)
		for i := range u {
			u[i] = make([]float64, n)
			for j := range u[i] {
				u[i][j] = g.NormFloat64()
			}
		}
		dest, val, err := SolveAssignment(u)
		if err != nil {
			return false
		}
		seen := make([]bool, n)
		for _, d := range dest {
			if d < 0 || d >= n || seen[d] {
				return false
			}
			seen[d] = true
		}
		return math.Abs(val-AssignmentValue(u, dest)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the exact assignment dominates any other permutation —
// verified by brute force for n ≤ 5.
func TestHungarianOptimalVsBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		n := 2 + g.Intn(4)
		u := make([][]float64, n)
		for i := range u {
			u[i] = make([]float64, n)
			for j := range u[i] {
				u[i][j] = g.NormFloat64() * 3
			}
		}
		_, val, err := SolveAssignment(u)
		if err != nil {
			return false
		}
		best := bruteForceAssignment(u)
		return math.Abs(val-best) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// The relaxed projected-gradient solver with argmax rounding should land
// within a reasonable factor of the exact assignment on random instances.
func TestRelaxationApproximatesExact(t *testing.T) {
	g := tensor.NewRNG(5)
	trials, ok := 0, 0
	for trial := 0; trial < 20; trial++ {
		n := 4 + g.Intn(5)
		u := make([][]float64, n)
		for i := range u {
			u[i] = make([]float64, n)
			for j := range u[i] {
				u[i][j] = g.Float64() * 2 // non-negative utilities
			}
		}
		_, exact, err := SolveAssignment(u)
		if err != nil {
			t.Fatal(err)
		}
		p := &Problem{Utility: u, Lambda: 1, Iters: 100}
		approx := AssignmentValue(u, RoundArgmax(p.Solve()))
		trials++
		if approx >= 0.6*exact {
			ok++
		}
	}
	if ok < trials*3/4 {
		t.Fatalf("relaxation within 60%% of exact on only %d/%d instances", ok, trials)
	}
}

func TestHungarianErrors(t *testing.T) {
	if _, _, err := SolveAssignment(nil); err == nil {
		t.Fatal("empty instance must fail")
	}
	if _, _, err := SolveAssignment([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged instance must fail")
	}
}

func TestRectAssignmentKnownCases(t *testing.T) {
	// Wide: 2 slots over 4 clients — both rows assigned, best columns win.
	u := [][]float64{
		{1, 9, 2, 3},
		{8, 7, 1, 1},
	}
	dest, val, err := SolveAssignment(u)
	if err != nil {
		t.Fatal(err)
	}
	if dest[0] != 1 || dest[1] != 0 || math.Abs(val-17) > 1e-12 {
		t.Fatalf("dest %v val %v, want [1 0] 17", dest, val)
	}
	// One row: the argmax column.
	dest, val, err = SolveAssignment([][]float64{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if dest[0] != 1 || math.Abs(val-2) > 1e-12 {
		t.Fatalf("dest %v val %v, want [1] 2", dest, val)
	}
}

// Property: for random small instances with rows ≤ cols, the solver
// matches a brute-force search over every injective row→column map, and
// the returned dest is injective and in range.
func TestRectAssignmentVsBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		rows := 1 + g.Intn(4)
		cols := rows + g.Intn(4)
		u := make([][]float64, rows)
		for i := range u {
			u[i] = make([]float64, cols)
			for j := range u[i] {
				u[i][j] = g.NormFloat64() * 3
			}
		}
		dest, val, err := SolveAssignment(u)
		if err != nil || !injective(dest, cols) {
			return false
		}
		return math.Abs(val-bruteForceAssignment(u)) < 1e-9 &&
			math.Abs(val-AssignmentValue(u, dest)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func injective(dest []int, cols int) bool {
	seen := make([]bool, cols)
	for _, d := range dest {
		if d < 0 || d >= cols || seen[d] {
			return false
		}
		seen[d] = true
	}
	return true
}

// bruteForceAssignment maximizes total utility over every injective map
// of the rows to distinct columns (rows ≤ cols).
func bruteForceAssignment(u [][]float64) float64 {
	rows, cols := len(u), len(u[0])
	used := make([]bool, cols)
	best := math.Inf(-1)
	var rec func(row int, sum float64)
	rec = func(row int, sum float64) {
		if row == rows {
			if sum > best {
				best = sum
			}
			return
		}
		for j := 0; j < cols; j++ {
			if used[j] {
				continue
			}
			used[j] = true
			rec(row+1, sum+u[row][j])
			used[j] = false
		}
	}
	rec(0, 0)
	return best
}

// paddedAssignmentValue is the optimal-value oracle for instances too
// large to brute-force: the rectangle is zero-padded to a square, whose
// phantom rows absorb the unused columns without contributing value, and
// solved as a square instance in O(cols³).
func paddedAssignmentValue(u [][]float64) (float64, error) {
	cols := len(u[0])
	padded := make([][]float64, cols)
	for i := range padded {
		padded[i] = make([]float64, cols)
		if i < len(u) {
			copy(padded[i], u[i])
		}
	}
	dest, _, err := SolveAssignment(padded)
	if err != nil {
		return 0, err
	}
	return AssignmentValue(u, dest[:len(u)]), nil
}

// The native rectangular solve matches the padded square oracle's optimum
// on instances shaped like the fleet allocator's: uniform utilities,
// integer utilities with many tied optima, and a quarter of the pairs
// forbidden with the allocator's large finite penalty.
func TestRectAssignmentMatchesPaddedOracle(t *testing.T) {
	g := tensor.NewRNG(11)
	for trial := 0; trial < 60; trial++ {
		rows := 1 + g.Intn(24)
		cols := rows + g.Intn(40)
		u := make([][]float64, rows)
		for i := range u {
			u[i] = make([]float64, cols)
			for j := range u[i] {
				switch trial % 3 {
				case 0:
					u[i][j] = g.Float64()
				case 1:
					u[i][j] = float64(g.Intn(4))
				case 2:
					u[i][j] = g.Float64()
					if g.Intn(4) == 0 {
						u[i][j] = -1e18
					}
				}
			}
		}
		dest, val, err := SolveAssignment(u)
		if err != nil {
			t.Fatal(err)
		}
		if !injective(dest, cols) {
			t.Fatalf("trial %d: dest %v is not injective over %d columns", trial, dest, cols)
		}
		want, err := paddedAssignmentValue(u)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(val-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("trial %d (%dx%d): value %v, padded oracle %v", trial, rows, cols, val, want)
		}
	}
}

func TestRectAssignmentErrors(t *testing.T) {
	if _, _, err := SolveAssignment([][]float64{{}}); err == nil {
		t.Fatal("zero-column instance must fail")
	}
	if _, _, err := SolveAssignment([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged instance must fail")
	}
	// Tall: more rows than columns cannot give every row a column.
	if _, _, err := SolveAssignment([][]float64{{5, 1}, {4, 4}, {1, 6}}); err == nil {
		t.Fatal("tall instance must fail")
	}
}

// BenchmarkAssignment times allocator-shaped instances: a handful of job
// slots over a much larger client pool, with independent uniform rows,
// plus the fleet's worst case, where every slot shares one utility row
// (all jobs rank clients alike) separated only by the allocator's 1e-6
// tie-break jitter. bench.sh records it into BENCH_jobs.json.
func BenchmarkAssignment(b *testing.B) {
	for _, size := range []struct {
		slots, clients int
		shared         bool
	}{{16, 64, false}, {24, 256, false}, {48, 1000, false}, {192, 1000, true}} {
		name := "slots=" + strconv.Itoa(size.slots) + "/clients=" + strconv.Itoa(size.clients)
		if size.shared {
			name = "shared/" + name
		}
		b.Run(name, func(b *testing.B) {
			g := tensor.NewRNG(7)
			base := make([]float64, size.clients)
			for j := range base {
				base[j] = g.Float64()
			}
			u := make([][]float64, size.slots)
			for i := range u {
				u[i] = make([]float64, size.clients)
				for j := range u[i] {
					if size.shared {
						u[i][j] = base[j] + 1e-6*g.Float64()
					} else {
						u[i][j] = g.Float64()
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := SolveAssignment(u); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
