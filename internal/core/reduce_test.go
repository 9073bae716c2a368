package core

import (
	"math"
	"testing"

	"fedmigr/internal/nn"
	"fedmigr/internal/sched"
	"fedmigr/internal/tensor"
)

// weightedParamSum computes Σᵢ ws[i]·ParamVector(ms[i]) with a fixed
// binary-tree reduction — the buffered oracle the streaming path is
// parity-tested against. The tree's shape depends only on len(ms), never
// on the worker count or on job completion order, so the float64 result
// is identical for serial and parallel runs — the determinism contract
// aggregation and evaluation rely on (DESIGN.md §5).
//
// Leaves (scaled parameter vectors) are materialized in parallel: each job
// writes only its own terms[i]. Each tree level then adds pairs at fixed
// positions — terms[i] += terms[i+span] — which are disjoint, so levels
// parallelize too. The scratch leaves are recycled through the arena.
// Peak live memory is O(len(ms) · params): every leaf exists at once,
// which is exactly what the streaming accumulator avoids.
func weightedParamSum(pool *sched.Pool, ms []*nn.Sequential, ws []float64) *tensor.Tensor {
	terms := make([]*tensor.Tensor, len(ms))
	pool.ForEach("param_sum_leaves", len(ms), func(i int) {
		v := tensor.GetScratch(ms[i].NumParams())
		ms[i].ParamVectorInto(v)
		v.ScaleInPlace(ws[i])
		terms[i] = v
	})
	for span := 1; span < len(terms); span *= 2 {
		var pairs []int
		for i := 0; i+span < len(terms); i += 2 * span {
			pairs = append(pairs, i)
		}
		pool.ForEach("param_sum_level", len(pairs), func(j int) {
			i := pairs[j]
			terms[i].AddInPlace(terms[i+span])
			tensor.PutScratch(terms[i+span])
			terms[i+span] = nil
		})
	}
	if len(terms) == 0 {
		return nil
	}
	return terms[0]
}

// TestStreamingParamSumMatchesBuffered pins the production reduction to
// the buffered oracle bit for bit: for every operand count 1..33 (every
// shape of partial tree up to two full levels past 16), flat and grouped
// onto 4 or 16 simulated edge aggregators with an interleaved slot split.
func TestStreamingParamSumMatchesBuffered(t *testing.T) {
	pool := sched.New(4)
	defer pool.Close()
	g := tensor.NewRNG(21)
	const maxOperands = 33
	ms := make([]*nn.Sequential, maxOperands)
	ws := make([]float64, maxOperands)
	for i := range ms {
		ms[i] = nn.NewSequential(nn.NewDense(g, 5, 3), nn.NewReLU(), nn.NewDense(g, 3, 2))
		ws[i] = g.Float64()
	}
	for n := 1; n <= maxOperands; n++ {
		want := weightedParamSum(pool, ms[:n], ws[:n])
		for _, groups := range []int{0, 4, 16} {
			var groupSlots [][]int
			if groups > 0 {
				groupSlots = make([][]int, groups)
				for slot := 0; slot < n; slot++ {
					groupSlots[slot%groups] = append(groupSlots[slot%groups], slot)
				}
			}
			got, _ := streamingParamSum(ms[:n], ws[:n], groupSlots)
			for i, w := range want.Data() {
				if math.Float64bits(got.Data()[i]) != math.Float64bits(w) {
					t.Fatalf("n=%d groups=%d: element %d = %v, buffered oracle %v", n, groups, i, got.Data()[i], w)
				}
			}
			tensor.PutScratch(got)
		}
		tensor.PutScratch(want)
	}
}
