package core

import (
	"sort"

	"fedmigr/internal/tensor"
)

// cohortSampler draws the per-round participant cohort in cohort mode
// (Config.CohortSize > 0). Each round uses a private RNG stream derived
// from (Seed, round), so the draw is deterministic across worker counts,
// independent of every other random stream in the run, and reproducible
// after a checkpoint resume: Trainer.Restore puts the round counter back
// where the uninterrupted run had it.
type cohortSampler struct {
	k, size, min int
	seed         int64
}

// roundSeed derives the cohort stream for one round — the same
// splitmix64-style mix modelEpochSeed uses, with a distinct stream
// constant so cohort draws never correlate with training stochasticity.
func roundSeed(seed int64, round int) int64 {
	z := uint64(seed) ^ 0xd6e8feb86659fd93*uint64(round+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// sample returns the round's cohort, sorted ascending (the sort fixes the
// slot order of the aggregation tree). The draw is quorum-aware: when
// fault churn leaves fewer than min active clients in the raw draw,
// inactive draws are swapped for the next active spares in permutation
// order — still a pure function of (seed, round, active mask), so partial
// streaming aggregation under faults stays deterministic.
func (s *cohortSampler) sample(round int, active []bool) []int {
	size := s.size
	if size > s.k {
		size = s.k
	}
	g := tensor.NewRNG(roundSeed(s.seed, round))
	perm := g.Perm(s.k)
	cohort := append([]int(nil), perm[:size]...)
	act := 0
	for _, c := range cohort {
		if active[c] {
			act++
		}
	}
	if act < s.min {
		spares := perm[size:]
		si := 0
		for i := range cohort {
			if act >= s.min {
				break
			}
			if active[cohort[i]] {
				continue
			}
			for si < len(spares) && !active[spares[si]] {
				si++
			}
			if si >= len(spares) {
				break // not enough active clients anywhere
			}
			cohort[i] = spares[si]
			si++
			act++
		}
	}
	sort.Ints(cohort)
	return cohort
}
