package fedmigr

import (
	"crypto/sha256"
	"runtime"
	"testing"
)

// streamOpts is the shared shape of the parity runs: 16 clients so a
// fan-out of 16 degenerates to one client per simulated aggregator, the
// FedMigr scheme with the greedy migrator so models change hosts between
// rounds (the case that historically broke sibling alignment), and two
// aggregation rounds.
func streamOpts() Options {
	return Options{
		Scheme:    SchemeFedMigr,
		Migrator:  MigratorGreedyEMD,
		Model:     ModelMLP,
		Clients:   16,
		LANs:      4,
		PerClass:  8,
		Epochs:    4,
		AggEvery:  2,
		BatchSize: 8,
		EvalEvery: 2,
		Seed:      7,
	}
}

func runDigest(t *testing.T, o Options) [32]byte {
	t.Helper()
	sim, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	b, err := sim.Trainer.GlobalModel().MarshalParams()
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b)
}

// TestStreamingAggregationParity is the end-to-end proof that the
// streaming accumulator produces bit-identical global parameters for every
// worker count and edge-aggregator fan-out. The reduction tree's shape is
// fixed by the slot set alone, so WHERE the partial sums are computed
// (flat, or grouped onto 1/4/16 simulated aggregators) must never leak
// into the float64 result. The flat fold itself is pinned to the buffered
// tree by internal/core's TestStreamingParamSumMatchesBuffered.
func TestStreamingAggregationParity(t *testing.T) {
	base := streamOpts()
	base.Workers = 1
	want := runDigest(t, base)

	for _, workers := range []int{1, 8} {
		for _, fanout := range []int{1, 4, 16} {
			o := streamOpts()
			o.Workers = workers
			o.Aggregators = fanout
			if got := runDigest(t, o); got != want {
				t.Fatalf("workers=%d aggregators=%d: model diverges from the workers=1 flat fold", workers, fanout)
			}
		}
	}
}

// TestStreamingCohortParity extends the parity claim to cohort mode:
// sampling 8 of 16 clients per round with lazy hydration must pick the
// same cohorts (seeded, round-derived) and fold their uploads to the same
// bits whether the reduction is flat or streamed through a fan-out.
func TestStreamingCohortParity(t *testing.T) {
	cohortOpts := func() Options {
		o := streamOpts()
		o.Scheme = SchemeFedAvg
		o.CohortSize = 8
		return o
	}
	base := cohortOpts()
	base.Workers = 1
	want := runDigest(t, base)

	for _, fanout := range []int{1, 4, 16} {
		o := cohortOpts()
		o.Workers = 8
		o.Aggregators = fanout
		if got := runDigest(t, o); got != want {
			t.Fatalf("aggregators=%d: cohort model diverges from the workers=1 flat fold", fanout)
		}
	}
}

// Test100kClientStreamingSmoke runs a 100 000-client federated round for
// real — no mocked trainer — and asserts the three O(1)-memory claims
// hold together: replicated partitioning keeps dataset memory at the pool
// size, cohort sampling keeps at most CohortSize replicas hydrated, and
// the streaming fold never materializes more than the reduction frontier.
// The post-GC heap ceiling is the regression tripwire: the buffered path
// at this scale would need ~100k × model-size of leaf scratch and blow
// straight through it.
func Test100kClientStreamingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-client smoke skipped in -short mode")
	}
	const (
		k      = 100_000
		cohort = 64
	)
	sim, err := New(Options{
		Scheme:        SchemeFedAvg,
		Model:         ModelMLP,
		Partition:     PartitionReplicate,
		ReplicaShards: 64,
		Clients:       k,
		LANs:          16,
		PerClass:      32,
		Epochs:        3,
		AggEvery:      1,
		BatchSize:     8,
		EvalEvery:     2,
		CohortSize:    cohort,
		Aggregators:   16,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	if res.Rounds != 2 {
		t.Fatalf("smoke run finished %d rounds, want 2", res.Rounds)
	}
	if got := sim.Trainer.MaxHydrated(); got != cohort {
		t.Fatalf("peak hydrated replicas = %d, want exactly the cohort size %d", got, cohort)
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	const ceiling = 256 << 20
	if ms.HeapAlloc > ceiling {
		t.Fatalf("post-run heap %.1f MB exceeds the %d MB ceiling: memory is not independent of the client count",
			float64(ms.HeapAlloc)/(1<<20), ceiling>>20)
	}
	t.Logf("100k clients: heap=%.1fMB max_hydrated=%d final_acc=%.3f",
		float64(ms.HeapAlloc)/(1<<20), sim.Trainer.MaxHydrated(), res.FinalAcc)
}
