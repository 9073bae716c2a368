package core

import (
	"testing"

	"fedmigr/internal/edgenet"
	"fedmigr/internal/faults"
	"fedmigr/internal/nn"
)

// TestRunMatchesRunRounds guards the one round loop: with evaluation on
// every round boundary and full participation, Run's per-round records
// equal what the same number of RunRound calls record. Round labels differ
// by design (Run records before the boundary aggregation, RunRound after).
func TestRunMatchesRunRounds(t *testing.T) {
	const tau, aggEvery, rounds = 2, 3, 3
	for _, scheme := range []SchemeKind{FedAvg, FedSwap, FedMigr} {
		t.Run(scheme.String(), func(t *testing.T) {
			build := func() *Trainer {
				clients, topo, test, factory := buildSetup(t, 6, 2, false, 41)
				var mig Migrator
				if scheme == FedMigr {
					mig = &GreedyEMDMigrator{CostWeight: 0.1}
				}
				tr, err := NewTrainer(Config{
					Scheme: scheme, Tau: tau, AggEvery: aggEvery, MaxEpochs: rounds * tau * aggEvery,
					EvalEvery: tau * aggEvery, Workers: 1, Seed: 41,
				}, clients, topo, edgenet.DefaultCostModel(), test, factory, mig)
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}
			run := build().Run().History
			stepper := build()
			defer stepper.Close()
			var stepped []RoundMetrics
			for r := 0; r < rounds; r++ {
				stepped = append(stepped, stepper.RunRound(nil))
			}
			if len(run) != rounds {
				t.Fatalf("Run recorded %d rows, want %d", len(run), rounds)
			}
			for i, a := range run {
				b := stepped[i]
				if a.Epoch != b.Epoch || a.TrainLoss != b.TrainLoss || a.TestAcc != b.TestAcc {
					t.Fatalf("round %d: Run (epoch %d, loss %v, acc %v) != RunRound (epoch %d, loss %v, acc %v)",
						i, a.Epoch, a.TrainLoss, a.TestAcc, b.Epoch, b.TrainLoss, b.TestAcc)
				}
			}
		})
	}
}

// TestBoundaryCrashSkipsDownload: a client that crashes exactly on a round
// boundary is down before that boundary's distribution, so it is not sent
// the new global model. The only traffic the crash saves in this run is
// that one download (the aggregation at the boundary still collects its
// last upload; the run ends without another aggregation).
func TestBoundaryCrashSkipsDownload(t *testing.T) {
	c2s := func(plan *faults.Plan) (int64, int64) {
		clients, topo, test, factory := buildSetup(t, 6, 2, false, 43)
		tr, err := NewTrainer(Config{
			Scheme: FedAvg, AggEvery: 5, MaxEpochs: 10, Workers: 1, Seed: 43, Faults: plan,
		}, clients, topo, edgenet.DefaultCostModel(), test, factory, nil)
		if err != nil {
			t.Fatal(err)
		}
		return tr.Run().Snapshot.C2SBytes, tr.GlobalModel().ByteSize()
	}
	healthy, size := c2s(nil)
	crashed, _ := c2s(faults.NewPlan(43).CrashAt(2, 5))
	if healthy-crashed != size {
		t.Fatalf("crash on the round boundary saved %d C2S bytes, want one %d-byte download (healthy %d, crashed %d)",
			healthy-crashed, size, healthy, crashed)
	}
}

// TestRoundHookGetsScoredModel: the model handed to the round hook is the
// one its record scored, so a checkpoint taken from the hook reproduces the
// record's accuracy — for Run and RunRound, with and without cohort
// sampling.
func TestRoundHookGetsScoredModel(t *testing.T) {
	for _, tc := range []struct {
		name      string
		cohort    int
		runRounds bool
	}{
		{"run", 0, false},
		{"run-cohort", 3, false},
		{"runround-cohort", 3, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clients, topo, test, factory := buildSetup(t, 6, 2, false, 47)
			tr, err := NewTrainer(Config{
				Scheme: FedMigr, AggEvery: 3, MaxEpochs: 12, CohortSize: tc.cohort, Workers: 1, Seed: 47,
			}, clients, topo, edgenet.DefaultCostModel(), test, factory, &GreedyEMDMigrator{CostWeight: 0.1})
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			type hooked struct {
				rm    RoundMetrics
				model *nn.Sequential
			}
			var got []hooked
			tr.SetRoundHook(func(rm RoundMetrics, m *nn.Sequential) { got = append(got, hooked{rm, m}) })
			if tc.runRounds {
				for r := 0; r < 4; r++ {
					tr.RunRound(nil)
				}
			} else {
				tr.Run()
			}
			if len(got) != 4 {
				t.Fatalf("hook fired %d times, want 4", len(got))
			}
			for _, h := range got {
				if acc := tr.accuracy(h.model); acc != h.rm.TestAcc {
					t.Fatalf("epoch %d: hook model scores %v, record says %v", h.rm.Epoch, acc, h.rm.TestAcc)
				}
			}
		})
	}
}
