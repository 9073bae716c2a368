package fedmigr

import (
	"testing"

	"fedmigr/internal/checkpoint"
	"fedmigr/internal/core"
	"fedmigr/internal/faults"
	"fedmigr/internal/nn"
)

// TestSingleJobResumeMatchesUninterrupted replays fedmigr-sim's default
// FedAvg workload with a crash at epoch 12 twice: once for 20 epochs, and
// once as 10 epochs checkpointed after every evaluation followed by a
// RestoreState resume to 20. The resumed rows must carry the uninterrupted
// run's epochs, round labels, losses and accuracies bit for bit — which
// needs the checkpoint to hold the model the record scored, the round
// counter to be restored, and the crash to fire at its absolute epoch.
func TestSingleJobResumeMatchesUninterrupted(t *testing.T) {
	opts := func(epochs int) Options {
		return Options{
			Scheme: SchemeFedAvg, Model: ModelMLP, Clients: 10, LANs: 3,
			PerClass: 20, Noise: 1.6, Epochs: epochs, AggEvery: 5, Tau: 1,
			LR: 0.05, BatchSize: 32, Workers: 1, Seed: 1,
			Faults: faults.NewPlan(1).CrashAt(3, 12),
		}
	}
	full, err := Run(opts(20))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	first, err := New(opts(10))
	if err != nil {
		t.Fatal(err)
	}
	first.Trainer.SetRoundHook(func(_ core.RoundMetrics, scored *nn.Sequential) {
		if err := checkpoint.SaveRunState(dir, scored, first.Trainer.History()); err != nil {
			t.Fatal(err)
		}
	})
	first.Run()

	resumed, err := New(opts(20))
	if err != nil {
		t.Fatal(err)
	}
	prior, err := resumed.RestoreState(dir)
	if err != nil {
		t.Fatal(err)
	}
	after := resumed.Run().History

	key := func(m core.RoundMetrics) [4]float64 {
		return [4]float64{float64(m.Epoch), float64(m.Round), m.TrainLoss, m.TestAcc}
	}
	// The checkpointed rows round-trip through CSV at 8 significant digits;
	// the rows after the resume point are compared bit for bit.
	if len(prior)+len(after) != len(full.History) {
		t.Fatalf("resumed history has %d+%d rows, uninterrupted %d", len(prior), len(after), len(full.History))
	}
	for i, want := range full.History[len(prior):] {
		if got := after[i]; key(got) != key(want) {
			t.Errorf("epoch %d: resumed (epoch, round, loss, acc) = %v, uninterrupted %v", want.Epoch, key(got), key(want))
		}
	}
}
