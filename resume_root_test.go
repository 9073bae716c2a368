package fedmigr

import (
	"errors"
	"strings"
	"testing"

	"fedmigr/internal/checkpoint"
	"fedmigr/internal/core"
	"fedmigr/internal/faults"
	"fedmigr/internal/fleet"
	"fedmigr/internal/nn"
)

// resumeKey is the part of a metrics record a resume must reproduce bit
// for bit: progress, loss, accuracy and the traffic ledger. Wall time is
// left out: the cost model's jitter stream is not checkpointed.
type resumeKey struct {
	epoch, round int
	loss, acc    float64
	total, c2s   int64
	transfers    int
}

func keyOf(m core.RoundMetrics) resumeKey {
	return resumeKey{m.Epoch, m.Round, m.TrainLoss, m.TestAcc,
		m.Snapshot.TotalBytes, m.Snapshot.C2SBytes, m.Snapshot.NumTransfers}
}

// resumeSingle runs opts(first) epochs saving a run state after every
// evaluation, then restores it into a fresh opts(total) simulation and
// finishes the run. It returns the resumed run's full history and result.
func resumeSingle(t *testing.T, opts func(epochs int) Options, first, total int) ([]core.RoundMetrics, *Result) {
	t.Helper()
	dir := t.TempDir()
	sim, err := New(opts(first))
	if err != nil {
		t.Fatal(err)
	}
	sim.Trainer.SetRoundHook(func(_ core.RoundMetrics, scored *nn.Sequential) {
		if err := sim.SaveState(dir, scored); err != nil {
			t.Fatal(err)
		}
	})
	sim.Run()

	resumed, err := New(opts(total))
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RestoreState(dir); err != nil {
		t.Fatal(err)
	}
	res := resumed.Run()
	return resumed.History(), res
}

// TestSingleJobResumeMatchesUninterrupted replays fedmigr-sim's default
// FedAvg workload with a crash at epoch 12 twice: once for 20 epochs, and
// once as 10 epochs checkpointed after every evaluation followed by a
// RestoreState resume to 20. Every row, the checkpointed ones included,
// must carry the uninterrupted run's epochs, round labels, losses,
// accuracies and traffic ledger bit for bit — which needs the checkpoint
// to hold the model the record scored, the round counter, the ledger with
// the pending round's uploads, and the crash to fire at its absolute epoch.
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
	got, res := resumeSingle(t, opts, 10, 20)
	if len(got) != len(full.History) {
		t.Fatalf("resumed history has %d rows, uninterrupted %d", len(got), len(full.History))
	}
	for i, want := range full.History {
		if keyOf(got[i]) != keyOf(want) {
			t.Errorf("row %d: resumed %+v, uninterrupted %+v", i, keyOf(got[i]), keyOf(want))
		}
	}
	if res.Snapshot.TotalBytes != full.Snapshot.TotalBytes || res.Snapshot.NumTransfers != full.Snapshot.NumTransfers {
		t.Errorf("resumed totals %d bytes / %d transfers, uninterrupted %d / %d",
			res.Snapshot.TotalBytes, res.Snapshot.NumTransfers, full.Snapshot.TotalBytes, full.Snapshot.NumTransfers)
	}
}

// TestBandwidthBudgetResumeStopsLikeUninterrupted: under a 4 MB bandwidth
// budget the uninterrupted run stops at epoch 15; a run checkpointed at
// epoch 10 and resumed with room for 30 epochs must stop there too, since
// the budget is charged against the restored ledger.
func TestBandwidthBudgetResumeStopsLikeUninterrupted(t *testing.T) {
	opts := func(epochs int) Options {
		return Options{
			Scheme: SchemeFedAvg, Model: ModelMLP, Clients: 10, LANs: 3,
			PerClass: 20, Noise: 1.6, Epochs: epochs, AggEvery: 5, Tau: 1,
			LR: 0.05, BatchSize: 32, Workers: 1, Seed: 1,
			BandwidthBudget: 4000000,
		}
	}
	full, err := Run(opts(30))
	if err != nil {
		t.Fatal(err)
	}
	if !full.BudgetExhausted || full.Epochs != 15 {
		t.Fatalf("uninterrupted run stopped at epoch %d (budget exhausted: %v), want 15 on budget",
			full.Epochs, full.BudgetExhausted)
	}
	_, res := resumeSingle(t, opts, 10, 30)
	if !res.BudgetExhausted || res.Epochs != full.Epochs {
		t.Fatalf("resumed run stopped at epoch %d (budget exhausted: %v), uninterrupted at %d",
			res.Epochs, res.BudgetExhausted, full.Epochs)
	}
	if res.Snapshot.TotalBytes != full.Snapshot.TotalBytes {
		t.Fatalf("resumed run spent %d bytes, uninterrupted %d", res.Snapshot.TotalBytes, full.Snapshot.TotalBytes)
	}
}

// readRunState loads the run state a fleet saved to dir back into its own
// models, which leaves them unchanged.
func readRunState(t *testing.T, dir string, m *fleet.Manager) *checkpoint.RunState {
	t.Helper()
	models := make(map[string]*nn.Sequential)
	for _, j := range m.Jobs() {
		models[j.Cfg.Name] = j.Trainer.GlobalModel()
	}
	st, err := checkpoint.Load(dir, models)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestFleetResumeMatchesUninterrupted: two FedAvg jobs over 12 clients run
// 6 fleet rounds uninterrupted, and as 3 rounds, SaveState, RestoreState
// into a freshly assembled fleet and 3 more rounds. Every job's history
// must match on loss, accuracy and traffic, and the checkpoint must carry
// the fleet's membership.
func TestFleetResumeMatchesUninterrupted(t *testing.T) {
	newFleet := func() *Fleet {
		base := Options{
			Scheme: SchemeFedAvg, Model: ModelMLP, PerClass: 12, Noise: 1.2,
			AggEvery: 2, Tau: 1, BatchSize: 16, LR: 0.05,
		}
		f, err := NewFleet(FleetOptions{
			Clients: 12, LANs: 3, Workers: 1, Seed: 4,
			Jobs: []JobSpec{
				{Name: "a", Demand: 6, Rounds: 6, Options: base},
				{Name: "b", Demand: 5, Rounds: 6, Options: base},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Close)
		return f
	}
	full := newFleet()
	full.Run(6)

	dir := t.TempDir()
	first := newFleet()
	first.Run(3)
	if err := first.SaveState(dir); err != nil {
		t.Fatal(err)
	}
	if st := readRunState(t, dir, first.Manager); st.Membership == nil || st.Membership.Clients != 12 {
		t.Fatalf("fleet checkpoint membership section %+v, want 12 clients", st.Membership)
	}
	resumed := newFleet()
	if err := resumed.RestoreState(dir); err != nil {
		t.Fatal(err)
	}
	resumed.Run(3)

	type row struct {
		loss, acc float64
		total     int64
	}
	for _, want := range full.Manager.Jobs() {
		got := resumed.Manager.Job(want.Cfg.Name).History
		if len(got) != len(want.History) || len(got) == 0 {
			t.Fatalf("job %s: resumed history has %d rows, uninterrupted %d", want.Cfg.Name, len(got), len(want.History))
		}
		for i, w := range want.History {
			g := got[i]
			if (row{g.TrainLoss, g.TestAcc, g.Snapshot.TotalBytes}) != (row{w.TrainLoss, w.TestAcc, w.Snapshot.TotalBytes}) {
				t.Errorf("job %s round %d: resumed (loss, acc, bytes) = (%v, %v, %d), uninterrupted (%v, %v, %d)",
					want.Cfg.Name, i+1, g.TrainLoss, g.TestAcc, g.Snapshot.TotalBytes,
					w.TrainLoss, w.TestAcc, w.Snapshot.TotalBytes)
			}
		}
	}
}

// TestClusteredResumeChecksSections: a clustered checkpoint carries the
// membership and clusters sections; a resume under a different fault plan
// completes but reports *checkpoint.DriftError, one with a different
// client count is refused, and so is a run state without the clusters
// section.
func TestClusteredResumeChecksSections(t *testing.T) {
	o := clusteredOpts(1)
	a, err := NewClustered(o)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Run(2)
	dir := t.TempDir()
	if err := a.SaveState(dir); err != nil {
		t.Fatal(err)
	}
	st := readRunState(t, dir, a.Fleet)
	if st.Membership == nil || st.Membership.Clients != o.Clients || st.Clusters == nil {
		t.Fatalf("clustered checkpoint sections: membership %+v, clusters %+v", st.Membership, st.Clusters)
	}
	st.Clusters = nil
	plain := t.TempDir()
	if err := checkpoint.Save(plain, st); err != nil {
		t.Fatal(err)
	}
	p, err := NewClustered(o)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.RestoreState(plain); err == nil || !strings.Contains(err.Error(), "not a clustered checkpoint") {
		t.Fatalf("restore from a run state without clusters: %v", err)
	}

	drifted := o
	drifted.Faults = faults.NewPlan(5).JoinAt(11, 40)
	b, err := NewClustered(drifted)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var drift *checkpoint.DriftError
	if err := b.RestoreState(dir); !errors.As(err, &drift) {
		t.Fatalf("restore under a different fault plan: %v, want a membership drift error", err)
	}
	if b.Fleet.Round() != a.Fleet.Round() {
		t.Fatalf("drifted restore left the fleet at round %d, checkpoint has %d", b.Fleet.Round(), a.Fleet.Round())
	}

	bigger := o
	bigger.Clients = 15
	c, err := NewClustered(bigger)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RestoreState(dir); err == nil {
		t.Fatal("restore into a run with a different client count succeeded")
	}
}
