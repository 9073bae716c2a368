package fedmigr

import (
	"crypto/sha256"
	"testing"

	"fedmigr/internal/cluster"
)

// clusteredOpts is the shared fixture for the clustered root tests: 12
// clients in 3 LANs with LAN-correlated labels, so the ground-truth latent
// grouping IS the LAN structure.
func clusteredOpts(workers int) ClusteredOptions {
	return ClusteredOptions{
		Clusters: 3,
		Rounds:   3,
		Options: Options{
			Scheme:    SchemeFedAvg,
			Partition: PartitionLAN,
			Model:     ModelMLP,
			Clients:   12, LANs: 3,
			PerClass: 24, Epochs: 1000,
			Workers: workers,
			Seed:    3,
		},
	}
}

// clusteredDigest runs a clustered simulation to completion and returns a
// digest over every cluster model's parameters plus the final assignment.
func clusteredDigest(t *testing.T, workers int) ([32]byte, float64) {
	t.Helper()
	c, err := NewClustered(clusteredOpts(workers))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Run(0)
	h := sha256.New()
	for _, m := range c.Models() {
		blob, err := m.MarshalParams()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(blob)
	}
	for _, a := range c.Manager.Assignments() {
		h.Write([]byte{byte(a)})
	}
	var digest [32]byte
	copy(digest[:], h.Sum(nil))
	overall, _ := c.Evaluate()
	return digest, overall
}

// TestClusteredWorkerInvariance: a clustered run must be bit-identical
// across worker counts — the determinism contract (DESIGN.md §5) extended
// to the cluster tier.
func TestClusteredWorkerInvariance(t *testing.T) {
	ref, refAcc := clusteredDigest(t, 1)
	got, acc := clusteredDigest(t, 8)
	if got != ref {
		t.Errorf("workers8: model/assignment bits diverge from workers1")
	}
	if acc != refAcc {
		t.Errorf("workers8: routed accuracy %v diverges from %v", acc, refAcc)
	}
}

// TestClusteredRecovery: on a seeded partition with 3 latent label
// distributions (LAN-correlated labels), the EMD clustering must recover
// the ground-truth grouping exactly, and the clustered federation must
// beat a single global model trained on the same partition for the same
// number of aggregation rounds.
func TestClusteredRecovery(t *testing.T) {
	o := clusteredOpts(0)
	c, err := NewClustered(o)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if !cluster.EqualPartition(c.Manager.Assignments(), c.Topology.LANOf) {
		t.Fatalf("clustering %v does not recover the latent LAN grouping %v",
			c.Manager.Assignments(), c.Topology.LANOf)
	}

	c.Run(0)
	overall, perCluster := c.Evaluate()
	for k, acc := range perCluster {
		if acc <= 0 {
			t.Fatalf("cluster %d learned nothing (accuracy %v)", k, acc)
		}
	}

	// Single-global-model baseline: same dataset, partition, model and
	// seed, FedAvg over everyone for the same number of aggregation rounds.
	base := o.Options
	base.Epochs = o.Rounds // FedAvg aggregates every epoch
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if overall <= res.FinalAcc {
		t.Fatalf("clustered routed accuracy %.3f does not beat single-global baseline %.3f",
			overall, res.FinalAcc)
	}
}

// TestClusteredSaveRestore: a restored clustered run carries the saved
// assignment and per-cluster models forward bit-identically.
func TestClusteredSaveRestore(t *testing.T) {
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
	a.Run(0) // finish the donor run
	wantOverall, _ := a.Evaluate()

	b, err := NewClustered(o)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.RestoreState(dir); err != nil {
		t.Fatal(err)
	}
	b.Run(0)
	gotOverall, _ := b.Evaluate()
	if gotOverall != wantOverall {
		t.Fatalf("resumed accuracy %v, want %v", gotOverall, wantOverall)
	}

	// A non-clustered checkpoint is refused.
	if err := b.RestoreState(t.TempDir()); err == nil {
		t.Fatal("restore from an empty dir should fail")
	}
}
