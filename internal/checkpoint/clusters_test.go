package checkpoint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fedmigr/internal/nn"
	"fedmigr/internal/tensor"
)

func sampleClusters() *Clusters {
	return &Clusters{
		K:            2,
		Assign:       []int{0, 0, 1, 1, 0},
		Medoids:      []int{1, 2},
		Moves:        4,
		HandoffBytes: 4096,
	}
}

// clusteredState is a one-job run state carrying the clusters section c.
func clusteredState(t *testing.T, c *Clusters) *RunState {
	st := singleJob(t, nn.NewMLP(tensor.NewRNG(1), 4, 8, 3))
	st.Clusters = c
	return st
}

func loadSingle(dir string) (*RunState, error) {
	return Load(dir, map[string]*nn.Sequential{"": nn.NewMLP(tensor.NewRNG(2), 4, 8, 3)})
}

func TestClusterManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleClusters()
	if err := Save(dir, clusteredState(t, want)); err != nil {
		t.Fatal(err)
	}
	st, err := loadSingle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Clusters, want) {
		t.Fatalf("clusters section %+v, want %+v", st.Clusters, want)
	}
	// No leftover temp file: the write must be atomic.
	if _, err := os.Stat(filepath.Join(dir, RunStateFile+".tmp")); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
}

func TestClusterManifestMissing(t *testing.T) {
	dir := t.TempDir()
	if err := Save(dir, clusteredState(t, nil)); err != nil {
		t.Fatal(err)
	}
	st, err := loadSingle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Clusters != nil {
		t.Fatal("a run state saved without a clusters section loaded one")
	}
}

// TestClusterManifestRefusesNewerVersion: a clustered run state from a
// newer schema is refused, not guessed at.
func TestClusterManifestRefusesNewerVersion(t *testing.T) {
	dir := t.TempDir()
	if err := Save(dir, clusteredState(t, sampleClusters())); err != nil {
		t.Fatal(err)
	}
	rewriteVersion(t, dir, 99)
	if _, err := loadSingle(dir); err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Fatalf("want schema-version refusal, got %v", err)
	}
}

func TestClusterManifestValidation(t *testing.T) {
	dir := t.TempDir()
	bad := sampleClusters()
	bad.Assign[0] = 7 // out of range
	if err := Save(dir, clusteredState(t, bad)); err == nil {
		t.Fatal("want error for out-of-range assignment")
	}
	bad = sampleClusters()
	bad.Medoids = []int{1} // wrong count
	if err := Save(dir, clusteredState(t, bad)); err == nil {
		t.Fatal("want error for medoid/cluster count mismatch")
	}
	bad = sampleClusters()
	bad.Medoids = []int{1, 1} // medoid 1 belongs to cluster 0, not 1
	if err := Save(dir, clusteredState(t, bad)); err == nil {
		t.Fatal("want error for medoid assigned to another cluster")
	}
	// Loading an inconsistent section is refused too.
	bad = sampleClusters()
	bad.Assign[1] = 9
	writeUnchecked(t, dir, clusteredState(t, bad))
	if _, err := loadSingle(dir); err == nil {
		t.Fatal("want error for an inconsistent clusters section on disk")
	}
}
