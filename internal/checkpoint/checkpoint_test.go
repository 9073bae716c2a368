package checkpoint

import (
	"bytes"
	"encoding/csv"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fedmigr/internal/core"
	"fedmigr/internal/edgenet"
	"fedmigr/internal/nn"
	"fedmigr/internal/tensor"
)

func sampleHistory() []core.RoundMetrics {
	return []core.RoundMetrics{
		{Epoch: 1, Round: 0, TrainLoss: 2.3, TestAcc: 0.1,
			Snapshot: edgenet.Snapshot{TotalBytes: 1 << 20, C2SBytes: 1 << 19, WallSeconds: 1.5}},
		{Epoch: 2, Round: 1, TrainLoss: 1.1, TestAcc: 0.55,
			Snapshot: edgenet.Snapshot{TotalBytes: 2 << 20, C2SBytes: 1 << 20, WallSeconds: 3}},
	}
}

// jobOf builds a run-state job holding m's parameters.
func jobOf(t testing.TB, m *nn.Sequential, epoch, round int, history []core.RoundMetrics) Job {
	t.Helper()
	params, err := m.MarshalParams()
	if err != nil {
		t.Fatal(err)
	}
	last := edgenet.Snapshot{}
	if n := len(history); n > 0 {
		last = history[n-1].Snapshot
	}
	return Job{Epoch: epoch, Round: round, Ledger: last, Params: params, History: history}
}

// singleJob is a one-job run state over a 4-8-3 MLP.
func singleJob(t testing.TB, m *nn.Sequential) *RunState {
	return &RunState{Jobs: map[string]Job{"": jobOf(t, m, 2, 1, sampleHistory())}}
}

func sameParams(t *testing.T, a, b *nn.Sequential) {
	t.Helper()
	x, y := a.ParamVector().Data(), b.ParamVector().Data()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("parameters diverge at %d", i)
		}
	}
}

// TestLoadModelMissingFile: a job whose parameters are missing from the
// run state is refused, not loaded as a zero model.
func TestLoadModelMissingFile(t *testing.T) {
	dir := t.TempDir()
	st := singleJob(t, nn.NewMLP(tensor.NewRNG(1), 4, 8, 3))
	job := st.Jobs[""]
	job.Params = nil
	st.Jobs[""] = job
	if err := Save(dir, st); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir, map[string]*nn.Sequential{"": nn.NewMLP(tensor.NewRNG(1), 4, 8, 3)}); err == nil {
		t.Fatal("expected error for a job without parameters")
	}
}

func TestLoadModelWrongArch(t *testing.T) {
	dir := t.TempDir()
	if err := Save(dir, singleJob(t, nn.NewMLP(tensor.NewRNG(1), 4, 8, 3))); err != nil {
		t.Fatal(err)
	}
	other := nn.NewMLP(tensor.NewRNG(1), 4, 6, 3)
	if _, err := Load(dir, map[string]*nn.Sequential{"": other}); err == nil {
		t.Fatal("expected architecture mismatch error")
	}
}

// TestMetricsCSVRoundTrip: the -csv report parses back to the history's
// progress, loss, accuracy and traffic columns.
func TestMetricsCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetricsCSV(&buf, sampleHistory()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || strings.Join(rows[0][:4], ",") != "epoch,round,train_loss,test_acc" {
		t.Fatalf("csv rows %q", rows)
	}
	for i, m := range sampleHistory() {
		rec := rows[i+1]
		want := []string{strconv.Itoa(m.Epoch), strconv.Itoa(m.Round),
			strconv.FormatFloat(m.TrainLoss, 'g', -1, 64), strconv.FormatFloat(m.TestAcc, 'g', -1, 64),
			strconv.FormatFloat(float64(m.Snapshot.TotalBytes)/1e6, 'g', 8, 64)}
		if !reflect.DeepEqual(rec[:5], want) {
			t.Fatalf("row %d = %q, want prefix %q", i+1, rec, want)
		}
	}
}

func TestSaveMetricsCSVFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out", "report.csv")
	if err := SaveMetricsCSV(path, sampleHistory()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "epoch,round,train_loss") {
		t.Fatalf("missing header:\n%s", b)
	}
}

// TestRunStateRoundTrip: a single-job run state comes back exactly —
// parameters, progress, ledger and every history field.
func TestRunStateRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	m := nn.NewMLP(tensor.NewRNG(3), 4, 8, 3)
	want := singleJob(t, m)
	if err := Save(dir, want); err != nil {
		t.Fatal(err)
	}
	m2 := nn.NewMLP(tensor.NewRNG(4), 4, 8, 3)
	got, err := Load(dir, map[string]*nn.Sequential{"": m2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run state round trip:\n got %+v\nwant %+v", got, want)
	}
	sameParams(t, m, m2)
}

func TestLoadRunStateMissing(t *testing.T) {
	m := nn.NewMLP(tensor.NewRNG(1), 2, 2)
	_, err := Load(filepath.Join(t.TempDir(), "nope"), map[string]*nn.Sequential{"": m})
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing run state: %v, want a not-exist error", err)
	}
}
