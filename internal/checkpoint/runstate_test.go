package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"fedmigr/internal/nn"
	"fedmigr/internal/tensor"
)

// fleetFixture is a two-job run state with its source models.
func fleetFixture(t testing.TB) (*RunState, map[string]*nn.Sequential) {
	models := map[string]*nn.Sequential{
		"mnist-mlp": nn.NewMLP(tensor.NewRNG(1), 4, 8, 3),
		"cifar-cnn": nn.NewMLP(tensor.NewRNG(2), 4, 6, 3),
	}
	return &RunState{Round: 5, Jobs: map[string]Job{
		"mnist-mlp": jobOf(t, models["mnist-mlp"], 6, 2, sampleHistory()),
		"cifar-cnn": jobOf(t, models["cifar-cnn"], 3, 1, sampleHistory()[:1]),
	}}, models
}

// fleetTargets returns fresh destination models for fleetFixture's jobs.
func fleetTargets() map[string]*nn.Sequential {
	return map[string]*nn.Sequential{
		"mnist-mlp": nn.NewMLP(tensor.NewRNG(9), 4, 8, 3),
		"cifar-cnn": nn.NewMLP(tensor.NewRNG(9), 4, 6, 3),
	}
}

func TestFleetStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, src := fleetFixture(t)
	if err := Save(dir, st); err != nil {
		t.Fatal(err)
	}
	dst := fleetTargets()
	got, err := Load(dir, dst)
	if err != nil {
		t.Fatal(err)
	}
	if got.Round != 5 {
		t.Fatalf("run state %+v", got)
	}
	for name, js := range st.Jobs {
		if g := got.Jobs[name]; g.Epoch != js.Epoch || g.Round != js.Round || g.Ledger != js.Ledger {
			t.Fatalf("job %s progress %+v, want %+v", name, g, js)
		}
		sameParams(t, src[name], dst[name])
	}
}

// TestFleetStateRejectsOldSingleJobCheckpoint: a single-job run state
// restored into a fleet names the mismatch.
func TestFleetStateRejectsOldSingleJobCheckpoint(t *testing.T) {
	dir := t.TempDir()
	if err := Save(dir, singleJob(t, nn.NewMLP(tensor.NewRNG(1), 4, 8, 3))); err != nil {
		t.Fatal(err)
	}
	_, err := Load(dir, fleetTargets())
	if err == nil || !strings.Contains(err.Error(), "holds a single job") || !strings.Contains(err.Error(), "mnist-mlp") {
		t.Fatalf("single-job run state restored into a fleet: %v", err)
	}
}

// TestLoadRunStateRejectsFleetCheckpoint: a fleet run state restored into
// a single-job run names the mismatch.
func TestLoadRunStateRejectsFleetCheckpoint(t *testing.T) {
	dir := t.TempDir()
	st, _ := fleetFixture(t)
	if err := Save(dir, st); err != nil {
		t.Fatal(err)
	}
	_, err := Load(dir, map[string]*nn.Sequential{"": nn.NewMLP(tensor.NewRNG(1), 4, 8, 3)})
	if err == nil || !strings.Contains(err.Error(), "mnist-mlp") || !strings.Contains(err.Error(), "this run has a single job") {
		t.Fatalf("fleet run state restored into a single job: %v", err)
	}
}

// writeUnchecked writes st as a current run-state file, bypassing Save's
// validation.
func writeUnchecked(t testing.TB, dir string, st *RunState) {
	t.Helper()
	state, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(state)
	b, err := json.Marshal(&envelope{RunStateVersion, hex.EncodeToString(sum[:]), state})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, RunStateFile), b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// rewriteVersion replaces the schema version of dir's run state.
func rewriteVersion(t *testing.T, dir string, version int) {
	t.Helper()
	path := filepath.Join(dir, RunStateFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	raw["version"] = json.RawMessage(strconv.Itoa(version))
	if b, err = json.Marshal(raw); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFleetStateVersionGate: only schema version 5 loads — older versions
// (the run-state manifests of versions 2 and 4) and newer ones are refused.
func TestFleetStateVersionGate(t *testing.T) {
	for _, v := range []int{2, 4, 6, 99} {
		dir := t.TempDir()
		st, _ := fleetFixture(t)
		if err := Save(dir, st); err != nil {
			t.Fatal(err)
		}
		rewriteVersion(t, dir, v)
		if _, err := Load(dir, fleetTargets()); err == nil || !strings.Contains(err.Error(), "schema version "+strconv.Itoa(v)) {
			t.Fatalf("version %d run state: %v", v, err)
		}
	}
}

func TestFleetStateMismatchedJobs(t *testing.T) {
	dir := t.TempDir()
	st, _ := fleetFixture(t)
	if err := Save(dir, st); err != nil {
		t.Fatal(err)
	}
	_, err := Load(dir, map[string]*nn.Sequential{
		"mnist-mlp": nn.NewMLP(tensor.NewRNG(1), 4, 8, 3),
	})
	if err == nil {
		t.Fatal("job-count mismatch accepted")
	}
	_, err = Load(dir, map[string]*nn.Sequential{
		"mnist-mlp": nn.NewMLP(tensor.NewRNG(1), 4, 8, 3),
		"ghost":     nn.NewMLP(tensor.NewRNG(1), 4, 6, 3),
	})
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("unknown job name: %v", err)
	}
}

// TestFleetStateUnsafeJobName: job names are keys inside the one run-state
// file, never paths, so a name like "../escape" writes nothing outside the
// checkpoint directory and round-trips unchanged.
func TestFleetStateUnsafeJobName(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "ck")
	m := nn.NewMLP(tensor.NewRNG(1), 2, 2)
	st := &RunState{Jobs: map[string]Job{"../escape": jobOf(t, m, 1, 1, nil)}}
	if err := Save(dir, st); err != nil {
		t.Fatal(err)
	}
	for d, want := range map[string]int{parent: 1, dir: 1} {
		if entries, err := os.ReadDir(d); err != nil || len(entries) != want {
			t.Fatalf("%s holds %v (%v), want %d entry", d, entries, err, want)
		}
	}
	if _, err := Load(dir, map[string]*nn.Sequential{"../escape": nn.NewMLP(tensor.NewRNG(2), 2, 2)}); err != nil {
		t.Fatal(err)
	}
}

// TestFleetStateHistoryOnly: histories round-trip exactly, every field of
// every record, ledger snapshots included.
func TestFleetStateHistoryOnly(t *testing.T) {
	dir := t.TempDir()
	st, _ := fleetFixture(t)
	if err := Save(dir, st); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir, fleetTargets())
	if err != nil {
		t.Fatal(err)
	}
	for name, js := range st.Jobs {
		if !reflect.DeepEqual(got.Jobs[name].History, js.History) {
			t.Fatalf("job %s history %+v, want %+v", name, got.Jobs[name].History, js.History)
		}
	}
}

// TestLoadRefusesLegacyLayout: a directory holding a schema version 1 or 3
// layout (a bare model file, no run-state file) is refused with one error
// naming the old layout, not reported as a missing file.
func TestLoadRefusesLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "model.bin"), []byte("legacy"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(dir, map[string]*nn.Sequential{"": nn.NewMLP(tensor.NewRNG(1), 2, 2)})
	if err == nil || !strings.Contains(err.Error(), "model.bin") || !strings.Contains(err.Error(), "start the run again") {
		t.Fatalf("legacy layout: %v", err)
	}
}

// cuts returns truncation offsets across b: empty, one byte, a spread of
// interior points, all but the last byte.
func cuts(b []byte) []int {
	out := []int{0, 1, len(b) - 1}
	for i := 1; i < 8; i++ {
		out = append(out, len(b)*i/8)
	}
	return out
}

// TestTornSaveKeepsPreviousState: with a complete run state in place, a
// save torn before its rename — the temporary file truncated anywhere, or
// complete — leaves Load returning the previous state exactly.
func TestTornSaveKeepsPreviousState(t *testing.T) {
	dir := t.TempDir()
	prev, src := fleetFixture(t)
	if err := Save(dir, prev); err != nil {
		t.Fatal(err)
	}
	want, err := Load(dir, fleetTargets())
	if err != nil {
		t.Fatal(err)
	}
	// The next save's bytes, as Save would write them.
	next, _ := fleetFixture(t)
	next.Round = 9
	scratch := t.TempDir()
	if err := Save(scratch, next); err != nil {
		t.Fatal(err)
	}
	torn, err := os.ReadFile(filepath.Join(scratch, RunStateFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range append(cuts(torn), len(torn)) {
		if err := os.WriteFile(filepath.Join(dir, RunStateFile+".tmp"), torn[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		dst := fleetTargets()
		got, err := Load(dir, dst)
		if err != nil {
			t.Fatalf("torn save at byte %d: %v", n, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("torn save at byte %d changed the loaded state", n)
		}
		for name := range src {
			sameParams(t, src[name], dst[name])
		}
	}
}

// TestLoadRefusesCorruptRunState: a truncated or garbled run-state file is
// refused with an error, never a panic.
func TestLoadRefusesCorruptRunState(t *testing.T) {
	dir := t.TempDir()
	st, _ := fleetFixture(t)
	if err := Save(dir, st); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, RunStateFile)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range cuts(good) {
		garbled := append([]byte(nil), good...)
		garbled[at] ^= 0x5a
		for what, b := range map[string][]byte{"truncated": good[:at], "garbled": garbled} {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(dir, fleetTargets()); err == nil {
				t.Fatalf("run state %s at byte %d loaded", what, at)
			}
		}
	}
}

// fuzzModels is the job set FuzzLoadRunState decodes into.
func fuzzModels() map[string]*nn.Sequential {
	return map[string]*nn.Sequential{"": nn.NewMLP(tensor.NewRNG(1), 4, 8, 3)}
}

// FuzzLoadRunState feeds arbitrary bytes to the run-state file decoder and
// to the state decoder behind its checksum, which mutated files rarely get
// past: neither may panic, and each returns exactly one of a state or an
// error. The seed corpus (also under testdata/fuzz) holds a valid file,
// its bare state, a clustered state and a legacy version-2 manifest.
func FuzzLoadRunState(f *testing.F) {
	dir := f.TempDir()
	st := singleJob(f, nn.NewMLP(tensor.NewRNG(3), 4, 8, 3))
	if err := Save(dir, st); err != nil {
		f.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join(dir, RunStateFile))
	if err != nil {
		f.Fatal(err)
	}
	state, err := json.Marshal(st)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(file)
	f.Add(file[:len(file)/2])
	f.Add(state)
	f.Add([]byte(`{"version":2,"round":1,"jobs":{"a":{"epoch":2,"round":1}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, dec := range []func([]byte, map[string]*nn.Sequential) (*RunState, error){decode, decodeState} {
			if st, err := dec(data, fuzzModels()); (st == nil) == (err == nil) {
				t.Fatalf("decoded state %v alongside error %v", st, err)
			}
		}
	})
}
