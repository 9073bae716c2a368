package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"fedmigr/internal/core"
	"fedmigr/internal/edgenet"
	"fedmigr/internal/nn"
)

const (
	// RunStateFile is the run-state file inside a checkpoint directory.
	RunStateFile = "runstate.json"
	// RunStateVersion is the run-state schema version this build writes
	// and the only one it reads.
	RunStateVersion = 5
)

// RunState is everything a resume restores.
type RunState struct {
	// Round is the fleet round counter (fleet.Manager.Restore argument);
	// 0 for a single-job run.
	Round int            `json:"round"`
	Jobs  map[string]Job `json:"jobs"`
	// Membership is the cohort shape the run was saved under.
	Membership *Membership `json:"membership,omitempty"`
	// Clusters is the client→cluster assignment of a clustered run.
	Clusters *Clusters `json:"clusters,omitempty"`
}

// Job is one job's resume point: core.Trainer.Checkpoint's progress, the
// global model's parameters (nn.Sequential.MarshalParams bytes) and the
// metrics history.
type Job struct {
	Epoch   int                 `json:"epoch"`
	Round   int                 `json:"round"`
	Ledger  edgenet.Snapshot    `json:"ledger"`
	Params  []byte              `json:"params"`
	History []core.RoundMetrics `json:"history"`
}

// Clusters is the persisted client→cluster assignment of a clustered run.
// Restoring cluster models without it would silently regroup clients from
// scratch.
type Clusters struct {
	// K is the number of cluster models.
	K int `json:"k"`
	// Assign[i] is client i's cluster in [0, K).
	Assign []int `json:"assign"`
	// Medoids[c] is cluster c's medoid (and pinned anchor) client.
	Medoids []int `json:"medoids"`
	// Moves is the cumulative count of inter-cluster client migrations.
	Moves int `json:"moves"`
	// HandoffBytes is the cumulative warm-handoff traffic those moves cost.
	HandoffBytes int64 `json:"handoff_bytes"`
}

// validate checks the internal consistency of a clusters section.
func (c *Clusters) validate() error {
	if c.K <= 0 {
		return fmt.Errorf("clusters section has %d clusters", c.K)
	}
	if len(c.Medoids) != c.K {
		return fmt.Errorf("clusters section has %d medoids for %d clusters", len(c.Medoids), c.K)
	}
	for i, k := range c.Assign {
		if k < 0 || k >= c.K {
			return fmt.Errorf("clusters section assigns client %d to cluster %d of %d", i, k, c.K)
		}
	}
	for k, mid := range c.Medoids {
		if mid < 0 || mid >= len(c.Assign) {
			return fmt.Errorf("cluster %d medoid %d out of range [0,%d)", k, mid, len(c.Assign))
		}
		if c.Assign[mid] != k {
			return fmt.Errorf("cluster %d medoid %d is assigned to cluster %d", k, mid, c.Assign[mid])
		}
	}
	return nil
}

// envelope is the run-state file: the schema version, the run state's
// JSON encoding and its SHA-256, so a garbled file is refused instead of
// resumed with altered numbers.
type envelope struct {
	Version int             `json:"version"`
	SHA256  string          `json:"sha256"`
	State   json.RawMessage `json:"state"`
}

// Save writes st to dir at the current schema version: into a temporary
// file, synced, then renamed over the previous run state. The rename is
// the only commit point, so a crash at any step leaves either the
// previous complete state or the new one. A history holding a non-finite
// loss cannot be saved (JSON has no NaN or Inf).
func Save(dir string, st *RunState) error {
	if st.Clusters != nil {
		if err := st.Clusters.validate(); err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
	}
	state, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("checkpoint: encode run state: %w", err)
	}
	sum := sha256.Sum256(state)
	b, err := json.Marshal(&envelope{RunStateVersion, hex.EncodeToString(sum[:]), state})
	if err != nil {
		return fmt.Errorf("checkpoint: encode run state: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	path := filepath.Join(dir, RunStateFile)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	_, err = f.Write(b)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return fmt.Errorf("checkpoint: save %s: %w", dir, err)
	}
	return nil
}

// Load reads the run state in dir and decodes each job's parameters into
// models, which must name exactly the state's jobs ("" alone for a
// single-job run) with matching architectures. A missing run state is
// reported as an error wrapping fs.ErrNotExist; a directory holding a
// layout of schema version 1–4 is refused.
func Load(dir string, models map[string]*nn.Sequential) (*RunState, error) {
	b, err := os.ReadFile(filepath.Join(dir, RunStateFile))
	if os.IsNotExist(err) {
		if _, serr := os.Stat(filepath.Join(dir, "model.bin")); serr == nil {
			return nil, fmt.Errorf(
				"checkpoint: %s holds a run state of schema version < 5 (model.bin, no %s), which cannot be resumed: start the run again",
				dir, RunStateFile)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	st, err := decode(b, models)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", dir, err)
	}
	return st, nil
}

// decode checks a run-state file's version and checksum, then decodes the
// state it holds.
func decode(b []byte, models map[string]*nn.Sequential) (*RunState, error) {
	var env envelope
	if err := json.Unmarshal(b, &env); err != nil {
		return nil, err
	}
	switch {
	case env.Version < RunStateVersion:
		return nil, fmt.Errorf("run state has schema version %d, which cannot be resumed: start the run again", env.Version)
	case env.Version > RunStateVersion:
		return nil, fmt.Errorf("run state has schema version %d, this build reads version %d", env.Version, RunStateVersion)
	}
	if sum := sha256.Sum256(env.State); hex.EncodeToString(sum[:]) != env.SHA256 {
		return nil, fmt.Errorf("run state does not match its checksum")
	}
	return decodeState(env.State, models)
}

// decodeState parses and validates a run state and loads its parameters.
func decodeState(b []byte, models map[string]*nn.Sequential) (*RunState, error) {
	var st RunState
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, err
	}
	if st.Clusters != nil {
		if err := st.Clusters.validate(); err != nil {
			return nil, err
		}
	}
	saved, want := sortedNames(st.Jobs), sortedNames(models)
	if !slices.Equal(saved, want) {
		return nil, fmt.Errorf("run state holds %s, but this run has %s", describeJobs(saved), describeJobs(want))
	}
	for _, name := range saved {
		if err := models[name].UnmarshalParams(st.Jobs[name].Params); err != nil {
			return nil, fmt.Errorf("job %q: %w", name, err)
		}
	}
	return &st, nil
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// describeJobs names a job set for a mismatch error.
func describeJobs(names []string) string {
	if len(names) == 1 && names[0] == "" {
		return "a single job"
	}
	return fmt.Sprintf("jobs %q", names)
}
