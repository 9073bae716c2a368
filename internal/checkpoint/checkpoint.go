// Package checkpoint persists a run: the run state a resume continues
// from, and the metrics history as CSV for -csv reports.
//
// A run state is one file, runstate.json, at schema version 5 (Save and
// Load). It holds the fleet round and, per job, the epoch and round
// counters, the cost ledger, the global model's parameters (nn's binary
// codec) and the full metrics history; a single-job run is a one-job
// fleet whose job is named "". Optional sections record the membership
// the run was saved under and, for clustered runs, the client→cluster
// assignment. Save writes a temporary file, syncs it and renames it over
// the previous state, so the rename is the only commit point. The layouts
// of schema versions 1–4 are refused, not upgraded: they lack the ledger
// and hold the history at 8 significant digits.
//
// A single-job run state holds the model its last metrics row scored and
// resumes through core.Trainer.Restore, like multi-job and clustered ones.
// FedSwap and migration-scheme resumes are not bit-identical: the swap and
// jitter RNGs and the DRL agent are not part of any run state.
//
// In-flight core.TrainState blobs follow the same versioning discipline: a
// magic ("FMTS") plus an explicit big-endian version precede the payload,
// the version bumps on ANY field change, readers accept only versions
// they know (never forward-parse a newer blob), and the magic never
// changes — so a state migrated between nodes of mismatched builds fails
// loudly instead of resuming garbage.
package checkpoint

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"fedmigr/internal/core"
)

// WriteMetricsCSV streams a run's evaluation history as CSV with a header
// row: epoch, round, train_loss, test_acc, total_mb, c2s_mb, local_mb,
// wall_s, compute_s.
func WriteMetricsCSV(w io.Writer, history []core.RoundMetrics) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"epoch", "round", "train_loss", "test_acc",
		"total_mb", "c2s_mb", "local_mb", "wall_s", "compute_s",
	}); err != nil {
		return fmt.Errorf("checkpoint: csv header: %w", err)
	}
	for _, m := range history {
		rec := []string{
			strconv.Itoa(m.Epoch),
			strconv.Itoa(m.Round),
			strconv.FormatFloat(m.TrainLoss, 'g', 8, 64),
			strconv.FormatFloat(m.TestAcc, 'g', 8, 64),
			strconv.FormatFloat(float64(m.Snapshot.TotalBytes)/1e6, 'g', 8, 64),
			strconv.FormatFloat(float64(m.Snapshot.C2SBytes)/1e6, 'g', 8, 64),
			strconv.FormatFloat(float64(m.Snapshot.LocalBytes)/1e6, 'g', 8, 64),
			strconv.FormatFloat(m.Snapshot.WallSeconds, 'g', 8, 64),
			strconv.FormatFloat(m.Snapshot.ComputeSecs, 'g', 8, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("checkpoint: csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// SaveMetricsCSV writes a run's history to a CSV file.
func SaveMetricsCSV(path string, history []core.RoundMetrics) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// On the write path a Close failure can mean lost buffered data, so it
	// must surface (the lint errcheck analyzer enforces this).
	err = WriteMetricsCSV(f, history)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("checkpoint: close %s: %w", path, cerr)
	}
	return err
}
