package fedmigr

import (
	"fmt"

	"fedmigr/internal/checkpoint"
	"fedmigr/internal/core"
	"fedmigr/internal/faults"
	"fedmigr/internal/fleet"
	"fedmigr/internal/nn"
)

// runJob is one trainer's share of a run state: model is the parameter
// source on save and the restore target, history the job's metrics record.
type runJob struct {
	trainer *core.Trainer
	model   *nn.Sequential
	history *[]core.RoundMetrics
}

// fleetJobs lists a fleet's non-rejected jobs with their global models.
func fleetJobs(m *fleet.Manager) map[string]runJob {
	jobs := make(map[string]runJob)
	for _, j := range m.Jobs() {
		if j.State != fleet.Rejected {
			jobs[j.Cfg.Name] = runJob{j.Trainer, j.Trainer.GlobalModel(), &j.History}
		}
	}
	return jobs
}

// saveRun writes jobs to dir as one run state, together with the
// membership of the run's clients and fault plan and the optional
// clusters section.
func saveRun(dir string, fleetRound int, jobs map[string]runJob, clients int, plan *faults.Plan, clusters *checkpoint.Clusters) error {
	mem := checkpoint.NewMembership(clients, plan)
	st := &checkpoint.RunState{
		Round: fleetRound, Jobs: make(map[string]checkpoint.Job, len(jobs)),
		Membership: &mem, Clusters: clusters,
	}
	for name, j := range jobs {
		params, err := j.model.MarshalParams()
		if err != nil {
			return fmt.Errorf("fedmigr: job %q: %w", name, err)
		}
		epoch, round, ledger := j.trainer.Checkpoint()
		st.Jobs[name] = checkpoint.Job{
			Epoch: epoch, Round: round, Ledger: ledger, Params: params, History: *j.history,
		}
	}
	return checkpoint.Save(dir, st)
}

// restoreRun loads the run state in dir into freshly assembled jobs, which
// must match its job set and architectures: every job's global model,
// history, epoch and round counters and cost ledger. sections, when
// non-nil, then restores the caller's own parts of the state. Last, the
// saved membership is compared with the run's clients and fault plan: a
// mismatch is returned as a *checkpoint.DriftError after the restore has
// completed, so a caller that accepts drift can carry on.
func restoreRun(dir string, jobs map[string]runJob, clients int, plan *faults.Plan, sections func(*checkpoint.RunState) error) error {
	models := make(map[string]*nn.Sequential, len(jobs))
	for name, j := range jobs {
		models[name] = j.model
	}
	st, err := checkpoint.Load(dir, models)
	if err != nil {
		return err
	}
	for name, j := range jobs {
		js := st.Jobs[name]
		if err := j.trainer.Restore(js.Epoch, js.Round, js.Ledger); err != nil {
			return fmt.Errorf("fedmigr: job %q: %w", name, err)
		}
		*j.history = append((*j.history)[:0], js.History...)
	}
	if sections != nil {
		if err := sections(st); err != nil {
			return err
		}
	}
	return checkpoint.CheckMembership(dir, st.Membership, checkpoint.NewMembership(clients, plan))
}

// restoreFleet fast-forwards a fleet manager's scheduling state to a run
// state's fleet round and per-job round counts.
func restoreFleet(m *fleet.Manager, st *checkpoint.RunState) error {
	roundsDone := make(map[string]int, len(st.Jobs))
	for name, js := range st.Jobs {
		roundsDone[name] = js.Round
	}
	return m.Restore(st.Round, roundsDone)
}
