package core

import (
	"fmt"
	"math"

	"fedmigr/internal/telemetry"
	"fedmigr/internal/tensor"
)

// This file holds the trainer's one round loop: step runs a global
// iteration from the current epoch — Model Distribution, the round's
// remaining τ-epoch training phases with a migration/swap event between
// consecutive phases, Global Aggregation. Run drives it under a stopping
// rule; RunRound steps one round for an orchestrator (the fleet manager)
// that picks the participants and owns the stopping rule. Downstream of
// participant choice everything is a pure function of (config, seed,
// epoch, participants), so both drivers share one determinism argument
// (DESIGN.md §5).

// SetParticipants forces the next rounds' participant set, overriding both
// cohort sampling and the α-fraction draw. In lazy-hydration mode only the
// named clients' replicas are materialized. A nil slice restores the
// trainer's own selection; an empty non-nil slice selects nobody.
func (t *Trainer) SetParticipants(clients []int) {
	if clients == nil {
		t.forced = nil
		return
	}
	t.forced = append([]int(nil), clients...)
}

// Round returns the number of completed global iterations.
func (t *Trainer) Round() int { return t.round }

// History returns the recorded evaluation history (shared slice; callers
// must treat it as read-only).
func (t *Trainer) History() []RoundMetrics { return t.history }

// Restore fast-forwards the trainer's epoch/round counters to a checkpoint
// without replaying training. The caller is responsible for also restoring
// the global model parameters; replica state is rebuilt by the next
// round's distribution. Restore must run before any training step.
func (t *Trainer) Restore(epoch, round int) error {
	if t.epoch != 0 || t.round != 0 {
		return fmt.Errorf("core: Restore after training started (epoch %d, round %d)", t.epoch, t.round)
	}
	if epoch < 0 || round < 0 {
		return fmt.Errorf("core: Restore to negative progress (epoch %d, round %d)", epoch, round)
	}
	t.epoch = epoch
	t.round = round
	return nil
}

// stopRule is Run's stopping rule: EvalEvery, TargetAccuracy, the three
// budgets and MaxEpochs. step consults it after every local epoch and every
// event; a round it cuts short ends without its next event, so it skips
// aggregation. RunRound passes a nil rule, which never stops.
type stopRule struct {
	// distributed is set once Run's initial distribution has passed; every
	// later distribution completes an aggregation event.
	distributed bool
	reached     bool // TargetAccuracy was reached
	budget      bool // a budget ran out
}

// afterEpoch evaluates and records on Run's EvalEvery period and reports
// whether the target or a budget stops the run.
func (t *Trainer) afterEpoch(r *stopRule, loss float64) bool {
	if r == nil {
		return false
	}
	if t.cfg.EvalEvery > 0 && t.epoch%t.cfg.EvalEvery == 0 {
		acc, scored := t.evaluate()
		t.recordRound(loss, acc, scored)
		if t.cfg.TargetAccuracy > 0 && acc >= t.cfg.TargetAccuracy {
			r.reached = true
		}
	}
	return t.afterEvent(r)
}

// afterEvent marks a budget exhausted once any configured one is, and
// reports whether the run stops.
func (t *Trainer) afterEvent(r *stopRule) bool {
	if r == nil {
		return false
	}
	c, snap := t.cfg, t.acct.Snapshot()
	if c.ComputeBudget > 0 && snap.ComputeSecs >= c.ComputeBudget ||
		c.BandwidthBudget > 0 && snap.TotalBytes >= c.BandwidthBudget ||
		c.TimeBudget > 0 && snap.WallSeconds >= c.TimeBudget {
		r.budget = true
	}
	return r.reached || r.budget
}

// step runs one global iteration from the current epoch under rule r and
// returns the last local epoch's loss. Faults are replayed before the
// distribution and before every local epoch. The DRL feedback for the
// previous migration is delivered after each training phase, flagged done
// when r stopped the run during that phase.
func (t *Trainer) step(r *stopRule) float64 {
	t.applyFaults()
	sp := t.tel.Begin("distribution")
	t.distribute()
	sp.End("epoch", t.epoch)
	limit := math.MaxInt
	if r != nil {
		if r.distributed && t.afterEvent(r) {
			return t.lastLoss
		}
		r.distributed = true
		limit = t.cfg.MaxEpochs
	}

	loss := t.lastLoss
	for {
		pre := t.acct.Snapshot()
		stopped := false
		for i := 0; i < t.cfg.Tau && t.epoch < limit && !stopped; i++ {
			t.applyFaults()
			loss = t.localEpoch()
			t.prevLoss, t.lastLoss = t.lastLoss, loss
			if math.IsInf(t.prevLoss, 1) {
				t.prevLoss = loss
			}
			t.epoch++
			stopped = t.afterEpoch(r, loss)
		}
		post := t.acct.Snapshot()
		st := t.snapshotState(post.ComputeSecs-pre.ComputeSecs, post.TotalBytes-pre.TotalBytes)
		if t.pending != nil && t.migrator != nil {
			t.migrator.Feedback(&t.pending.prev, t.pending.action, &st, stopped, stopped && r.reached)
			t.pending = nil
		}
		if stopped || t.epoch >= limit {
			return loss
		}
		// Event boundary: aggregation closes the round; every other phase
		// ends in a migration/swap event.
		if (t.epoch/t.cfg.Tau)%t.cfg.AggEvery == 0 {
			sp := t.tel.Begin("aggregation")
			t.aggregate()
			sp.End("round", t.round, "epoch", t.epoch)
			t.mRounds.Inc()
			return loss
		}
		sp := t.tel.Begin("migration_event")
		action := t.migrate(&st)
		sp.End("epoch", t.epoch)
		if action != nil && t.migrator != nil {
			t.pending = &pendingFeedback{prev: st, action: action}
		}
		if t.afterEvent(r) {
			return loss
		}
	}
}

// Run executes the training loop to completion and returns the result.
// It starts from the trainer's current epoch and round, so a trainer
// fast-forwarded by Restore continues with the uninterrupted run's epoch
// and round numbering.
func (t *Trainer) Run() *Result {
	// The run's pool also backs the tensor kernels: large matmul/conv/pool
	// calls split across the same workers (nested regions degrade to
	// inline execution, so concurrency stays bounded by cfg.Workers).
	prevPool := tensor.InstallPool(t.pool)
	defer tensor.InstallPool(prevPool)
	if t.ownPool {
		defer t.pool.Close()
	}
	t.started = telemetry.Now()
	t.lastLoss = math.Inf(1)
	t.prevLoss = math.Inf(1)

	r := &stopRule{}
	for {
		t.step(r)
		if r.reached || r.budget || t.epoch >= t.cfg.MaxEpochs {
			break
		}
	}
	// Terminal feedback if a budget ran out right after a migration.
	if t.pending != nil && t.migrator != nil {
		st := t.snapshotState(0, 0)
		t.migrator.Feedback(&t.pending.prev, t.pending.action, &st, true, r.reached)
		t.pending = nil
	}
	if len(t.history) == 0 || t.history[len(t.history)-1].Epoch != t.epoch {
		acc, scored := t.evaluate()
		t.recordRound(t.lastLoss, acc, scored)
	}
	res := &Result{
		History:         t.history,
		FinalLoss:       t.lastLoss,
		FinalAcc:        t.history[len(t.history)-1].TestAcc,
		Epochs:          t.epoch,
		Rounds:          t.round,
		Duration:        telemetry.Since(t.started),
		ReachedTarget:   r.reached,
		BudgetExhausted: r.budget,
		Snapshot:        t.acct.Snapshot(),
	}
	t.tel.EmitSnapshot()
	return res
}

// RunRound executes one complete global iteration — Model Distribution to
// the given participants, the round's training phases of τ local epochs
// with a migration/swap event between consecutive phases, Global
// Aggregation — then one evaluation, and returns its metrics record.
// participants may be nil to let the trainer select (cohort sample or
// α-fraction).
//
// Unlike Run, RunRound installs no tensor pool: a caller stepping several
// trainers over one shared pool installs it once around the whole loop
// (tensor.InstallPool), and a standalone caller inherits the ambient pool.
// MaxEpochs, EvalEvery and TargetAccuracy are ignored — the caller owns
// the stopping rule; budgets are still accounted and readable through
// Accountant.
//
// It evaluates after aggregating, so under lazy hydration it weighs the
// cohort's replicas against the new global model, where Run uses the old.
func (t *Trainer) RunRound(participants []int) RoundMetrics {
	if participants != nil {
		t.SetParticipants(participants)
		defer t.SetParticipants(nil)
	}
	if t.started.IsZero() {
		t.started = telemetry.Now()
		t.lastLoss = math.Inf(1)
		t.prevLoss = math.Inf(1)
	}
	loss := t.step(nil)
	acc, scored := t.evaluate()
	t.recordRound(loss, acc, scored)
	return t.history[len(t.history)-1]
}

// Close releases the trainer's scheduler pool when the trainer owns it
// (Config.Pool nil). Run closes it implicitly; orchestrators driving
// RunRound call Close when the job retires. Safe to call repeatedly, and a
// no-op for shared pools.
func (t *Trainer) Close() {
	if t.ownPool {
		t.pool.Close()
	}
}
