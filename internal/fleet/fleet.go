// Package fleet is the multi-tenant orchestration tier above internal/core:
// N named jobs — each with its own model architecture, dataset partition,
// migration policy and round budget — training concurrently over ONE shared
// client fleet. Per round the manager assigns clients to jobs from resource
// state (per-client compute rate and straggler scale, uplink bandwidth,
// per-job demand) by solving the slots × clients assignment exactly with
// the Hungarian solver in internal/qp, schedules due jobs fair-share by
// weight credits, and admits new jobs against a hydrated-replica budget.
//
// Determinism: the manager holds no clock and no ambient RNG. A round's
// allocation is a pure function of (Seed, round, fault plan, job set), the
// only stochastic ingredient being a splitmix64 jitter keyed by (seed,
// round, slot, client). Jobs step strictly in submission order on the
// coordinator goroutine — real parallelism lives inside each trainer's
// shared sched.Pool — so an N-worker multi-job run is bit-identical to a
// serial one, extending DESIGN.md §5's invariant across the job dimension.
package fleet

import (
	"fmt"

	"fedmigr/internal/core"
	"fedmigr/internal/edgenet"
	"fedmigr/internal/faults"
	"fedmigr/internal/sched"
	"fedmigr/internal/telemetry"
)

// JobConfig describes one tenant of the shared fleet.
type JobConfig struct {
	// Name identifies the job in telemetry, checkpoints and CLI specs.
	Name string
	// Demand is the number of clients the job wants each round. When the
	// active fleet cannot cover every due job's demand the manager scales
	// takes down round-robin, never below one client per served job.
	Demand int
	// Weight is the fair-share scheduling weight (default 1): a job
	// accrues Weight credits per fleet round and trains whenever its
	// balance reaches one, so Weight 0.5 trains every other round and
	// Weight 2 never waits.
	Weight float64
	// Rounds is the job's round budget; the job is Done after completing
	// this many global iterations.
	Rounds int
	// Samples[c] is client c's dataset size for THIS job's partition — the
	// allocator's compute-time estimate. Nil means uniform.
	Samples []int
	// Members restricts the job to a subset of the fleet: when non-nil,
	// the allocator only ever hands the job clients on this list (kept
	// sorted ascending). Nil means every client is eligible. Membership is
	// dynamic — SetMembers rebinds it between rounds, which is how the
	// cluster tier migrates clients between cluster models.
	Members []int
}

// JobState is a job's lifecycle phase.
type JobState int

// Job lifecycle: Queued (admitted, waiting for replica budget), Running,
// Done (round budget exhausted), Rejected (demand can never fit).
const (
	Queued JobState = iota
	Running
	Done
	Rejected
)

// String implements fmt.Stringer.
func (s JobState) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Rejected:
		return "rejected"
	default:
		return fmt.Sprintf("JobState(%d)", int(s))
	}
}

// Job is one admitted tenant: its trainer plus scheduling state.
type Job struct {
	Cfg     JobConfig
	Trainer *core.Trainer

	// State and RoundsDone are maintained by the manager; read-only for
	// callers between RunRound calls.
	State      JobState
	RoundsDone int

	// History accumulates the job's per-round metrics records in order.
	History []core.RoundMetrics

	idx        int     // submission index: the deterministic job order
	credit     float64 // fair-share balance (one round costs one credit)
	modelBytes int64
}

// Name returns the job's configured name.
func (j *Job) Name() string { return j.Cfg.Name }

// member reports whether client c is eligible for this job. A nil Members
// list means the whole fleet is; otherwise the sorted list is binary-
// searched.
func (j *Job) member(c int) bool {
	if j.Cfg.Members == nil {
		return true
	}
	lo, hi := 0, len(j.Cfg.Members)
	for lo < hi {
		mid := (lo + hi) / 2
		if j.Cfg.Members[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(j.Cfg.Members) && j.Cfg.Members[lo] == c
}

// Config parameterizes the fleet manager.
type Config struct {
	// MaxHydrated is the admission budget: the sum of running jobs'
	// demands — each demand is the job's peak of simultaneously hydrated
	// replicas under lazy hydration — may not exceed it. A job whose lone
	// demand exceeds the budget is rejected outright; one that merely
	// does not fit *now* queues until running jobs finish. 0 disables
	// admission control.
	MaxHydrated int
	// Seed drives the allocator's deterministic tie-break jitter.
	Seed int64
}

// Manager orchestrates the job set over one shared client fleet.
type Manager struct {
	cfg  Config
	topo *edgenet.Topology
	cost *edgenet.CostModel
	plan *faults.Plan
	pool *sched.Pool
	jobs []*Job

	round int

	tel        *telemetry.Telemetry
	mRounds    *telemetry.Counter
	mAllocated *telemetry.Counter
	mStarved   *telemetry.Counter
	mRejected  *telemetry.Counter
	mHungarian *telemetry.Counter
	mRunning   *telemetry.Gauge
	mQueued    *telemetry.Gauge
	mDone      *telemetry.Gauge
	mActive    *telemetry.Gauge
}

// New builds a fleet manager. topo and cost describe the shared fleet (cost
// may be nil for the default model); plan, when non-nil, drives client
// liveness at round granularity and installs its straggler factors into the
// cost model; pool is the shared worker pool every job's trainer should
// also be configured with (nil runs serial).
func New(cfg Config, topo *edgenet.Topology, cost *edgenet.CostModel, plan *faults.Plan, pool *sched.Pool) (*Manager, error) {
	if topo == nil || topo.K() == 0 {
		return nil, fmt.Errorf("fleet: nil or empty topology")
	}
	if cfg.MaxHydrated < 0 {
		return nil, fmt.Errorf("fleet: negative MaxHydrated %d", cfg.MaxHydrated)
	}
	if cost == nil {
		cost = edgenet.DefaultCostModel()
	}
	// Straggler factors slow the affected clients for the whole run —
	// keyed writes, so the plan map's iteration order is irrelevant.
	for c, f := range plan.Stragglers() {
		if c >= 0 && c < topo.K() {
			cost.SetComputeScale(c, f)
		}
	}
	return &Manager{cfg: cfg, topo: topo, cost: cost, plan: plan, pool: pool}, nil
}

// SetTelemetry installs the fleet_* metric family. Per-job training metrics
// stay with each job's own trainer telemetry; the manager emits only
// orchestration-level instruments plus a "fleet_job_round" event per served
// job round (job identity in labels, not metric names).
func (m *Manager) SetTelemetry(tel *telemetry.Telemetry) {
	m.tel = tel
	m.mRounds = tel.Counter("fleet_rounds_total")
	m.mAllocated = tel.Counter("fleet_allocated_total")
	m.mStarved = tel.Counter("fleet_starved_rounds_total")
	m.mRejected = tel.Counter("fleet_admission_rejected_total")
	m.mHungarian = tel.Counter("fleet_alloc_hungarian_total")
	m.mRunning = tel.Gauge("fleet_jobs_running")
	m.mQueued = tel.Gauge("fleet_jobs_queued")
	m.mDone = tel.Gauge("fleet_jobs_done")
	m.mActive = tel.Gauge("fleet_active_clients")
}

// Jobs returns the submitted jobs in submission order (shared slice;
// callers must not mutate).
func (m *Manager) Jobs() []*Job { return m.jobs }

// Job returns the named job, or nil.
func (m *Manager) Job(name string) *Job {
	for _, j := range m.jobs {
		if j.Cfg.Name == name {
			return j
		}
	}
	return nil
}

// Round returns the number of completed fleet rounds.
func (m *Manager) Round() int { return m.round }

// runningDemand sums the hydrated-replica demand of running jobs.
func (m *Manager) runningDemand() int {
	n := 0
	for _, j := range m.jobs {
		if j.State == Running {
			n += j.Cfg.Demand
		}
	}
	return n
}

// Submit admits a job. The trainer must be built over the same shared
// topology (same client count) with Config.LazyHydration and the shared
// Pool, and with Faults nil — the manager owns fault interpretation. Jobs
// whose demand alone exceeds MaxHydrated are rejected with an error; jobs
// that do not fit the budget *right now* are queued and promoted as
// running jobs finish.
func (m *Manager) Submit(cfg JobConfig, tr *core.Trainer) (*Job, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("fleet: job needs a name")
	}
	if m.Job(cfg.Name) != nil {
		return nil, fmt.Errorf("fleet: duplicate job %q", cfg.Name)
	}
	if tr == nil {
		return nil, fmt.Errorf("fleet: job %q has no trainer", cfg.Name)
	}
	if cfg.Demand <= 0 {
		return nil, fmt.Errorf("fleet: job %q demand %d, want > 0", cfg.Name, cfg.Demand)
	}
	if cfg.Demand > m.topo.K() {
		return nil, fmt.Errorf("fleet: job %q demands %d clients, fleet has %d", cfg.Name, cfg.Demand, m.topo.K())
	}
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("fleet: job %q rounds %d, want > 0", cfg.Name, cfg.Rounds)
	}
	if cfg.Samples != nil && len(cfg.Samples) != m.topo.K() {
		return nil, fmt.Errorf("fleet: job %q has %d sample counts for %d clients", cfg.Name, len(cfg.Samples), m.topo.K())
	}
	if cfg.Members != nil {
		members, err := m.checkMembers(cfg.Name, cfg.Members)
		if err != nil {
			return nil, err
		}
		if cfg.Demand > len(members) {
			return nil, fmt.Errorf("fleet: job %q demands %d clients but has only %d members",
				cfg.Name, cfg.Demand, len(members))
		}
		cfg.Members = members
	}
	if cfg.Weight <= 0 {
		cfg.Weight = 1
	}
	j := &Job{
		Cfg: cfg, Trainer: tr, idx: len(m.jobs),
		modelBytes: tr.GlobalModel().ByteSize(),
	}
	if m.cfg.MaxHydrated > 0 && cfg.Demand > m.cfg.MaxHydrated {
		j.State = Rejected
		m.jobs = append(m.jobs, j)
		m.mRejected.Inc()
		if m.tel != nil {
			m.tel.Event("fleet_admission", "job", cfg.Name, "verdict", "rejected",
				"demand", cfg.Demand, "budget", m.cfg.MaxHydrated)
		}
		return j, fmt.Errorf("fleet: job %q demand %d exceeds hydrated-replica budget %d",
			cfg.Name, cfg.Demand, m.cfg.MaxHydrated)
	}
	if m.cfg.MaxHydrated > 0 && m.runningDemand()+cfg.Demand > m.cfg.MaxHydrated {
		j.State = Queued
	} else {
		j.State = Running
	}
	m.jobs = append(m.jobs, j)
	if m.tel != nil {
		m.tel.Event("fleet_admission", "job", cfg.Name, "verdict", j.State.String(),
			"demand", cfg.Demand, "budget", m.cfg.MaxHydrated)
	}
	m.updateGauges()
	return j, nil
}

// checkMembers validates a member list against the fleet and returns a
// sorted defensive copy with duplicates rejected.
func (m *Manager) checkMembers(job string, members []int) ([]int, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("fleet: job %q has an empty member list (nil means the whole fleet)", job)
	}
	out := append([]int(nil), members...)
	sortInts(out)
	for i, c := range out {
		if c < 0 || c >= m.topo.K() {
			return nil, fmt.Errorf("fleet: job %q member %d out of range [0,%d)", job, c, m.topo.K())
		}
		if i > 0 && out[i-1] == c {
			return nil, fmt.Errorf("fleet: job %q lists member %d twice", job, c)
		}
	}
	return out, nil
}

// SetMembers rebinds a job's member set between rounds — the dynamic-
// membership hook the cluster tier uses to migrate clients between cluster
// models. members nil re-opens the job to the whole fleet; a non-nil list
// is validated, copied and sorted. When the new list is smaller than the
// job's Demand the demand is clamped down (a job cannot want more clients
// than it may touch); use SetDemand to grow it again after the membership
// expands.
func (m *Manager) SetMembers(name string, members []int) error {
	j := m.Job(name)
	if j == nil {
		return fmt.Errorf("fleet: SetMembers on unknown job %q", name)
	}
	if members == nil {
		j.Cfg.Members = nil
		return nil
	}
	checked, err := m.checkMembers(name, members)
	if err != nil {
		return err
	}
	j.Cfg.Members = checked
	if j.Cfg.Demand > len(checked) {
		j.Cfg.Demand = len(checked)
	}
	return nil
}

// SetDemand resizes a job's per-round client demand between rounds. The
// new demand must fit the member list, the fleet, and — for running jobs —
// the hydrated-replica admission budget with the job's old demand released.
func (m *Manager) SetDemand(name string, demand int) error {
	j := m.Job(name)
	if j == nil {
		return fmt.Errorf("fleet: SetDemand on unknown job %q", name)
	}
	if demand <= 0 {
		return fmt.Errorf("fleet: job %q demand %d, want > 0", name, demand)
	}
	if demand > m.topo.K() {
		return fmt.Errorf("fleet: job %q demands %d clients, fleet has %d", name, demand, m.topo.K())
	}
	if j.Cfg.Members != nil && demand > len(j.Cfg.Members) {
		return fmt.Errorf("fleet: job %q demands %d clients but has only %d members",
			name, demand, len(j.Cfg.Members))
	}
	if m.cfg.MaxHydrated > 0 && j.State == Running &&
		m.runningDemand()-j.Cfg.Demand+demand > m.cfg.MaxHydrated {
		return fmt.Errorf("fleet: job %q demand %d exceeds hydrated-replica budget %d",
			name, demand, m.cfg.MaxHydrated)
	}
	j.Cfg.Demand = demand
	return nil
}

// promote moves queued jobs into Running, in submission order, while the
// replica budget has room.
func (m *Manager) promote() {
	for _, j := range m.jobs {
		if j.State != Queued {
			continue
		}
		if m.cfg.MaxHydrated > 0 && m.runningDemand()+j.Cfg.Demand > m.cfg.MaxHydrated {
			continue // keep order: later smaller jobs must not jump the queue
		}
		j.State = Running
		if m.tel != nil {
			m.tel.Event("fleet_admission", "job", j.Cfg.Name, "verdict", "promoted",
				"round", m.round)
		}
	}
}

func (m *Manager) updateGauges() {
	running, queued, done := 0, 0, 0
	for _, j := range m.jobs {
		switch j.State {
		case Running:
			running++
		case Queued:
			queued++
		case Done:
			done++
		}
	}
	m.mRunning.Set(float64(running))
	m.mQueued.Set(float64(queued))
	m.mDone.Set(float64(done))
}

// Idle reports whether no job is running or queued — the fleet's natural
// stopping condition.
func (m *Manager) Idle() bool {
	for _, j := range m.jobs {
		if j.State == Running || j.State == Queued {
			return false
		}
	}
	return true
}
