package fedmigr

import (
	"fmt"

	"fedmigr/internal/checkpoint"
	"fedmigr/internal/core"
	"fedmigr/internal/edgenet"
	"fedmigr/internal/faults"
	"fedmigr/internal/fleet"
	"fedmigr/internal/sched"
	"fedmigr/internal/telemetry"
)

// JobSpec describes one tenant of a multi-job fleet: a name, its share of
// the fleet's clients, and the full per-job training options (model
// architecture, dataset, partition, scheme, migration policy, hyper-
// parameters). Fleet-owned fields of the embedded Options — Clients, LANs,
// Workers, Faults, CohortSize — are overridden by the fleet and may be left
// zero.
type JobSpec struct {
	// Name identifies the job in telemetry, checkpoints and the CLI spec.
	Name string
	// Demand is the number of clients the job wants each round; it is also
	// the job's hydrated-replica budget charge for admission control.
	Demand int
	// Weight is the fair-share scheduling weight (default 1; 0.5 trains
	// every other fleet round).
	Weight float64
	// Rounds is the job's global-iteration budget.
	Rounds int
	// Options carries the job's own training configuration. A zero Seed
	// derives a decorrelated per-job seed from the fleet seed.
	Options Options
}

// FleetOptions configures a multi-tenant fleet: one shared set of clients
// serving every job in Jobs concurrently.
type FleetOptions struct {
	// Clients is the shared fleet size K (default 10); LANs groups them
	// (default 3). Every job's dataset is partitioned over these K clients.
	Clients int
	LANs    int

	// MaxHydrated is the admission budget: the summed Demand of running
	// jobs may not exceed it (0 disables admission control). Jobs whose
	// lone demand exceeds it are rejected; jobs that merely do not fit now
	// are queued and promoted as running jobs finish.
	MaxHydrated int

	// Workers sizes the ONE scheduler pool all jobs share (0 = NumCPU,
	// 1 = serial). Any value produces bit-identical results.
	Workers int

	// Faults, when non-nil, drives client liveness at fleet-round
	// granularity: a dead client is withheld from every job's allocation.
	Faults *faults.Plan

	// Telemetry instruments the manager (fleet_* family). Per-job trainer
	// telemetry is set via each JobSpec's Options.Telemetry.
	Telemetry *telemetry.Telemetry

	// Seed drives the allocator jitter and derives per-job seeds.
	Seed int64

	// Jobs is the initial tenant set, submitted in order.
	Jobs []JobSpec
}

func (o FleetOptions) withDefaults() FleetOptions {
	if o.Clients <= 0 {
		o.Clients = 10
	}
	if o.LANs <= 0 {
		o.LANs = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Fleet is an assembled multi-job simulation: a fleet.Manager plus the
// shared substrate it orchestrates. Close releases the shared pool.
type Fleet struct {
	Manager  *fleet.Manager
	Topology *edgenet.Topology
	Cost     *edgenet.CostModel
	Options  FleetOptions

	pool *sched.Pool
}

// NewFleet assembles a multi-tenant fleet. Each job gets its own dataset,
// partition over the shared K clients, model factory and migrator —
// exactly as New builds them — but trains lazily hydrated on the shared
// scheduler pool with participant choice owned by the fleet allocator.
// A job rejected by admission control (Demand > MaxHydrated) is kept in
// the job list with State Rejected rather than failing assembly, so
// callers can report it; configuration errors do fail assembly.
func NewFleet(o FleetOptions) (*Fleet, error) {
	o = o.withDefaults()
	if len(o.Jobs) == 0 {
		return nil, fmt.Errorf("fedmigr: fleet needs at least one job")
	}

	topo := fleetTopology(o.Clients, o.LANs)
	cost := edgenet.DefaultCostModel()
	cost.Jitter = 0.1
	cost.Seed(o.Seed + 7)
	pool := sched.New(o.Workers)

	mgr, err := fleet.New(fleet.Config{
		MaxHydrated: o.MaxHydrated,
		Seed:        o.Seed,
	}, topo, cost, o.Faults, pool)
	if err != nil {
		pool.Close()
		return nil, err
	}
	mgr.SetTelemetry(o.Telemetry)

	f := &Fleet{Manager: mgr, Topology: topo, Cost: cost, Options: o, pool: pool}
	for i, spec := range o.Jobs {
		tr, samples, err := buildFleetJob(o, i, spec, pool)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fedmigr: job %q: %w", spec.Name, err)
		}
		j, err := mgr.Submit(fleet.JobConfig{
			Name: spec.Name, Demand: spec.Demand, Weight: spec.Weight,
			Rounds: spec.Rounds, Samples: samples,
		}, tr)
		if err != nil && (j == nil || j.State != fleet.Rejected) {
			f.Close()
			return nil, err
		}
	}
	return f, nil
}

// buildFleetJob assembles one job's trainer over the shared fleet: the
// job's own dataset/partition/factory/migrator with the fleet-owned knobs
// (client count, lazy hydration, shared pool, fault handling) forced.
func buildFleetJob(o FleetOptions, idx int, spec JobSpec, pool *sched.Pool) (*core.Trainer, []int, error) {
	jo := spec.Options
	jo.Clients = o.Clients
	jo.LANs = o.LANs
	jo.Workers = o.Workers
	jo.CohortSize = 0 // the fleet allocator IS the cohort sampler
	jo.Faults = nil   // the manager owns fault interpretation
	if jo.Seed == 0 {
		// Decorrelate jobs sharing a fleet seed: same splitmix64-style odd
		// multiplier used for worker-stream seeding elsewhere.
		jo.Seed = int64(uint64(o.Seed) + uint64(idx+1)*0x9e3779b97f4a7c15)
	}
	jo = jo.withDefaults()

	train, test, mspec, err := buildDataset(jo)
	if err != nil {
		return nil, nil, err
	}
	parts, _, err := partition(jo, train)
	if err != nil {
		return nil, nil, err
	}
	clients := make([]*core.Client, jo.Clients)
	samples := make([]int, jo.Clients)
	for i := range clients {
		clients[i] = &core.Client{ID: i, Data: parts[i]}
		samples[i] = parts[i].Len()
	}
	factory, err := buildFactory(jo, mspec)
	if err != nil {
		return nil, nil, err
	}
	topo := fleetTopology(o.Clients, o.LANs)
	mig, err := buildMigrator(jo, topo)
	if err != nil {
		return nil, nil, err
	}
	mech, err := buildPrivacy(jo)
	if err != nil {
		return nil, nil, err
	}
	cfg := coreConfig(jo, mech)
	cfg.LazyHydration = true
	cfg.Pool = pool
	cost := jo.Cost
	if cost == nil {
		cost = edgenet.DefaultCostModel()
		cost.Jitter = 0.1
		cost.Seed(jo.Seed + 7)
	}
	tr, err := core.NewTrainer(cfg, clients, topo, cost, test, factory, mig)
	if err != nil {
		return nil, nil, err
	}
	tr.SetTelemetry(jo.Telemetry)
	return tr, samples, nil
}

// fleetTopology mirrors partition()'s layout rule so single-job and fleet
// runs of the paper's 10/3 configuration agree on LAN structure.
func fleetTopology(clients, lans int) *edgenet.Topology {
	if clients == 10 && lans == 3 {
		return edgenet.GroupedTopology([][]int{{0, 1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	}
	return edgenet.EvenTopology(clients, lans)
}

// Run drives fleet rounds until every job is Done or Rejected, or
// maxRounds rounds elapse (0 = unbounded). Returns rounds executed.
func (f *Fleet) Run(maxRounds int) int { return f.Manager.Run(maxRounds) }

// Close releases every job's trainer resources and the shared pool.
func (f *Fleet) Close() {
	for _, j := range f.Manager.Jobs() {
		if j.Trainer != nil {
			j.Trainer.Close()
		}
	}
	f.pool.Close()
}

// SaveState writes the fleet's run state to dir: every non-rejected job's
// model, counters, ledger and history, the fleet round, and the membership
// of Options.Clients and Options.Faults.
func (f *Fleet) SaveState(dir string) error {
	return saveRun(dir, f.Manager.Round(), fleetJobs(f.Manager), f.Options.Clients, f.Options.Faults, nil)
}

// RestoreState resumes a fleet from a SaveState checkpoint: every
// non-rejected job's global model parameters, history, epoch/round
// counters and cost ledger are restored, and the manager's scheduling
// state is fast-forwarded to the saved fleet round. The fleet must be
// freshly assembled (no rounds run) with the same job set the checkpoint
// holds. A *checkpoint.DriftError means the checkpoint was saved under a
// different membership; the fleet is restored, and only a caller that
// accepts the drift may run it.
func (f *Fleet) RestoreState(dir string) error {
	return restoreRun(dir, fleetJobs(f.Manager), f.Options.Clients, f.Options.Faults,
		func(st *checkpoint.RunState) error { return restoreFleet(f.Manager, st) })
}
