// Package fedmigr is the public API of this reproduction of "Enhancing
// Federated Learning with Intelligent Model Migration in Heterogeneous
// Edge Computing" (Liu et al., ICDE 2022).
//
// It assembles the internal substrates — tensor/NN stack, synthetic
// datasets with the paper's non-IID partitioners, an edge-network cost
// simulator, the five FL schemes (FedAvg, FedProx, FedSwap, RandMigr,
// FedMigr), and the DDPG-based migration policy (EMPG) — behind a single
// Options struct:
//
//	res, err := fedmigr.Run(fedmigr.Options{
//	    Scheme:    fedmigr.SchemeFedMigr,
//	    Dataset:   fedmigr.DatasetC10,
//	    Partition: fedmigr.PartitionShards,
//	    Clients:   10, LANs: 3, Epochs: 100, AggEvery: 10,
//	})
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package fedmigr

import (
	"fmt"
	"math"

	"fedmigr/internal/core"
	"fedmigr/internal/data"
	"fedmigr/internal/drl"
	"fedmigr/internal/edgenet"
	"fedmigr/internal/faults"
	"fedmigr/internal/nn"
	"fedmigr/internal/privacy"
	"fedmigr/internal/telemetry"
	"fedmigr/internal/tensor"
)

// Scheme selects the federated-training algorithm.
type Scheme = core.SchemeKind

// The five schemes of the paper's evaluation.
const (
	SchemeFedAvg   = core.FedAvg
	SchemeFedProx  = core.FedProx
	SchemeFedSwap  = core.FedSwap
	SchemeRandMigr = core.RandMigr
	SchemeFedMigr  = core.FedMigr
)

// Dataset names a synthetic benchmark workload (DESIGN.md §2 substitutes
// Gaussian-cluster synthetic data for CIFAR-10/100 and ImageNet-100).
type Dataset string

// Built-in datasets.
const (
	DatasetC10     Dataset = "c10"     // 10 classes — CIFAR-10 stand-in
	DatasetC100    Dataset = "c100"    // 100 classes — CIFAR-100 stand-in
	DatasetINet100 Dataset = "inet100" // 100 classes, larger images — ImageNet-100 stand-in
)

// Partition names a client data-partition strategy.
type Partition string

// Built-in partitions (Sec. IV-C/IV-D of the paper).
const (
	PartitionIID       Partition = "iid"
	PartitionShards    Partition = "shards"    // label shards: 1 or more classes per client
	PartitionDominance Partition = "dominance" // test-bed p%-dominance non-IID levels
	PartitionLAN       Partition = "lan"       // LAN-correlated labels (Fig. 3 scenario)
	PartitionDirichlet Partition = "dirichlet" // Dirichlet(α) label proportions (extension)
	// PartitionReplicate deals clients shared references into a small pool
	// of physical shards (ReplicaShards), so dataset memory is independent
	// of Clients — the partition for 100k-client cohort simulations.
	PartitionReplicate Partition = "replicate"
)

// Model names a zoo architecture.
type Model string

// Built-in models (reduced-width counterparts of the paper's models).
const (
	ModelC10CNN   Model = "c10cnn"
	ModelC100CNN  Model = "c100cnn"
	ModelResLite  Model = "reslite"
	ModelAlexLite Model = "alexlite" // AlexNet stand-in (Fig. 3's model)
	ModelMLP      Model = "mlp"
)

// MigratorKind selects the migration policy driving FedMigr (and the fixed
// strategies of Fig. 3).
type MigratorKind string

// Built-in migration policies.
const (
	MigratorDRL       MigratorKind = "drl"     // the paper's EMPG agent
	MigratorRandom    MigratorKind = "random"  // RandMigr's policy
	MigratorGreedyEMD MigratorKind = "greedy"  // deterministic EMD-greedy oracle
	MigratorOptimal   MigratorKind = "optimal" // exact per-event Hungarian assignment
	MigratorCrossLAN  MigratorKind = "cross"   // Fig. 3: migrate across LANs
	MigratorWithinLAN MigratorKind = "within"  // Fig. 3: migrate within LANs
	MigratorStay      MigratorKind = "stay"    // never migrate
)

// Options configures a simulation. Zero values take sensible defaults;
// Clients, at minimum, should usually be set.
type Options struct {
	Scheme    Scheme
	Dataset   Dataset
	Partition Partition
	Model     Model
	Migrator  MigratorKind

	// Clients is K (default 10); LANs groups them (default 3, the paper's
	// C10 simulation layout).
	Clients int
	LANs    int
	// PerClass scales the synthetic dataset (training samples per class,
	// default 20).
	PerClass int
	// Noise is the within-class standard deviation of the synthetic data
	// (default 0.6; larger is harder).
	Noise float64
	// ShardsPerClient applies to PartitionShards (default 1 for ≤10
	// classes, 5 otherwise, matching the paper).
	ShardsPerClient int
	// DominanceLevel p applies to PartitionDominance (default 0.6).
	DominanceLevel float64
	// DirichletAlpha applies to PartitionDirichlet (default 0.5).
	DirichletAlpha float64
	// ReplicaShards applies to PartitionReplicate: the number of distinct
	// physical data shards shared across all clients (default 64, clamped
	// to Clients).
	ReplicaShards int

	// CohortSize, when > 0, samples that many clients per aggregation round
	// (seeded, deterministic) and keeps only the cohort's models hydrated —
	// peak memory O(CohortSize), independent of Clients. 0 trains everyone
	// every round.
	CohortSize int
	// MinCohort is the cohort quorum under fault churn (default 1).
	MinCohort int
	// Aggregators simulates a LAN edge-aggregator tier with this fan-out:
	// uploads stream client → gateway → cloud as partial sums. Purely a
	// traffic/time accounting change — the global model is bit-identical.
	Aggregators int

	// Epochs, AggEvery, Tau, BatchSize, LR, Momentum, ProxMu mirror
	// core.Config.
	Epochs    int
	AggEvery  int
	Tau       int
	BatchSize int
	LR        float64
	Momentum  float64
	ProxMu    float64
	EvalEvery int

	// TargetAccuracy / budgets implement the paper's stopping protocols.
	TargetAccuracy  float64
	ComputeBudget   float64
	BandwidthBudget int64
	TimeBudget      float64

	// PrivacyEpsilon enables (ε, δ)-LDP when finite and positive
	// (Sec. III-E2); PrivacyDelta defaults to 1e-5, PrivacyClip to 10.
	PrivacyEpsilon float64
	PrivacyDelta   float64
	PrivacyClip    float64

	// Cost overrides the network cost model (default
	// edgenet.DefaultCostModel with deterministic jitter).
	Cost *edgenet.CostModel
	// DRL overrides the EMPG configuration for MigratorDRL.
	DRL *drl.MigratorConfig

	// Telemetry, when non-nil, instruments the run: per-round train loss
	// and accuracy gauges, migration/aggregation spans and events, traffic
	// counters mirrored from the edge accountant, and DRL agent internals.
	// See README.md "Observability".
	Telemetry *telemetry.Telemetry

	// Faults, when non-nil, is a deterministic fault schedule replayed
	// during the run: scheduled crashes, transient outages, and straggler
	// slow-downs. See internal/faults and DESIGN.md "Fault tolerance".
	Faults *faults.Plan

	// Workers is the parallel worker count for client training and tensor
	// kernels (0 = runtime.NumCPU(), 1 = serial). Any value produces
	// bit-identical results; see DESIGN.md §5.
	Workers int

	// ShuffleBatches randomizes each model's per-epoch batch order with a
	// worker-count-independent stream (default false: in-order batches).
	ShuffleBatches bool

	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Dataset == "" {
		o.Dataset = DatasetC10
	}
	if o.Partition == "" {
		o.Partition = PartitionShards
	}
	if o.Model == "" {
		o.Model = ModelC10CNN
	}
	if o.Migrator == "" {
		if o.Scheme == SchemeRandMigr {
			o.Migrator = MigratorRandom
		} else {
			o.Migrator = MigratorDRL
		}
	}
	if o.Clients <= 0 {
		o.Clients = 10
	}
	if o.LANs <= 0 {
		o.LANs = 3
	}
	if o.PerClass <= 0 {
		o.PerClass = 20
	}
	if o.DominanceLevel == 0 {
		o.DominanceLevel = 0.6
	}
	if o.DirichletAlpha == 0 {
		o.DirichletAlpha = 0.5
	}
	if o.Epochs <= 0 {
		o.Epochs = 50
	}
	if o.ReplicaShards <= 0 {
		o.ReplicaShards = 64
	}
	if o.AggEvery <= 0 {
		if o.Scheme == SchemeFedAvg || o.Scheme == SchemeFedProx {
			o.AggEvery = 1
		} else {
			o.AggEvery = 10
		}
	}
	if o.LR == 0 {
		o.LR = 0.05
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 32
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Result re-exports the run summary.
type Result = core.Result

// Simulation is an assembled experiment ready to Run, with access to its
// components for instrumentation.
type Simulation struct {
	Trainer  *core.Trainer
	Migrator core.Migrator
	Test     *data.Dataset
	Clients  []*core.Client
	Topology *edgenet.Topology
	Cost     *edgenet.CostModel
	Options  Options

	prior []core.RoundMetrics // records restored by RestoreState
}

// Run executes the simulation.
func (s *Simulation) Run() *Result { return s.Trainer.Run() }

// History returns the run's metrics history: a restored run's saved
// records followed by the trainer's own.
func (s *Simulation) History() []core.RoundMetrics {
	return append(append([]core.RoundMetrics(nil), s.prior...), s.Trainer.History()...)
}

// SaveState writes the simulation's run state to dir as a one-job run:
// scored, the model the latest record scored (the round hook's argument),
// with the trainer's progress and ledger, the full History, and the
// membership of Options.Clients and Options.Faults.
func (s *Simulation) SaveState(dir string, scored *nn.Sequential) error {
	history := s.History()
	return saveRun(dir, 0, map[string]runJob{"": {s.Trainer, scored, &history}},
		s.Options.Clients, s.Options.Faults, nil)
}

// RestoreState resumes a freshly assembled simulation from a SaveState
// checkpoint: it loads the global model, moves the trainer's epoch and
// round counters and cost ledger to the saved point, and keeps the saved
// records as the head of History. Run then continues with the
// uninterrupted run's numbering and traffic totals, so LR schedule,
// shuffle streams, faults, cohorts and budgets line up. Membership drift
// is reported as for Fleet.RestoreState.
func (s *Simulation) RestoreState(dir string) error {
	return restoreRun(dir, map[string]runJob{"": {s.Trainer, s.Trainer.GlobalModel(), &s.prior}},
		s.Options.Clients, s.Options.Faults, nil)
}

// New assembles a Simulation from options without running it.
func New(o Options) (*Simulation, error) {
	o = o.withDefaults()

	train, test, spec, err := buildDataset(o)
	if err != nil {
		return nil, err
	}
	parts, topo, err := partition(o, train)
	if err != nil {
		return nil, err
	}
	clients := make([]*core.Client, o.Clients)
	for i := range clients {
		clients[i] = &core.Client{ID: i, Data: parts[i]}
	}
	factory, err := buildFactory(o, spec)
	if err != nil {
		return nil, err
	}
	cost := o.Cost
	if cost == nil {
		cost = edgenet.DefaultCostModel()
		cost.Jitter = 0.1
		cost.Seed(o.Seed + 7)
	}
	mig, err := buildMigrator(o, topo)
	if err != nil {
		return nil, err
	}
	mech, err := buildPrivacy(o)
	if err != nil {
		return nil, err
	}
	tr, err := core.NewTrainer(coreConfig(o, mech), clients, topo, cost, test, factory, mig)
	if err != nil {
		return nil, err
	}
	tr.SetTelemetry(o.Telemetry)
	if dm, ok := mig.(*drl.Migrator); ok {
		dm.SetTelemetry(o.Telemetry)
	}
	return &Simulation{
		Trainer: tr, Migrator: mig, Test: test, Clients: clients,
		Topology: topo, Cost: cost, Options: o,
	}, nil
}

// Run assembles and executes a simulation in one call.
func Run(o Options) (*Result, error) {
	s, err := New(o)
	if err != nil {
		return nil, err
	}
	return s.Run(), nil
}

// NewWithMigrator assembles a Simulation that uses the caller's migration
// policy instead of the one named in o.Migrator — the deployment path for
// a pre-trained DRL agent or any custom core.Migrator.
func NewWithMigrator(o Options, m core.Migrator) (*Simulation, error) {
	o = o.withDefaults()
	if o.Scheme != SchemeRandMigr && o.Scheme != SchemeFedMigr {
		return nil, fmt.Errorf("fedmigr: scheme %v does not use a migrator", o.Scheme)
	}
	sim, err := New(o)
	if err != nil {
		return nil, err
	}
	sim.Migrator = m
	mech, err := buildPrivacy(o)
	if err != nil {
		return nil, err
	}
	tr, err := core.NewTrainer(coreConfig(o, mech), sim.Clients, sim.Topology, sim.Cost, sim.Test, factoryOf(sim), m)
	if err != nil {
		return nil, err
	}
	tr.SetTelemetry(o.Telemetry)
	if dm, ok := m.(*drl.Migrator); ok {
		dm.SetTelemetry(o.Telemetry)
	}
	sim.Trainer = tr
	return sim, nil
}

// coreConfig maps Options onto the trainer configuration (shared by New
// and NewWithMigrator so the two assembly paths cannot drift).
func coreConfig(o Options, mech *privacy.Mechanism) core.Config {
	return core.Config{
		Scheme:          o.Scheme,
		Tau:             o.Tau,
		AggEvery:        o.AggEvery,
		BatchSize:       o.BatchSize,
		LR:              o.LR,
		Momentum:        o.Momentum,
		ProxMu:          o.ProxMu,
		MaxEpochs:       o.Epochs,
		EvalEvery:       o.EvalEvery,
		TargetAccuracy:  o.TargetAccuracy,
		ComputeBudget:   o.ComputeBudget,
		BandwidthBudget: o.BandwidthBudget,
		TimeBudget:      o.TimeBudget,
		Privacy:         mech,
		Faults:          o.Faults,
		Workers:         o.Workers,
		ShuffleBatches:  o.ShuffleBatches,
		CohortSize:      o.CohortSize,
		MinCohort:       o.MinCohort,
		Aggregators:     o.Aggregators,
		Seed:            o.Seed,
	}
}

func buildDataset(o Options) (train, test *data.Dataset, spec nn.ModelSpec, err error) {
	switch o.Dataset {
	case DatasetC10:
		train, test = data.Synthetic(data.SyntheticConfig{
			Classes: 10, Channels: 3, Height: 8, Width: 8,
			PerClass: o.PerClass, TestPer: o.PerClass, Noise: o.Noise, Seed: o.Seed,
		})
	case DatasetC100:
		train, test = data.Synthetic(data.SyntheticConfig{
			Classes: 100, Channels: 3, Height: 8, Width: 8,
			PerClass: o.PerClass, TestPer: o.PerClass, Noise: o.Noise, Seed: o.Seed,
		})
	case DatasetINet100:
		train, test = data.Synthetic(data.SyntheticConfig{
			Classes: 100, Channels: 3, Height: 10, Width: 10,
			PerClass: o.PerClass, TestPer: o.PerClass, Noise: o.Noise, Seed: o.Seed,
		})
	default:
		return nil, nil, spec, fmt.Errorf("fedmigr: unknown dataset %q", o.Dataset)
	}
	c, h, w := train.Spec()
	spec = nn.ModelSpec{Channels: c, Height: h, Width: w, Classes: train.Classes}
	return train, test, spec, nil
}

func partition(o Options, train *data.Dataset) ([]*data.Dataset, *edgenet.Topology, error) {
	g := tensor.NewRNG(o.Seed + 3)
	var topo *edgenet.Topology
	if o.Clients == 10 && o.LANs == 3 {
		// The paper's C10 simulation layout: LANs of 4/3/3 clients.
		topo = edgenet.GroupedTopology([][]int{{0, 1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	} else {
		topo = edgenet.EvenTopology(o.Clients, o.LANs)
	}
	switch o.Partition {
	case PartitionIID:
		return data.PartitionIID(train, o.Clients, g), topo, nil
	case PartitionShards:
		sp := o.ShardsPerClient
		if sp <= 0 {
			if train.Classes > 10 {
				sp = 5
			} else {
				sp = 1
			}
		}
		return data.PartitionShards(train, o.Clients, sp, g), topo, nil
	case PartitionDominance:
		return data.PartitionDominance(train, o.Clients, o.DominanceLevel, g), topo, nil
	case PartitionLAN:
		return data.PartitionLANCorrelated(train, topo.LANOf, g), topo, nil
	case PartitionDirichlet:
		return data.PartitionDirichlet(train, o.Clients, o.DirichletAlpha, g), topo, nil
	case PartitionReplicate:
		return data.PartitionReplicated(train, o.Clients, o.ReplicaShards, g), topo, nil
	default:
		return nil, nil, fmt.Errorf("fedmigr: unknown partition %q", o.Partition)
	}
}

func buildFactory(o Options, spec nn.ModelSpec) (core.ModelFactory, error) {
	seed := o.Seed + 11
	switch o.Model {
	case ModelC10CNN:
		return func() *nn.Sequential { return nn.NewC10CNN(tensor.NewRNG(seed), spec) }, nil
	case ModelC100CNN:
		return func() *nn.Sequential { return nn.NewC100CNN(tensor.NewRNG(seed), spec) }, nil
	case ModelResLite:
		return func() *nn.Sequential { return nn.NewResLite(tensor.NewRNG(seed), spec, 1) }, nil
	case ModelAlexLite:
		return func() *nn.Sequential { return nn.NewAlexLite(tensor.NewRNG(seed), spec) }, nil
	case ModelMLP:
		in := spec.Channels * spec.Height * spec.Width
		return func() *nn.Sequential {
			g := tensor.NewRNG(seed)
			return nn.NewSequential(
				nn.NewFlatten(),
				nn.NewDense(g, in, 48), nn.NewReLU(),
				nn.NewDense(g, 48, spec.Classes),
			)
		}, nil
	default:
		return nil, fmt.Errorf("fedmigr: unknown model %q", o.Model)
	}
}

func buildMigrator(o Options, topo *edgenet.Topology) (core.Migrator, error) {
	if o.Scheme != SchemeRandMigr && o.Scheme != SchemeFedMigr {
		return nil, nil
	}
	switch o.Migrator {
	case MigratorRandom:
		return core.NewRandomMigrator(o.Seed + 21), nil
	case MigratorGreedyEMD:
		return &core.GreedyEMDMigrator{CostWeight: 0.1}, nil
	case MigratorOptimal:
		return &core.OptimalAssignmentMigrator{CostWeight: 0.1}, nil
	case MigratorCrossLAN:
		return core.NewCrossLANMigrator(topo, o.Seed+21), nil
	case MigratorWithinLAN:
		return core.NewWithinLANMigrator(topo, o.Seed+21), nil
	case MigratorStay:
		return core.StayMigrator{}, nil
	case MigratorDRL:
		cfg := drl.MigratorConfig{K: o.Clients, Seed: o.Seed + 31}
		if o.DRL != nil {
			cfg = *o.DRL
			cfg.K = o.Clients
		}
		return drl.NewMigrator(cfg), nil
	default:
		return nil, fmt.Errorf("fedmigr: unknown migrator %q", o.Migrator)
	}
}

func buildPrivacy(o Options) (*privacy.Mechanism, error) {
	if o.PrivacyEpsilon <= 0 || math.IsInf(o.PrivacyEpsilon, 1) {
		return nil, nil
	}
	delta := o.PrivacyDelta
	if delta == 0 {
		delta = 1e-5
	}
	clip := o.PrivacyClip
	if clip == 0 {
		clip = 10
	}
	return privacy.NewMechanism(o.PrivacyEpsilon, delta, clip, o.Seed+41)
}

// Pretrain warms a DRL migrator offline on cheap simulated episodes before
// deployment, as the paper does ("the training of DRL agent can be
// performed offline in the simulation environment"). It runs `episodes`
// short FedMigr simulations sharing the agent, then freezes nothing — the
// caller decides whether to set Frozen.
func Pretrain(m *drl.Migrator, base Options, episodes, epochsPer int) error {
	for ep := 0; ep < episodes; ep++ {
		o := base.withDefaults()
		o.Scheme = SchemeFedMigr
		o.Epochs = epochsPer
		o.Seed = base.Seed + int64(1000+ep)
		sim, err := New(o)
		if err != nil {
			return err
		}
		sim.Migrator = m
		// Rebuild the trainer with the shared migrator.
		tr, err := core.NewTrainer(core.Config{
			Scheme: SchemeFedMigr, AggEvery: o.AggEvery, Tau: o.Tau,
			BatchSize: o.BatchSize, LR: o.LR, MaxEpochs: epochsPer, Seed: o.Seed,
		}, sim.Clients, sim.Topology, sim.Cost, sim.Test, factoryOf(sim), m)
		if err != nil {
			return err
		}
		tr.Run()
	}
	return nil
}

func factoryOf(s *Simulation) core.ModelFactory {
	f, err := buildFactory(s.Options, specOf(s))
	if err != nil {
		panic(err)
	}
	return f
}

func specOf(s *Simulation) nn.ModelSpec {
	c, h, w := s.Test.Spec()
	return nn.ModelSpec{Channels: c, Height: h, Width: w, Classes: s.Test.Classes}
}
