package core

import (
	"fmt"
	"time"

	"fedmigr/internal/agg"
	"fedmigr/internal/data"
	"fedmigr/internal/edgenet"
	"fedmigr/internal/nn"
	"fedmigr/internal/sched"
	"fedmigr/internal/stats"
	"fedmigr/internal/telemetry"
	"fedmigr/internal/tensor"
)

// Trainer runs one federated-training experiment: K clients over an edge
// topology, a global model at the server, and a scheme-specific event
// schedule of local updates, migrations/swaps and aggregations.
type Trainer struct {
	cfg     Config
	clients []*Client
	topo    *edgenet.Topology
	cost    *edgenet.CostModel
	acct    *edgenet.Accountant
	test    *data.Dataset

	factory      ModelFactory
	global       *nn.Sequential
	models       []*nn.Sequential
	opts         []*nn.SGD
	loc          []int // model m → hosting client
	active       []bool
	participants []bool // per-round α-selection (Sec. II-A)
	forced       []int  // externally chosen participants (fleet allocator)
	migrator     Migrator

	// Cohort mode (cfg.CohortSize > 0): models[m]/opts[m] are nil unless
	// client m is in the current cohort; hydrate materializes a replica
	// from the free list when m is sampled and dehydrate recycles it when
	// the cohort moves on, so live model memory is O(cohort), not O(K).
	lazy        bool
	sampler     *cohortSampler
	freeModels  []*nn.Sequential
	hydrated    int
	maxHydrated int

	// effDist[m] is the effective label distribution model m has trained
	// on so far; effSeen[m] is its accumulated sample weight. Together
	// they realize Eq. (12)'s "virtual dataset" and feed the D_t matrix.
	effDist    []stats.Distribution
	effSeen    []float64
	clientDist []stats.Distribution

	pool      *sched.Pool
	ownPool   bool // true when the trainer created pool and must close it
	rng       *tensor.RNG
	epoch     int
	round     int
	lastLoss  float64
	prevLoss  float64
	stateMigr int // completed in-flight state migrations (mid-epoch rescues)
	history   []RoundMetrics
	pending   *pendingFeedback
	modelSize int64
	roundHook func(RoundMetrics, *nn.Sequential)

	// Telemetry (nil and allocation-free unless SetTelemetry installs it).
	tel         *telemetry.Telemetry
	started     time.Time
	mTrainLoss  *telemetry.Gauge
	mTestAcc    *telemetry.Gauge
	mEpochs     *telemetry.Counter
	mRounds     *telemetry.Counter
	mMigrations *telemetry.Counter
	mStateMigr  *telemetry.Counter
	mFaults     *telemetry.Counter
	mCohort     *telemetry.Gauge
	mHydrated   *telemetry.Gauge
	mAggParts   *telemetry.Counter
	mAggPeak    *telemetry.Gauge
}

type pendingFeedback struct {
	prev   State
	action []int
}

// NewTrainer assembles a trainer. clients, topo and factory are required;
// test may be nil (accuracy evaluations then return 0). migrator is
// required only for RandMigr/FedMigr schemes.
func NewTrainer(cfg Config, clients []*Client, topo *edgenet.Topology, cost *edgenet.CostModel, test *data.Dataset, factory ModelFactory, migrator Migrator) (*Trainer, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(clients) == 0 {
		return nil, fmt.Errorf("core: no clients")
	}
	if topo == nil || topo.K() != len(clients) {
		return nil, fmt.Errorf("core: topology/client count mismatch")
	}
	if cost == nil {
		cost = edgenet.DefaultCostModel()
	}
	if factory == nil {
		return nil, fmt.Errorf("core: nil model factory")
	}
	needsMigrator := cfg.Scheme == RandMigr || cfg.Scheme == FedMigr
	if needsMigrator && migrator == nil {
		return nil, fmt.Errorf("core: scheme %v requires a migrator", cfg.Scheme)
	}
	t := &Trainer{
		cfg:      cfg,
		clients:  clients,
		topo:     topo,
		cost:     cost,
		acct:     edgenet.NewAccountant(),
		test:     test,
		factory:  factory,
		migrator: migrator,
		pool:     cfg.Pool,
		rng:      tensor.NewRNG(cfg.Seed),
	}
	if t.pool == nil {
		t.pool = sched.New(cfg.Workers)
		t.ownPool = true
	}
	t.global = factory()
	t.modelSize = t.global.ByteSize()
	k := len(clients)
	t.lazy = cfg.CohortSize > 0 || cfg.LazyHydration
	if cfg.CohortSize > 0 {
		t.sampler = &cohortSampler{k: k, size: cfg.CohortSize, min: cfg.MinCohort, seed: cfg.Seed}
	}
	t.models = make([]*nn.Sequential, k)
	t.opts = make([]*nn.SGD, k)
	t.loc = make([]int, k)
	t.active = make([]bool, k)
	t.participants = make([]bool, k)
	t.effDist = make([]stats.Distribution, k)
	t.effSeen = make([]float64, k)
	t.clientDist = make([]stats.Distribution, k)
	for m := 0; m < k; m++ {
		if !t.lazy {
			// Cohort mode defers replica materialization to distribute();
			// the historical mode keeps every replica resident.
			t.models[m] = factory()
			t.models[m].CopyParamsFrom(t.global)
			t.opts[m] = nn.NewSGDMomentum(cfg.LR, cfg.Momentum)
			t.participants[m] = true
		}
		t.loc[m] = m
		t.active[m] = true
		t.clientDist[m] = clients[m].Data.LabelDistribution()
		t.effDist[m] = t.clientDist[m]
		t.effSeen[m] = float64(clients[m].Data.Len())
	}
	// Straggler injection: the plan's slow-down factors scale the affected
	// clients' simulated compute for the whole run.
	for c, f := range cfg.Faults.Stragglers() {
		if c >= 0 && c < k {
			cost.SetComputeScale(c, f)
		}
	}
	return t, nil
}

// Accountant exposes the run's resource accounting.
func (t *Trainer) Accountant() *edgenet.Accountant { return t.acct }

// Workers returns the run's parallel worker count.
func (t *Trainer) Workers() int { return t.pool.Workers() }

// SetTelemetry installs the run's observability sinks: loss/accuracy
// gauges, epoch/round/migration counters, per-phase spans, and a mirror
// of the accountant's traffic into the same registry. A nil tel (the
// default) keeps every instrumented path a no-op.
func (t *Trainer) SetTelemetry(tel *telemetry.Telemetry) {
	t.tel = tel
	t.acct.Mirror(tel.Registry())
	t.mTrainLoss = tel.Gauge("core_train_loss")
	t.mTestAcc = tel.Gauge("core_test_accuracy")
	t.mEpochs = tel.Counter("core_epochs_total")
	t.mRounds = tel.Counter("core_rounds_total")
	t.mMigrations = tel.Counter("core_migrations_total")
	t.mStateMigr = tel.Counter("core_state_migrations_total")
	t.mFaults = tel.Counter("core_fault_transitions_total")
	t.mCohort = tel.Gauge("core_cohort_size")
	t.mHydrated = tel.Gauge("core_hydrated_models")
	t.mAggParts = tel.Counter("core_agg_partials_total")
	t.mAggPeak = tel.Gauge("core_agg_peak_live")
	t.pool.SetTelemetry(tel)
}

// SetRoundHook installs fn, invoked after every recorded evaluation with
// the fresh metrics record and the model that record scored — the
// checkpointing hook periodic persistence builds on. At a round boundary
// (every replica resident, full participation, no privacy noise) that
// model is bit-identical to the global model the boundary's aggregation
// forms.
func (t *Trainer) SetRoundHook(fn func(RoundMetrics, *nn.Sequential)) { t.roundHook = fn }

// applyFaults replays the fault plan for the current epoch: clients whose
// scheduled state (crashed, in an outage window, or recovered) differs
// from their current active flag are flipped, with a telemetry event per
// transition. Clients the plan never mentions keep whatever SetActive set.
func (t *Trainer) applyFaults() {
	p := t.cfg.Faults
	if p == nil {
		return
	}
	for c := range t.active {
		if !p.Mentions(c) {
			continue
		}
		want := p.ActiveAt(c, t.epoch)
		if t.active[c] == want {
			continue
		}
		t.active[c] = want
		t.mFaults.Inc()
		if t.tel != nil {
			kind := "recover"
			if !want {
				kind = "down"
				if e, ok := p.CrashEpoch(c); ok && t.epoch >= e {
					kind = "crash"
				}
				if e, ok := p.LeaveEpoch(c); ok && t.epoch >= e {
					kind = "leave"
				}
			} else if e, ok := p.JoinEpoch(c); ok && t.epoch == e {
				kind = "join"
			}
			t.tel.Event("fault", "client", c, "epoch", t.epoch, "kind", kind)
		}
	}
}

// recordRound appends one evaluation record to the history and emits the
// matching telemetry gauges and JSONL "round" event — the single place
// the two schemas are kept in agreement — then hands the record and the
// model it scored to the round hook.
func (t *Trainer) recordRound(loss, acc float64, scored *nn.Sequential) {
	snap := t.acct.Snapshot()
	t.history = append(t.history, RoundMetrics{
		Epoch: t.epoch, Round: t.round, TrainLoss: loss, TestAcc: acc,
		Duration: telemetry.Since(t.started), Snapshot: snap,
	})
	t.mTrainLoss.Set(loss)
	t.mTestAcc.Set(acc)
	if t.tel != nil {
		t.tel.Event("round",
			"epoch", t.epoch, "round", t.round, "loss", loss, "acc", acc,
			"total_bytes", snap.TotalBytes, "global_bytes", snap.GlobalBytes,
			"c2s_bytes", snap.C2SBytes, "wall_seconds", snap.WallSeconds,
			"compute_seconds", snap.ComputeSecs)
	}
	if t.roundHook != nil {
		t.roundHook(t.history[len(t.history)-1], scored)
	}
}

// Epoch returns the current epoch index.
func (t *Trainer) Epoch() int { return t.epoch }

// StateMigrations returns how many in-flight TrainState migrations
// (mid-epoch rescues) the run has completed.
func (t *Trainer) StateMigrations() int { return t.stateMigr }

// Locations returns the current model→client hosting map (a copy).
func (t *Trainer) Locations() []int { return append([]int(nil), t.loc...) }

// GlobalModel returns the server's current global model.
func (t *Trainer) GlobalModel() *nn.Sequential { return t.global }

// Models returns the live model replicas, indexed by model id. Callers
// must treat them as read-only.
func (t *Trainer) Models() []*nn.Sequential { return t.models }

// EffectiveDistributions returns a copy of every replica's effective
// training mixture (Eq. 12's virtual-dataset distribution).
func (t *Trainer) EffectiveDistributions() []stats.Distribution {
	out := make([]stats.Distribution, len(t.effDist))
	for i, d := range t.effDist {
		out[i] = append(stats.Distribution(nil), d...)
	}
	return out
}

// ClientDistributions returns a copy of every client's raw label
// distribution — the clustering key the cluster tier groups and
// re-evaluates assignments on.
func (t *Trainer) ClientDistributions() []stats.Distribution {
	out := make([]stats.Distribution, len(t.clientDist))
	for i, d := range t.clientDist {
		out[i] = append(stats.Distribution(nil), d...)
	}
	return out
}

// SetActive marks a client as participating or departed. Models hosted by
// an inactive client are parked: they neither train nor move until the
// client returns or a migration relocates them.
func (t *Trainer) SetActive(client int, active bool) {
	if client < 0 || client >= len(t.active) {
		panic(fmt.Sprintf("core: SetActive(%d) out of range", client))
	}
	t.active[client] = active
}

// hydrate materializes client m's replica and optimizer for the round,
// recycling a retired replica from the free list when one is available so
// steady-state cohort rotation allocates no new model storage.
func (t *Trainer) hydrate(m int) {
	if t.models[m] != nil {
		return
	}
	if n := len(t.freeModels); n > 0 {
		t.models[m] = t.freeModels[n-1]
		t.freeModels[n-1] = nil
		t.freeModels = t.freeModels[:n-1]
	} else {
		t.models[m] = t.factory()
	}
	t.opts[m] = nn.NewSGDMomentum(t.cfg.LR, t.cfg.Momentum)
	t.hydrated++
	if t.hydrated > t.maxHydrated {
		t.maxHydrated = t.hydrated
	}
	t.mHydrated.Set(float64(t.hydrated))
}

// dehydrate retires client m's replica to the free list (its parameters
// are dead weight once the round aggregated; the next hydration overwrites
// them with the fresh global copy).
func (t *Trainer) dehydrate(m int) {
	if t.models[m] == nil {
		return
	}
	t.freeModels = append(t.freeModels, t.models[m])
	t.models[m] = nil
	t.opts[m] = nil
	t.hydrated--
	t.mHydrated.Set(float64(t.hydrated))
}

// MaxHydrated reports the peak number of simultaneously materialized
// replicas — asserted equal to the cohort size by the 100k-client smoke
// test.
func (t *Trainer) MaxHydrated() int {
	if !t.lazy {
		return len(t.models)
	}
	return t.maxHydrated
}

// totalWeight returns the aggregation normalizer N (active home datasets).
func (t *Trainer) totalWeight() float64 {
	n := 0.0
	for _, c := range t.clients {
		n += float64(c.Data.Len())
	}
	return n
}

// snapshotState builds the migrator-facing environment snapshot. D[m][j]
// is the EMD between model m's effective training mixture (Eq. 12) and
// client j's local data distribution — the quantity a migration of m to j
// would start reducing.
func (t *Trainer) snapshotState(epochCompute float64, epochBytes int64) State {
	k := len(t.clients)
	// The K×K distance and cost matrices exist only for migration
	// policies; schemes without one (FedAvg/FedProx/FedSwap) skip them —
	// at 100k clients they would be 80 GB each.
	var d, costSec [][]float64
	if t.migrator != nil {
		d = make([][]float64, k)
		for m := 0; m < k; m++ {
			d[m] = make([]float64, k)
			for j := 0; j < k; j++ {
				d[m][j] = stats.EMD(t.effDist[m], t.clientDist[j])
			}
		}
		costSec = make([][]float64, k)
		for i := 0; i < k; i++ {
			costSec[i] = make([]float64, k)
			for j := 0; j < k; j++ {
				if i == j {
					continue
				}
				costSec[i][j] = t.cost.TransferTime(i, j, t.topo.Kind(i, j), t.modelSize)
			}
		}
	}
	snap := t.acct.Snapshot()
	return State{
		Epoch:               t.epoch,
		Loss:                t.lastLoss,
		PrevLoss:            t.prevLoss,
		D:                   d,
		Locations:           append([]int(nil), t.loc...),
		Active:              engagedMask(t),
		CostSeconds:         costSec,
		ComputeUsed:         snap.ComputeSecs,
		ComputeBudget:       t.cfg.ComputeBudget,
		BytesUsed:           snap.TotalBytes,
		BytesBudget:         t.cfg.BandwidthBudget,
		EpochComputeSeconds: epochCompute,
		EpochBytes:          epochBytes,
	}
}

// localEpoch runs one local training epoch for every model on its hosting
// client's data, returning the average loss and charging compute time.
//
// The per-model training jobs run concurrently through the scheduler pool.
// Each job touches only index-private state — its own model, optimizer,
// loss/time slot, and effective-distribution entry — with an RNG stream
// derived from (Seed, epoch, model), so stochasticity never depends on
// worker count or completion order. The cross-model reductions (loss sum,
// per-client compute time) happen afterwards on the coordinator in model-
// index order, making the epoch bit-identical to a serial run.
func (t *Trainer) localEpoch() float64 {
	sp := t.tel.Begin("local_epoch")
	k := len(t.models)
	var globalVec *tensor.Tensor
	if t.cfg.Scheme == FedProx && t.cfg.ProxMu > 0 {
		globalVec = t.global.ParamVector()
	}
	if t.cfg.LRSchedule != nil {
		lr := t.cfg.LRSchedule.LR(t.epoch)
		for _, opt := range t.opts {
			if opt != nil {
				opt.LR = lr
			}
		}
	}
	// Snapshot the work list sequentially: engagement (faults + α-selection)
	// and model locations are coordinator state and must not be read from
	// inside parallel jobs. A host with a mid-epoch crash scheduled this
	// epoch trains up to its cut batch only; the coordinator migrates and
	// resumes the interrupted state afterwards.
	type job struct {
		m, host int
		cut     int // mid-epoch crash cursor (-1 = uninterrupted)
	}
	jobs := make([]job, 0, k)
	for m := 0; m < k; m++ {
		if t.models[m] == nil {
			continue // cohort mode: replica not hydrated this round
		}
		host := t.loc[m]
		if !t.engaged(host) || t.clients[host].Data.Len() == 0 {
			continue
		}
		cut := -1
		if ce, cb, ok := t.cfg.Faults.MidEpochCrash(host); ok && ce == t.epoch {
			cut = cb
		}
		jobs = append(jobs, job{m: m, host: host, cut: cut})
	}
	losses := make([]float64, len(jobs))
	ctime := make([]float64, len(jobs))
	blobs := make([][]byte, len(jobs))
	t.pool.ForEach("local_epoch", len(jobs), func(i int) {
		j := jobs[i]
		ds := t.clients[j.host].Data
		g := tensor.NewRNG(modelEpochSeed(t.cfg.Seed, t.epoch, j.m))
		if j.cut >= 0 {
			// Interrupted epoch: train the prefix, then capture the
			// in-flight TrainState through the real wire codec — the
			// coordinator resumes it on another node below. losses[i]
			// temporarily holds the partial loss *sum*; the resume
			// overwrites it with the finished epoch's average.
			order := t.epochBatchOrder(ds, g)
			cut := j.cut
			if cut > len(order) {
				cut = len(order)
			}
			lossSum := t.trainBatches(t.models[j.m], t.opts[j.m], ds, globalVec, order[:cut])
			ts := CaptureTrainState(j.m, t.epoch, modelEpochSeed(t.cfg.Seed, t.epoch, j.m),
				order, cut, lossSum, t.models[j.m], t.opts[j.m])
			blob, err := ts.Marshal()
			if err != nil {
				panic(fmt.Sprintf("core: capture TrainState for model %d: %v", j.m, err))
			}
			blobs[i] = blob
			losses[i] = lossSum
			ctime[i] = t.cost.ComputeTime(j.host, t.batchSpanSamples(ds, order[:cut]))
		} else {
			losses[i] = t.trainOneEpoch(t.models[j.m], t.opts[j.m], ds, globalVec, g)
			ctime[i] = t.cost.ComputeTime(j.host, ds.Len())
		}
		// Fold the host's distribution into the model's effective mixture
		// (index-private: job i owns effDist[m] and effSeen[m]). The fold
		// is the same for interrupted epochs: the migrated remainder still
		// trains over this host's shard.
		n := float64(ds.Len())
		mix := make(stats.Distribution, len(t.effDist[j.m]))
		hostDist := ds.LabelDistribution()
		tot := t.effSeen[j.m] + n
		for c := range mix {
			mix[c] = (t.effDist[j.m][c]*t.effSeen[j.m] + hostDist[c]*n) / tot
		}
		t.effDist[j.m] = mix
		t.effSeen[j.m] = tot
	})
	// Migrate and resume interrupted replicas on the coordinator, in
	// job-index order — deterministic for any worker count.
	perClientTime := make([]float64, k)
	migrateWall := 0.0
	for i, j := range jobs {
		if blobs[i] == nil {
			continue
		}
		avg, dt, wall := t.resumeInterrupted(j.m, j.host, blobs[i], globalVec)
		losses[i] = avg
		for c, s := range dt {
			perClientTime[c] += s
		}
		if wall > migrateWall {
			migrateWall = wall
		}
	}
	// Deterministic reduction, in model-index order.
	lossSum := 0.0
	for i, j := range jobs {
		lossSum += losses[i]
		perClientTime[j.host] += ctime[i]
	}
	wall, device := 0.0, 0.0
	for _, s := range perClientTime {
		device += s
		if s > wall {
			wall = s
		}
	}
	t.acct.AddWallTime(wall + migrateWall)
	t.acct.AddComputeTime(device)
	t.mEpochs.Inc()
	avg := t.lastLoss
	if len(jobs) > 0 {
		avg = lossSum / float64(len(jobs))
	}
	sp.End("epoch", t.epoch, "loss", avg)
	return avg
}

// modelEpochSeed derives the seed of the RNG stream model m uses during
// epoch e — a splitmix64-style mix so streams are decorrelated across
// (epoch, model) pairs and entirely independent of scheduling.
func modelEpochSeed(seed int64, epoch, m int) int64 {
	z := uint64(seed) ^ 0x9e3779b97f4a7c15*uint64(epoch+1) ^ 0x2545f4914f6cdd1d*uint64(m+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// trainOneEpoch runs τ=1 pass of mini-batch SGD of model over ds,
// optionally adding the FedProx proximal gradient μ(w − w_g). g is the
// model's private stochasticity stream for this epoch; it drives the
// optional batch-order shuffle. Batch tensors are recycled through the
// scheduler arena, so steady-state training allocates no batch storage.
func (t *Trainer) trainOneEpoch(model *nn.Sequential, opt *nn.SGD, ds *data.Dataset, globalVec *tensor.Tensor, g *tensor.RNG) float64 {
	order := t.epochBatchOrder(ds, g)
	if len(order) == 0 {
		return 0
	}
	lossSum := t.trainBatches(model, opt, ds, globalVec, order)
	return lossSum / float64(len(order))
}

// epochBatchOrder returns the epoch's batch visiting order: the identity
// permutation, shuffled through the model's private RNG stream when
// ShuffleBatches asks for it. The returned order is the materialized
// position of the stream — storing it in a TrainState pins a mid-epoch
// resume to the exact same batches without serializing raw RNG internals.
func (t *Trainer) epochBatchOrder(ds *data.Dataset, g *tensor.RNG) []int {
	b := t.cfg.BatchSize
	nb := (ds.Len() + b - 1) / b
	order := make([]int, nb)
	for i := range order {
		order[i] = i
	}
	if t.cfg.ShuffleBatches && g != nil {
		g.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	return order
}

// trainBatches runs mini-batch SGD over the given slice of an epoch's
// batch order and returns the summed (not averaged) loss — the resumable
// core of trainOneEpoch. A mid-epoch migration captures the cursor into
// this order; the receiving node finishes the remainder through this same
// function, so an interrupted epoch is bit-identical to an uninterrupted
// one.
func (t *Trainer) trainBatches(model *nn.Sequential, opt *nn.SGD, ds *data.Dataset, globalVec *tensor.Tensor, order []int) float64 {
	b := t.cfg.BatchSize
	c, h, w := ds.Spec()
	lossSum := 0.0
	for _, wi := range order {
		lo := wi * b
		hi := lo + b
		if hi > ds.Len() {
			hi = ds.Len()
		}
		x := tensor.GetScratch(hi-lo, c, h, w)
		y := ds.BatchInto(x.Data(), lo, hi)
		model.ZeroGrad()
		out := model.Forward(x, true)
		loss, grad := nn.CrossEntropy(out, y)
		model.Backward(grad)
		if globalVec != nil {
			t.addProxGrad(model, globalVec)
		}
		opt.Step(model)
		tensor.PutScratch(x)
		lossSum += loss
	}
	return lossSum
}

// resumeInterrupted migrates a mid-epoch-crashed replica to a live node
// and finishes its epoch there: the TrainState blob is decoded through the
// real wire codec, restored onto a *freshly materialized* replica and
// optimizer (modeling arrival on another machine), and the remaining
// batches of the victim's shard are replayed from the captured order and
// cursor — bit-identical to an uninterrupted epoch, since the parameters,
// momentum buffers, batch order and loss accumulator all travel in the
// blob. Returns the finished epoch's average loss, per-client compute-time
// deltas, and the wall time of the state transfer + remainder.
//
// Runs on the coordinator in job-index order, so results are identical for
// any worker count.
func (t *Trainer) resumeInterrupted(m, victim int, blob []byte, globalVec *tensor.Tensor) (float64, []float64, float64) {
	ts, err := UnmarshalTrainState(blob)
	if err != nil {
		panic(fmt.Sprintf("core: migrated TrainState for model %d: %v", m, err))
	}
	fresh := t.factory()
	freshOpt := nn.NewSGDMomentum(ts.LR, ts.Momentum)
	if err := ts.Restore(fresh, freshOpt); err != nil {
		panic(fmt.Sprintf("core: restore TrainState for model %d: %v", m, err))
	}
	if t.lazy && t.models[m] != nil {
		// The superseded replica object returns to the free list; the next
		// hydration overwrites its parameters anyway.
		t.freeModels = append(t.freeModels, t.models[m])
	}
	t.models[m] = fresh
	t.opts[m] = freshOpt

	ds := t.clients[victim].Data
	rest := ts.Order[ts.BatchCursor:]
	lossSum := ts.LossSum + t.trainBatches(fresh, freshOpt, ds, globalVec, rest)
	avg := 0.0
	if ts.NumBatches > 0 {
		avg = lossSum / float64(ts.NumBatches)
	}

	dt := make([]float64, len(t.clients))
	wall := 0.0
	target := t.rescueTarget(victim)
	if target >= 0 {
		kind := t.topo.Kind(victim, target)
		t.acct.RecordTransfer(victim, target, kind, int64(len(blob)))
		wall = t.cost.TransferTime(victim, target, kind, int64(len(blob)))
		rem := t.cost.ComputeTime(target, t.batchSpanSamples(ds, rest))
		dt[target] += rem
		wall += rem
		t.loc[m] = target
		t.stateMigr++
		t.mStateMigr.Inc()
		if t.tel != nil {
			t.tel.Event("state_migration",
				"epoch", t.epoch, "model", m, "from", victim, "to", target,
				"cursor", ts.BatchCursor, "batches", ts.NumBatches, "bytes", len(blob))
		}
	} else {
		// No live rescuer: the epoch still finishes (the simulator can
		// always replay the remainder), but hosting stays put and the
		// remainder's compute is charged to the dying node.
		dt[victim] += t.cost.ComputeTime(victim, t.batchSpanSamples(ds, rest))
	}
	return avg, dt, wall
}

// rescueTarget picks the node that adopts a dying client's in-flight
// state: the lowest-id client that is engaged this round and is not the
// victim. Pure function of coordinator state — deterministic across
// worker counts and runs. Returns -1 when nobody can adopt.
func (t *Trainer) rescueTarget(victim int) int {
	for c := range t.clients {
		if c != victim && t.engaged(c) && t.cfg.Faults.ActiveAt(c, t.epoch+1) {
			return c
		}
	}
	return -1
}

// batchSpanSamples counts the samples covered by the given batch indices.
func (t *Trainer) batchSpanSamples(ds *data.Dataset, order []int) int {
	b := t.cfg.BatchSize
	n := 0
	for _, wi := range order {
		lo := wi * b
		hi := lo + b
		if hi > ds.Len() {
			hi = ds.Len()
		}
		n += hi - lo
	}
	return n
}

// addProxGrad adds μ(w − w_g) to the accumulated gradients (FedProx).
func (t *Trainer) addProxGrad(model *nn.Sequential, globalVec *tensor.Tensor) {
	mu := t.cfg.ProxMu
	ps, gs := model.Params()
	off := 0
	gv := globalVec.Data()
	for i, p := range ps {
		pd, gd := p.Data(), gs[i].Data()
		for j := range pd {
			gd[j] += mu * (pd[j] - gv[off+j])
		}
		off += p.Size()
	}
}

// selectParticipants draws the clients taking part in the next global
// iteration and then removes clients that have not yet joined under the
// plan's arrival schedule: a pre-join client has no replica anywhere, so
// it must carry no aggregation weight — this is what keeps quorum and
// slot accounting correct as the cohort set changes.
func (t *Trainer) selectParticipants() {
	t.chooseParticipants()
	if p := t.cfg.Faults; p != nil {
		for c := range t.participants {
			if t.participants[c] && !p.PresentAt(c, t.epoch) {
				t.participants[c] = false
			}
		}
	}
}

// chooseParticipants draws the raw participant set: the externally forced
// set when SetParticipants chose one, else the seeded cohort sample in
// cohort mode, otherwise the α-fraction (all clients when ClientFraction
// is 0 or 1).
func (t *Trainer) chooseParticipants() {
	k := len(t.clients)
	if t.forced != nil {
		for i := range t.participants {
			t.participants[i] = false
		}
		n := 0
		for _, c := range t.forced {
			if c >= 0 && c < k {
				t.participants[c] = true
				n++
			}
		}
		t.mCohort.Set(float64(n))
		return
	}
	if t.sampler != nil {
		cohort := t.sampler.sample(t.round, t.active)
		for i := range t.participants {
			t.participants[i] = false
		}
		for _, c := range cohort {
			t.participants[c] = true
		}
		t.mCohort.Set(float64(len(cohort)))
		return
	}
	frac := t.cfg.ClientFraction
	if frac <= 0 || frac >= 1 {
		for i := range t.participants {
			t.participants[i] = true
		}
		return
	}
	n := int(frac * float64(k))
	if n < 1 {
		n = 1
	}
	perm := t.rng.Perm(k)
	for i := range t.participants {
		t.participants[i] = false
	}
	for _, i := range perm[:n] {
		t.participants[i] = true
	}
}

// engaged reports whether client c both participates this round and is
// currently active.
func (t *Trainer) engaged(c int) bool { return t.active[c] && t.participants[c] }

// distribute sends the global model to every selected client and resets
// all replica locations home (Model Distribution). In cohort mode this is
// also the hydration point: the round's cohort is materialized (recycling
// retired replicas) and everyone else is dehydrated, so replicas — and
// their effective-distribution bookkeeping — exist only while training.
func (t *Trainer) distribute() {
	t.selectParticipants()
	if t.lazy {
		// Dehydrate the outgoing cohort BEFORE hydrating the incoming one:
		// retired replicas land on the free list first, so rotation reuses
		// them instead of allocating, and the hydrated count never
		// transiently exceeds the cohort size.
		for m := range t.models {
			if !t.participants[m] {
				t.dehydrate(m)
			}
		}
	}
	maxT := 0.0
	for m := range t.models {
		if t.lazy && t.participants[m] {
			t.hydrate(m)
		}
		t.loc[m] = m
		if t.models[m] == nil {
			continue
		}
		t.models[m].CopyParamsFrom(t.global)
		// A fresh global copy restarts the replica's virtual dataset
		// (Eq. 12) from its home distribution.
		t.effDist[m] = t.clients[m].Data.LabelDistribution()
		t.effSeen[m] = float64(t.clients[m].Data.Len())
		if !t.engaged(m) {
			continue
		}
		t.acct.RecordTransfer(m, m, edgenet.C2S, t.modelSize)
		if tt := t.cost.TransferTime(m, m, edgenet.C2S, t.modelSize); tt > maxT {
			maxT = tt
		}
	}
	t.acct.AddWallTime(maxT)
}

// aggregate uploads every replica from its current host toward the server
// and forms the weighted average (Global Aggregation, Eq. 7). The sum
// itself goes through the streaming accumulator, bit-identical to the
// buffered fixed-tree reduction its tests compare against.
// With an aggregator fan-out configured, uploads travel host→gateway over
// the topology's C2C links and each gateway forwards its drained partial
// sums over the C2S WAN; the grouping changes traffic and wall-time
// accounting only, never the resulting bits.
func (t *Trainer) aggregate() {
	// Normalize over the replicas whose home clients participate this
	// round: with α < 1 (or a sampled cohort) only the selected clients'
	// updates form the new global model (Sec. II-A).
	n := 0.0
	for m := range t.models {
		if t.participants[m] {
			n += float64(t.clients[m].Data.Len())
		}
	}
	if n == 0 {
		t.round++
		return
	}
	// Sanitization and transfer accounting stay sequential (the privacy
	// mechanism consumes a shared RNG; the accountant is coordinator
	// state); the weighted parameter sum itself is a deterministic tree
	// reduction over the participant slots.
	idx := make([]int, 0, len(t.models))
	for m, model := range t.models {
		if !t.participants[m] || model == nil {
			continue
		}
		if t.active[t.loc[m]] && t.cfg.Privacy.Enabled() {
			t.cfg.Privacy.Sanitize(model)
		}
		idx = append(idx, m)
	}
	ms := make([]*nn.Sequential, len(idx))
	ws := make([]float64, len(idx))
	for i, m := range idx {
		ms[i] = t.models[m]
		ws[i] = float64(t.clients[m].Data.Len()) / n
	}
	groupSlots := t.chargeUploads(idx)
	aggVec, peak := streamingParamSum(ms, ws, groupSlots)
	t.mAggPeak.Set(float64(peak))
	if aggVec != nil {
		t.global.SetParamVector(aggVec)
		tensor.PutScratch(aggVec)
	}
	t.round++
}

// chargeUploads accounts the round's upload traffic and wall time and
// returns the slot grouping for the hierarchical reduction (nil for the
// flat path). Flat: every active host pays one C2S upload, wall time is
// the slowest. Hierarchical (cfg.Aggregators > 1): members pay a C2C hop
// to their LAN gateway, then each gateway ships its canonical partial-sum
// nodes — agg.NodeCount of its slot set, typically ~log(cohort) payloads
// instead of one per member — over the C2S WAN; wall time is the slowest
// member hop plus the slowest gateway hop.
func (t *Trainer) chargeUploads(idx []int) [][]int {
	g := t.cfg.Aggregators
	if g <= 1 || len(idx) == 0 {
		maxT := 0.0
		for _, m := range idx {
			host := t.loc[m]
			if !t.active[host] {
				continue
			}
			t.acct.RecordTransfer(host, host, edgenet.C2S, t.modelSize)
			if tt := t.cost.TransferTime(host, host, edgenet.C2S, t.modelSize); tt > maxT {
				maxT = tt
			}
		}
		t.acct.AddWallTime(maxT)
		return nil
	}
	if g > len(t.clients) {
		g = len(t.clients)
	}
	groupSlots := make([][]int, g)
	maxHop := 0.0
	for i, m := range idx {
		host := t.loc[m]
		gid := t.topo.AggregatorGroup(host, g)
		groupSlots[gid] = append(groupSlots[gid], i)
		if !t.active[host] {
			continue
		}
		gw := t.topo.GatewayClient(gid, g)
		kind := t.topo.Kind(host, gw)
		t.acct.RecordTransfer(host, gw, kind, t.modelSize)
		if tt := t.cost.TransferTime(host, gw, kind, t.modelSize); tt > maxHop {
			maxHop = tt
		}
	}
	maxUp := 0.0
	for gid, slots := range groupSlots {
		if len(slots) == 0 {
			continue
		}
		nodes := agg.NodeCount(len(idx), slots)
		t.mAggParts.Add(int64(nodes))
		gw := t.topo.GatewayClient(gid, g)
		bytes := int64(nodes) * t.modelSize
		t.acct.RecordTransfer(gw, gw, edgenet.C2S, bytes)
		if tt := t.cost.TransferTime(gw, gw, edgenet.C2S, bytes); tt > maxUp {
			maxUp = tt
		}
	}
	t.acct.AddWallTime(maxHop + maxUp)
	return groupSlots
}

// migrate executes one Model Migration event under the configured policy
// and returns the action taken (nil when the scheme has no event here).
func (t *Trainer) migrate(st *State) []int {
	switch t.cfg.Scheme {
	case FedSwap:
		t.swapAtServer()
		return nil
	case RandMigr, FedMigr:
		dest := t.migrator.Plan(st)
		if len(dest) != len(t.models) {
			panic(fmt.Sprintf("core: migrator returned %d destinations for %d models", len(dest), len(t.models)))
		}
		maxT := 0.0
		for m, d := range dest {
			src := t.loc[m]
			if d == src {
				continue
			}
			if d < 0 || d >= len(t.clients) || !t.engaged(d) || !t.engaged(src) {
				// Invalid or inactive endpoint: the model stays put. The
				// DRL agent learns this through zero benefit.
				dest[m] = src
				continue
			}
			kind := t.topo.Kind(src, d)
			if t.cfg.Privacy.Enabled() {
				t.cfg.Privacy.Sanitize(t.models[m])
			}
			t.acct.RecordTransfer(src, d, kind, t.modelSize)
			if tt := t.cost.TransferTime(src, d, kind, t.modelSize); tt > maxT {
				maxT = tt
			}
			t.loc[m] = d
			t.mMigrations.Inc()
			if t.tel != nil {
				t.tel.Event("migration",
					"epoch", t.epoch, "model", m, "from", src, "to", d,
					"kind", kind.String(), "bytes", t.modelSize)
			}
		}
		t.acct.AddWallTime(maxT)
		return dest
	default:
		// FedAvg / FedProx with AggEvery > 1 degenerate to periodic-
		// averaging local SGD: no event.
		return nil
	}
}

// swapAtServer pairs active clients randomly and exchanges their models
// through the parameter server: each swapped model costs an upload and a
// download over the C2S WAN.
func (t *Trainer) swapAtServer() {
	var idx []int
	for m := range t.models {
		if t.engaged(t.loc[m]) {
			idx = append(idx, m)
		}
	}
	t.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	maxT := 0.0
	for i := 0; i+1 < len(idx); i += 2 {
		a, b := idx[i], idx[i+1]
		la, lb := t.loc[a], t.loc[b]
		if t.cfg.Privacy.Enabled() {
			t.cfg.Privacy.Sanitize(t.models[a])
			t.cfg.Privacy.Sanitize(t.models[b])
		}
		// Up to the server and back down to the counterpart.
		for _, host := range []int{la, lb} {
			t.acct.RecordTransfer(host, host, edgenet.C2S, t.modelSize)
			t.acct.RecordTransfer(host, host, edgenet.C2S, t.modelSize)
			up := t.cost.TransferTime(host, host, edgenet.C2S, t.modelSize)
			if 2*up > maxT {
				maxT = 2 * up
			}
		}
		t.loc[a], t.loc[b] = lb, la
	}
	t.acct.AddWallTime(maxT)
}

// evaluate scores the sample-weighted average of all replicas on the test
// set (instrumentation only — no traffic is charged) and returns the
// accuracy together with the averaged model it scored; with no test set the
// accuracy is 0. In cohort mode the un-hydrated replicas hold exactly the
// global parameters (they were never trained this round), so the K-replica
// average collapses to the cohort's replicas plus one global term carrying
// the residual weight — O(cohort) work instead of O(K).
func (t *Trainer) evaluate() (float64, *nn.Sequential) {
	avg := t.factory()
	n := t.totalWeight()
	var ms []*nn.Sequential
	var ws []float64
	if t.lazy {
		resid := n
		for m, model := range t.models {
			if model == nil {
				continue
			}
			w := float64(t.clients[m].Data.Len())
			ms = append(ms, model)
			ws = append(ws, w/n)
			resid -= w
		}
		ms = append(ms, t.global)
		ws = append(ws, resid/n)
	} else {
		ms = make([]*nn.Sequential, len(t.models))
		ws = make([]float64, len(t.models))
		for m, model := range t.models {
			ms[m] = model
			ws[m] = float64(t.clients[m].Data.Len()) / n
		}
	}
	vec, _ := streamingParamSum(ms, ws, nil)
	avg.SetParamVector(vec)
	tensor.PutScratch(vec)
	return t.accuracy(avg), avg
}

// accuracy scores model on the test set (0 without one).
func (t *Trainer) accuracy(model *nn.Sequential) float64 {
	if t.test == nil || t.test.Len() == 0 {
		return 0
	}
	const evalBatch = 256
	correct, total := 0.0, 0
	for lo := 0; lo < t.test.Len(); lo += evalBatch {
		hi := lo + evalBatch
		if hi > t.test.Len() {
			hi = t.test.Len()
		}
		x, y := t.test.Batch(lo, hi)
		out := model.Forward(x, false)
		correct += nn.Accuracy(out, y) * float64(hi-lo)
		total += hi - lo
	}
	return correct / float64(total)
}

// engagedMask combines churn state with the round's α-selection: migration
// policies may only route models among clients that are both active and
// participating.
func engagedMask(t *Trainer) []bool {
	out := make([]bool, len(t.active))
	for i := range out {
		out[i] = t.engaged(i)
	}
	return out
}
