package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"fedmigr/internal/core"
	"fedmigr/internal/data"
	"fedmigr/internal/drl"
	"fedmigr/internal/edgenet"
	"fedmigr/internal/fednet"
	"fedmigr/internal/fleet"
	"fedmigr/internal/nn"
	"fedmigr/internal/sched"
	"fedmigr/internal/telemetry"
	"fedmigr/internal/tensor"
)

// workers is the parallel worker count of every workload: the core count
// of the host the sizes below were chosen on. It is fixed rather than
// taken from the host so that runs on different hosts do the same work.
const workers = 2

// passConfig is one pass's input: the workload seed, the worker count,
// whether to shrink the workload for a smoke test, and, when tracing, the
// recorder the wrappers report to.
type passConfig struct {
	seed    int64
	workers int
	quick   bool
	rec     *recorder
}

// outputs are a pass's results that must be identical for every pass of
// one seed, traced or not: they prove the run computed the same thing.
type outputs struct {
	FinalAcc float64 `json:"final_acc"`
	C2SBytes int64   `json:"sim_c2s_bytes"`
	SimWall  float64 `json:"sim_wall_s"`
	Hash     string  `json:"model_hash"`
}

// pass is one closed-loop training session: set up, run a fixed number of
// rounds, each starting when the previous one completes, and evaluate.
type pass struct {
	setup   time.Duration
	rounds  []interval // the timed rounds, in order
	samples int64      // training samples processed in the timed rounds
	total   int        // rounds the session ran (timed or not)
	mem     memDelta   // allocation and GC over the session's rounds
	heap    uint64     // live heap after a forced GC, session still alive
	out     outputs
	traffic int64 // bytes moved: edgenet's bill, or the sockets' on net-wide

	attempted, failed int
	failures          []string

	// Program counters read at the end of the pass: the telemetry
	// snapshot (traced passes, and net-wide's always-on fednet counters)
	// and the edgenet accountants' totals (simulator workloads).
	snap      telemetry.Snapshot
	acct      edgenet.Snapshot // summed over the pass's trainers
	c2cB      int64            // simulated client-to-client bytes
	jobRounds int              // fleet job rounds served in the timed rounds
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	p.failures = append(p.failures, fmt.Sprintf(format, args...))
}

func (p *pass) roundMS() []float64 {
	out := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		out[i] = float64(r.dur) / 1e6
	}
	return out
}

func (p *pass) window() (float64, int64, int64) {
	if len(p.rounds) == 0 {
		return 0, 0, 0
	}
	var sum int64
	for _, r := range p.rounds {
		sum += r.dur
	}
	return float64(sum) / 1e9, p.rounds[0].start, p.rounds[len(p.rounds)-1].end()
}

// workload is one benchmark input: its name (BENCHMARK.json says why it
// is in the benchmark) and the pass it runs.
type workload struct {
	name string
	run  func(passConfig) (*pass, error)
}

var workloads = []workload{
	{"sim-cnn", simCNN},
	{"fleet-1k", fleet1k},
	{"net-wide", netWide},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// memDelta is the allocation and GC activity between two points.
type memDelta struct {
	mallocs, bytes, gcs, pauseNS uint64
	gcCPU, totalCPU              float64
}

type memPoint struct {
	ms       runtime.MemStats
	gcCPU    float64
	totalCPU float64
}

func readMem() memPoint {
	var p memPoint
	runtime.ReadMemStats(&p.ms)
	p.gcCPU, p.totalCPU = cpuSeconds()
	return p
}

func (a memPoint) to(b memPoint) memDelta {
	return memDelta{
		mallocs:  b.ms.Mallocs - a.ms.Mallocs,
		bytes:    b.ms.TotalAlloc - a.ms.TotalAlloc,
		gcs:      uint64(b.ms.NumGC - a.ms.NumGC),
		pauseNS:  b.ms.PauseTotalNs - a.ms.PauseTotalNs,
		gcCPU:    b.gcCPU - a.gcCPU,
		totalCPU: b.totalCPU - a.totalCPU,
	}
}

// liveHeap forces a collection and returns the bytes still in use; the
// caller keeps the session reachable across the call.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// hashModels fingerprints the exact bits of the models' parameters.
func hashModels(ms ...*nn.Sequential) string {
	h := sha256.New()
	var b [8]byte
	for _, m := range ms {
		ps, _ := m.Params()
		for _, p := range ps {
			for _, v := range p.Data() {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func totalLen(parts []*data.Dataset) int64 {
	var n int64
	for _, p := range parts {
		n += int64(p.Len())
	}
	return n
}

func specOf(d *data.Dataset) nn.ModelSpec {
	c, h, w := d.Spec()
	return nn.ModelSpec{Channels: c, Height: h, Width: w, Classes: d.Classes}
}

// defaultCost is the facade's cost model: the default link model with
// deterministic 10% jitter.
func defaultCost(seed int64) *edgenet.CostModel {
	c := edgenet.DefaultCostModel()
	c.Jitter = 0.1
	c.Seed(seed + 7)
	return c
}

// simCNN assembles exactly what fedmigr.New builds for
// Options{Scheme: FedMigr, Migrator: DRL, Dataset: C10, Partition: Shards,
// Model: C10CNN, Clients: 20, LANs: 4, PerClass: 40, AggEvery: 5,
// EvalEvery: 5, Workers: 2} (the parity test holds the two together), so
// that the layers and the migrator can be wrapped, and runs it under
// Trainer.Run. A round is the interval between consecutive round-hook
// calls, which fire once per AggEvery epochs.
func simCNN(c passConfig) (*pass, error) {
	k, perClass, rounds := 20, 40, 10
	if c.quick {
		k, perClass, rounds = 6, 6, 2
	}
	const aggEvery = 5
	p := &pass{}
	t0 := time.Now()
	train, test := data.Synthetic(data.SyntheticConfig{
		Classes: 10, Channels: 3, Height: 8, Width: 8,
		PerClass: perClass, TestPer: perClass, Seed: c.seed,
	})
	parts := data.PartitionShards(train, k, 1, tensor.NewRNG(c.seed+3))
	clients := make([]*core.Client, k)
	for i := range clients {
		clients[i] = &core.Client{ID: i, Data: parts[i]}
	}
	spec := specOf(train)
	factory := core.ModelFactory(func() *nn.Sequential { return nn.NewC10CNN(tensor.NewRNG(c.seed+11), spec) })
	agent := drl.NewMigrator(drl.MigratorConfig{K: k, Seed: c.seed + 31})
	var mig core.Migrator = agent
	if c.rec != nil {
		factory = wrapFactory(factory, c.rec)
		mig = &timedMigrator{Migrator: agent, rec: c.rec}
	}
	tr, err := core.NewTrainer(core.Config{
		Scheme: core.FedMigr, AggEvery: aggEvery, BatchSize: 32, LR: 0.05,
		MaxEpochs: rounds * aggEvery, EvalEvery: aggEvery, Workers: c.workers, Seed: c.seed,
	}, clients, edgenet.EvenTopology(k, 4), defaultCost(c.seed), test, factory, mig)
	if err != nil {
		return nil, err
	}
	if c.rec != nil {
		tr.SetTelemetry(c.rec.tel)
		agent.SetTelemetry(c.rec.tel)
	}
	var marks []int64
	tr.SetRoundHook(func(core.RoundMetrics, *nn.Sequential) { marks = append(marks, time.Now().UnixNano()) })

	m0 := readMem()
	start := time.Now()
	p.setup = start.Sub(t0)
	res := tr.Run()
	p.mem = m0.to(readMem())
	p.heap = liveHeap()
	runtime.KeepAlive(tr)

	prev := start.UnixNano()
	for _, m := range marks {
		p.rounds = append(p.rounds, interval{start: prev, dur: m - prev})
		prev = m
	}
	p.total = len(marks)
	p.attempted = rounds
	if len(marks) != rounds {
		p.fail("sim-cnn: %d rounds recorded, want %d", len(marks), rounds)
	}
	p.samples = int64(len(marks)) * aggEvery * totalLen(parts)
	snap := tr.Accountant().Snapshot()
	p.out = outputs{
		FinalAcc: res.FinalAcc, C2SBytes: snap.C2SBytes, SimWall: snap.WallSeconds,
		Hash: hashModels(tr.GlobalModel()),
	}
	p.traffic = snap.TotalBytes
	p.acct = snap
	p.c2cB = tr.Accountant().Traffic(edgenet.IntraLAN) + tr.Accountant().Traffic(edgenet.CrossLAN)
	if c.rec != nil {
		p.snap = c.rec.tel.Snapshot()
	}
	return p, nil
}

// fleet1k assembles what fedmigr.NewFleet builds for 1000 clients over 8
// LANs and 8 jobs of Demand 24 with Options{Scheme: FedMigr, Migrator:
// GreedyEMD, Model: MLP, Partition: Replicate, ReplicaShards: 8,
// PerClass: 8, AggEvery: 2, BatchSize: 8}, and times each
// Manager.RunRound. It sets neither FleetOptions.HungarianMax nor
// Options.BufferedAgg: both are slated for deletion.
func fleet1k(c passConfig) (*pass, error) {
	k, lans, jobs, demand, rounds := 1000, 8, 8, 24, 3
	if c.quick {
		k, lans, jobs, demand, rounds = 60, 4, 2, 6, 2
	}
	const aggEvery = 2
	p := &pass{}
	t0 := time.Now()
	pool := sched.New(c.workers)
	defer pool.Close()
	mgr, err := fleet.New(fleet.Config{Seed: c.seed}, edgenet.EvenTopology(k, lans), defaultCost(c.seed), nil, pool)
	if err != nil {
		return nil, err
	}
	var tel *telemetry.Telemetry
	if c.rec != nil {
		tel = c.rec.tel
		mgr.SetTelemetry(tel)
	}
	var trainers []*core.Trainer
	defer func() {
		for _, tr := range trainers {
			tr.Close()
		}
	}()
	var perRound int64
	for i := 0; i < jobs; i++ {
		// The facade's per-job seed derivation.
		js := int64(uint64(c.seed) + uint64(i+1)*0x9e3779b97f4a7c15)
		train, test := data.Synthetic(data.SyntheticConfig{
			Classes: 10, Channels: 3, Height: 8, Width: 8, PerClass: 8, TestPer: 8, Seed: js,
		})
		parts := data.PartitionReplicated(train, k, 8, tensor.NewRNG(js+3))
		clients := make([]*core.Client, k)
		samples := make([]int, k)
		for ci := range clients {
			clients[ci] = &core.Client{ID: ci, Data: parts[ci]}
			samples[ci] = parts[ci].Len()
		}
		in := 3 * 8 * 8
		factory := core.ModelFactory(func() *nn.Sequential {
			g := tensor.NewRNG(js + 11)
			return nn.NewSequential(nn.NewFlatten(), nn.NewDense(g, in, 48), nn.NewReLU(), nn.NewDense(g, 48, 10))
		})
		var mig core.Migrator = &core.GreedyEMDMigrator{CostWeight: 0.1}
		if c.rec != nil {
			factory = wrapFactory(factory, c.rec)
			mig = &timedMigrator{Migrator: mig, rec: c.rec}
		}
		tr, err := core.NewTrainer(core.Config{
			Scheme: core.FedMigr, AggEvery: aggEvery, BatchSize: 8, LR: 0.05, MaxEpochs: 50,
			Workers: c.workers, LazyHydration: true, Pool: pool, Seed: js,
		}, clients, edgenet.EvenTopology(k, lans), defaultCost(js), test, factory, mig)
		if err != nil {
			return nil, err
		}
		trainers = append(trainers, tr)
		tr.SetTelemetry(tel)
		if _, err := mgr.Submit(fleet.JobConfig{
			Name: fmt.Sprintf("job%d", i), Demand: demand, Rounds: rounds, Samples: samples,
		}, tr); err != nil {
			return nil, err
		}
		// Replicated shards are equal, so a served job trains Demand
		// clients' shards AggEvery times; the traced pass checks this
		// against the rows its wrapped layers saw.
		perRound += int64(demand) * int64(samples[0]) * aggEvery
	}

	m0 := readMem()
	p.setup = time.Since(t0)
	for r := 0; r < rounds; r++ {
		s := time.Now()
		served := mgr.RunRound()
		p.rounds = append(p.rounds, interval{start: s.UnixNano(), dur: time.Since(s).Nanoseconds()})
		p.attempted++
		p.jobRounds += served
		if served != jobs {
			p.fail("fleet-1k: round %d served %d of %d jobs", r, served, jobs)
		}
	}
	p.mem = m0.to(readMem())
	p.heap = liveHeap()
	runtime.KeepAlive(mgr)
	p.total = rounds
	p.samples = int64(rounds) * perRound

	var accSum float64
	models := make([]*nn.Sequential, 0, jobs)
	for _, j := range mgr.Jobs() {
		if len(j.History) == 0 {
			p.fail("fleet-1k: job %s has no rounds", j.Name())
			continue
		}
		accSum += j.History[len(j.History)-1].TestAcc
		s := j.Trainer.Accountant().Snapshot()
		p.acct.C2SBytes += s.C2SBytes
		p.acct.WallSeconds += s.WallSeconds
		p.acct.TotalBytes += s.TotalBytes
		p.acct.NumTransfers += s.NumTransfers
		p.c2cB += j.Trainer.Accountant().Traffic(edgenet.IntraLAN) + j.Trainer.Accountant().Traffic(edgenet.CrossLAN)
		models = append(models, j.Trainer.GlobalModel())
	}
	p.out = outputs{
		FinalAcc: accSum / float64(jobs), C2SBytes: p.acct.C2SBytes, SimWall: p.acct.WallSeconds,
		Hash: hashModels(models...),
	}
	p.traffic = p.acct.TotalBytes
	if c.rec != nil {
		p.snap = tel.Snapshot()
	}
	return p, nil
}

// netWide runs a fednet server and two clients over loopback TCP in this
// process: a 192→512→10 MLP (about 0.8 MB per parameter frame) trained on
// PerClass 2, so each client trains about one batch per event, with the
// GreedyEMD policy and AggEvery 2, so every round has one client-to-client
// migration event and one aggregation. A round is the interval between
// consecutive Plan calls on the server, which happen once per round.
func netWide(c passConfig) (*pass, error) {
	rounds := 40
	if c.quick {
		rounds = 4
	}
	const k, aggEvery = 2, 2
	p := &pass{}
	t0 := time.Now()
	pool := sched.New(c.workers)
	defer pool.Close()
	prevPool := tensor.InstallPool(pool)
	defer tensor.InstallPool(prevPool)

	train, test := data.Synthetic(data.SyntheticConfig{
		Classes: 10, Channels: 3, Height: 8, Width: 8, PerClass: 2, TestPer: 20, Seed: c.seed,
	})
	parts := data.PartitionShards(train, k, 5, tensor.NewRNG(c.seed+3))
	base := netFactory(c.seed, c.quick)
	// The session always runs with fednet's counters on: wire bytes and
	// fault counters are end-to-end outputs here. Tracing adds the span
	// sink and the layer wrappers.
	rec, tel, factory := c.rec, telemetry.New(), base
	if rec != nil {
		tel = rec.tel
		factory = wrapFactory(base, rec)
		pool.SetTelemetry(tel)
	} else {
		rec = &recorder{}
	}
	srv, err := fednet.NewServer(fednet.ServerConfig{
		K: k, Rounds: rounds, AggEvery: aggEvery, BatchSize: 16, LR: 0.05,
		IOTimeout: 20 * time.Second, Telemetry: tel,
	}, factory, &timedMigrator{Migrator: &core.GreedyEMDMigrator{CostWeight: 0.1}, rec: rec})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var wg sync.WaitGroup
	srvErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		srvErr <- srv.Run()
	}()
	clients := make([]*fednet.Client, k)
	errs := make([]error, k)
	// Every exit path closes the nodes before waiting for them, so a
	// failed registration cannot leave the server parked in accept.
	defer func() {
		for _, cl := range clients {
			if cl != nil {
				cl.Close()
			}
		}
		srv.Close()
		wg.Wait()
	}()
	for i := 0; i < k; i++ {
		cl, err := fednet.NewClient(fednet.ClientConfig{
			ServerAddr: addr, IOTimeout: 20 * time.Second, Telemetry: tel,
		}, parts[i], factory)
		if err != nil {
			return nil, err
		}
		clients[i] = cl
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = clients[i].Run()
		}(i)
		// Register one client at a time so client i always gets id i and
		// the session is the same on every run.
		deadline := time.Now().Add(20 * time.Second)
		for srv.Alive() < i+1 {
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("net-wide: client %d did not register", i)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	m0 := readMem()
	p.setup = time.Since(t0)
	// Clients return once they read the server's shutdown frame; after a
	// server error they are closed instead of left to time out.
	runErr := <-srvErr
	if runErr != nil {
		for _, cl := range clients {
			cl.Close()
		}
	}
	wg.Wait()
	p.mem = m0.to(readMem())
	p.heap = liveHeap()
	runtime.KeepAlive(srv)

	p.attempted = rounds
	if runErr != nil {
		p.fail("net-wide: server: %v", runErr)
	}
	for i, err := range errs {
		if err != nil {
			p.fail("net-wide: client %d: %v", i, err)
		}
	}
	if n := len(srv.History); n != rounds {
		p.fail("net-wide: %d of %d rounds completed", n, rounds)
	}
	st := srv.Stats()
	if st.DeadClients+st.Reroutes+st.LostModels+st.PartialRounds != 0 {
		p.fail("net-wide: fault counters %+v", st)
	}
	snap := tel.Snapshot()
	if n := faultCount(snap); n != 0 {
		p.fail("net-wide: %d fednet timeouts or retries", n)
	}
	migrations := 0
	for _, cl := range clients {
		migrations += cl.Migrations
	}
	if migrations == 0 {
		p.fail("net-wide: no model crossed a client-to-client link")
	}
	starts := rec.planStarts()
	if len(starts) != rounds {
		p.fail("net-wide: %d Plan calls for %d rounds", len(starts), rounds)
	}
	for i := 1; i < len(starts); i++ {
		p.rounds = append(p.rounds, interval{start: starts[i-1], dur: starts[i] - starts[i-1]})
	}
	p.total = rounds
	p.samples = int64(len(p.rounds)) * aggEvery * totalLen(parts)

	global := srv.GlobalModel()
	eval := base()
	eval.CopyParamsFrom(global)
	x, y := test.Batch(0, test.Len())
	p.out = outputs{
		FinalAcc: nn.Accuracy(eval.Forward(x, false), y),
		Hash:     hashModels(global),
	}
	// Frames carry peer addresses, whose ephemeral ports vary in length
	// between sessions, so wire bytes are measured, not checked.
	p.traffic = wireBytes(snap)
	p.snap = snap
	return p, nil
}

// netFactory builds net-wide's model: a 192→512→10 MLP (32 hidden units
// at quick scale).
func netFactory(seed int64, quick bool) core.ModelFactory {
	hidden := 512
	if quick {
		hidden = 32
	}
	return func() *nn.Sequential {
		g := tensor.NewRNG(seed + 11)
		return nn.NewSequential(nn.NewFlatten(), nn.NewDense(g, 3*8*8, hidden), nn.NewReLU(), nn.NewDense(g, hidden, 10))
	}
}

// wireBytes is every byte the server and the clients wrote and read.
func wireBytes(s telemetry.Snapshot) int64 {
	return int64(counterSum(s, "fednet_bytes_total"))
}

// faultCount sums fednet's timeout, retry, dead-client and partial-round
// counters over both roles.
func faultCount(s telemetry.Snapshot) int64 {
	return int64(counterSum(s, "fednet_timeouts_total") + counterSum(s, "fednet_retries_total") +
		counterSum(s, "fednet_dead_clients_total") + counterSum(s, "fednet_partial_rounds_total"))
}
