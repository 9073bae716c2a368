// Command fedmigr-sim runs a single federated-training simulation with
// full control over the scheme, workload, partition and budgets, printing
// the accuracy/loss trajectory and the final resource accounting.
//
// Examples:
//
//	fedmigr-sim -scheme fedmigr -migrator greedy -epochs 60 -agg 5
//	fedmigr-sim -scheme fedavg -dataset c100 -clients 20 -lans 5
//	fedmigr-sim -scheme randmigr -partition dominance -level 0.6 -target 0.8
//
// Observability: -trace streams JSONL telemetry (round events, migration
// events, spans, a final metrics snapshot) to a file, and -debug-addr
// serves /metrics, /trace and /debug/pprof/ over HTTP while the run is in
// progress. See README.md "Observability".
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"

	fedmigr "fedmigr"
	"fedmigr/internal/checkpoint"
	"fedmigr/internal/core"
	"fedmigr/internal/faults"
	"fedmigr/internal/nn"
	"fedmigr/internal/telemetry"
)

func main() {
	var (
		scheme    = flag.String("scheme", "fedmigr", "fedavg|fedprox|fedswap|randmigr|fedmigr")
		dataset   = flag.String("dataset", "c10", "c10|c100|inet100")
		partition = flag.String("partition", "shards", "iid|shards|dominance|lan|dirichlet|replicate")
		model     = flag.String("model", "mlp", "c10cnn|c100cnn|reslite|mlp")
		migrator  = flag.String("migrator", "greedy", "drl|random|greedy|optimal|cross|within|stay")
		clients   = flag.Int("clients", 10, "number of clients K")
		lans      = flag.Int("lans", 3, "number of LANs")
		perClass  = flag.Int("perclass", 20, "training samples per class")
		noise     = flag.Float64("noise", 1.6, "synthetic within-class noise")
		level     = flag.Float64("level", 0.6, "dominance non-IID level p")
		epochs    = flag.Int("epochs", 40, "max training epochs")
		agg       = flag.Int("agg", 5, "events per global iteration (aggregation period)")
		tau       = flag.Int("tau", 1, "local epochs per event")
		lr        = flag.Float64("lr", 0.05, "learning rate")
		batch     = flag.Int("batch", 32, "mini-batch size")
		target    = flag.Float64("target", 0, "target accuracy (0 = run all epochs)")
		bwBudget  = flag.Int64("bw-budget", 0, "bandwidth budget in bytes (0 = unlimited)")
		timeBdg   = flag.Float64("time-budget", 0, "simulated time budget in seconds")
		epsilon   = flag.Float64("epsilon", 0, "LDP privacy budget (0 = off)")
		cohort    = flag.Int("cohort", 0, "per-round participant cohort (0 = every client trains every round; >0 samples that many and keeps only their models hydrated — O(cohort) memory)")
		minCohort = flag.Int("min-cohort", 0, "cohort quorum under fault churn (default 1)")
		fanout    = flag.Int("aggregators", 0, "simulated edge-aggregator fan-out: uploads stream client→gateway→cloud as partial sums (0/1 = flat; bit-identical model either way)")
		rshards   = flag.Int("replica-shards", 0, "physical data shards for -partition replicate (default 64)")
		memstats  = flag.Bool("memstats", false, "print a parseable post-run memory line (heap after GC, OS footprint, hydrated-model high-water mark)")
		workers   = flag.Int("workers", 0, "parallel workers for client training and tensor kernels (0 = NumCPU, 1 = serial; results are identical for any value, so -resume checkpoints are worker-independent)")
		seed      = flag.Int64("seed", 1, "deterministic seed")
		quiet     = flag.Bool("quiet", false, "print only the final summary")
		csvPath   = flag.String("csv", "", "write the evaluation history to this CSV file")
		tracePath = flag.String("trace", "", "write JSONL telemetry records to this file")
		debugAddr = flag.String("debug-addr", "", "serve /metrics, /trace and /debug/pprof/ on this address")

		crashSpec    = flag.String("crash", "", "fault injection: permanent crashes as client@epoch[,client@epoch...]")
		outageSpec   = flag.String("outage", "", "fault injection: transient outages as client:from-to[,...] (epochs, to exclusive)")
		straggleSpec = flag.String("straggle", "", "fault injection: stragglers as clientxfactor[,...] e.g. 2x3.5")

		joinSpec     = flag.String("join", "", "churn: late arrivals as client@epoch[,...] — the client does not exist before that epoch and enters the candidate set from it")
		leaveSpec    = flag.String("leave", "", "churn: graceful departures as client@epoch[,...] — the in-flight training state migrates to a survivor instead of being lost")
		crashMidSpec = flag.String("crash-mid", "", "churn: mid-epoch crashes as client@epoch:batch[,...] — the interrupted TrainState is rescued and resumed bit-identically on another node")
		churnSpec    = flag.String("churn", "", "churn: seeded arrival process as first:count:from-to — count clients with ids first..first+count-1 join at plan-seeded epochs in [from,to)")

		ckptEvery  = flag.Int("checkpoint-every", 0, "save a resumable checkpoint every N evaluations (0 = off; with -jobs, every N fleet rounds)")
		ckptDir    = flag.String("checkpoint-dir", "checkpoints/sim", "directory for -checkpoint-every / -resume state")
		resume     = flag.Bool("resume", false, "resume from the checkpoint in -checkpoint-dir")
		allowDrift = flag.Bool("allow-membership-drift", false, "resume even when the checkpoint's membership manifest disagrees with the membership the flags describe (warns instead of refusing)")

		clusters       = flag.Int("clusters", 0, "clustered federation: group clients by label-distribution EMD into this many cluster models training concurrently (0 = single global model)")
		reclusterEvery = flag.Int("recluster-every", 0, "with -clusters: re-evaluate the client→cluster assignment every N fleet rounds, migrating drifted clients between cluster models (0 = initial grouping is final)")
		clusterRounds  = flag.Int("cluster-rounds", 20, "with -clusters: each cluster model's round budget")
		analytic       = flag.Bool("analytic", false, "one-shot analytic baseline: frozen seeded random-feature extractor + closed-form ridge head, solved in exactly ONE aggregation round")
		features       = flag.Int("features", 64, "with -analytic: random-feature width of the frozen extractor")
		ridge          = flag.Float64("ridge", 0, "with -analytic: ridge regularizer lambda (default 1e-3)")

		jobsSpec    = flag.String("jobs", "", "multi-tenant mode: run N jobs over one shared client fleet; spec is name=a,demand=4,rounds=10[,weight=,scheme=,dataset=,model=,migrator=,agg=,tau=,lr=,batch=,perclass=,noise=,seed=];name=b,... — unset per-job keys inherit the top-level flags")
		maxHydrated = flag.Int("max-hydrated", 0, "with -jobs: admission budget on the summed demand of running jobs (0 = unlimited)")
		maxRounds   = flag.Int("max-rounds", 0, "with -jobs: hard bound on fleet rounds (0 = run until every job is done)")
	)
	flag.Parse()

	sk, err := parseScheme(*scheme)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var tel *telemetry.Telemetry
	if *tracePath != "" || *debugAddr != "" {
		tel = telemetry.New()
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			tel.SetSink(f)
		}
		if *debugAddr != "" {
			go func() {
				if err := http.ListenAndServe(*debugAddr, telemetry.Handler(tel)); err != nil {
					fmt.Fprintln(os.Stderr, "debug server:", err)
				}
			}()
			fmt.Printf("debug surface on http://%s/ (metrics, trace, pprof)\n", *debugAddr)
		}
	}
	plan, err := buildFaultPlan(*seed, *crashSpec, *outageSpec, *straggleSpec,
		*joinSpec, *leaveSpec, *crashMidSpec, *churnSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// The membership the flags describe: checked against the checkpoint's
	// manifest on -resume, saved alongside every checkpoint.
	mem := checkpoint.NewMembership(*clients, plan)
	o := fedmigr.Options{
		Scheme:          sk,
		Dataset:         fedmigr.Dataset(*dataset),
		Partition:       fedmigr.Partition(*partition),
		Model:           fedmigr.Model(*model),
		Migrator:        fedmigr.MigratorKind(*migrator),
		Clients:         *clients,
		LANs:            *lans,
		PerClass:        *perClass,
		Noise:           *noise,
		DominanceLevel:  *level,
		Epochs:          *epochs,
		AggEvery:        *agg,
		Tau:             *tau,
		LR:              *lr,
		BatchSize:       *batch,
		TargetAccuracy:  *target,
		BandwidthBudget: *bwBudget,
		TimeBudget:      *timeBdg,
		PrivacyEpsilon:  *epsilon,
		CohortSize:      *cohort,
		MinCohort:       *minCohort,
		Aggregators:     *fanout,
		ReplicaShards:   *rshards,
		Workers:         *workers,
		Seed:            *seed,
		Telemetry:       tel,
		Faults:          plan,
	}

	// One-shot analytic mode: no iterative phase at all — a single exact
	// aggregation round of per-client Gram/moment statistics.
	if *analytic {
		if err := runAnalytic(fedmigr.AnalyticOptions{
			Features: *features, Ridge: *ridge, Options: o,
		}, *quiet); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	// Clustered mode: -clusters switches fedmigr-sim from one global model
	// to k cluster models over one shared partition, grouped by EMD.
	if *clusters > 0 {
		if err := runClustered(fedmigr.ClusteredOptions{
			Clusters: *clusters, ReclusterEvery: *reclusterEvery,
			Rounds: *clusterRounds, MaxHydrated: *maxHydrated, Options: o,
		}, *maxRounds, *ckptEvery, *ckptDir, *resume, *quiet); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	// Multi-tenant mode: -jobs switches fedmigr-sim from one trainer to a
	// fleet of them sharing the client set; per-job keys in the spec
	// override the top-level flags captured in o.
	if *jobsSpec != "" {
		base := o
		base.Telemetry = nil // per-job trainers stay uninstrumented; the manager gets tel
		base.Faults = nil    // the fleet manager owns the fault plan
		jobs, err := parseJobs(*jobsSpec, base)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fo := fedmigr.FleetOptions{
			Clients: *clients, LANs: *lans, MaxHydrated: *maxHydrated,
			Workers: *workers, Faults: plan, Telemetry: tel, Seed: *seed,
			Jobs: jobs,
		}
		if err := runFleet(fo, *maxRounds, *ckptEvery, *ckptDir, *resume, *quiet, mem, *allowDrift); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *tracePath != "" {
			fmt.Printf("telemetry trace written to %s\n", *tracePath)
		}
		return
	}

	sim, err := fedmigr.New(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Resume: verify the checkpoint was saved under the membership the flags
	// describe (a drifted cohort would silently become a different
	// experiment), then restore the global model, the prior history and the
	// epoch/round counters, so the run continues with the uninterrupted
	// run's numbering.
	var prior []core.RoundMetrics
	if *resume {
		warn, err := checkpoint.CheckMembership(*ckptDir, mem, *allowDrift)
		if err != nil {
			fmt.Fprintf(os.Stderr, "resume: %v\n", err)
			os.Exit(1)
		}
		if warn != "" {
			fmt.Fprintln(os.Stderr, "resume:", warn)
		}
		if prior, err = sim.RestoreState(*ckptDir); err != nil {
			fmt.Fprintf(os.Stderr, "resume: %v\n", err)
			os.Exit(1)
		}
		done := prior[len(prior)-1].Epoch
		if done >= o.Epochs {
			fmt.Printf("checkpoint already covers %d epochs (asked for %d); nothing to do\n", done, o.Epochs)
			return
		}
		fmt.Printf("resuming from %s at epoch %d (%d epochs remain)\n", *ckptDir, done, o.Epochs-done)
	}
	// Checkpoints hold the model the latest record scored, so a resume
	// continues from the model the uninterrupted run aggregates there.
	var scored *nn.Sequential
	save := func(history []core.RoundMetrics) error {
		if err := checkpoint.SaveRunState(*ckptDir, scored, history); err != nil {
			return err
		}
		return checkpoint.SaveMembership(*ckptDir, mem)
	}
	if *ckptEvery > 0 {
		sim.Trainer.SetRoundHook(func(_ core.RoundMetrics, g *nn.Sequential) {
			scored = g
			if len(sim.Trainer.History())%*ckptEvery != 0 {
				return
			}
			if err := save(append(append([]core.RoundMetrics{}, prior...), sim.Trainer.History()...)); err != nil {
				fmt.Fprintf(os.Stderr, "checkpoint: %v\n", err)
			}
		})
	}
	res := sim.Run()
	combined := append(append([]core.RoundMetrics{}, prior...), res.History...)
	if *ckptEvery > 0 {
		if err := save(combined); err != nil {
			fmt.Fprintf(os.Stderr, "checkpoint: %v\n", err)
		} else {
			fmt.Printf("checkpoint saved to %s\n", *ckptDir)
		}
	}
	if !*quiet {
		fmt.Printf("%-7s %-7s %-9s %-9s %-11s %-11s\n", "epoch", "round", "loss", "acc", "traffic", "wall")
		for _, m := range combined {
			fmt.Printf("%-7d %-7d %-9.4f %-9.4f %-11s %-11s\n",
				m.Epoch, m.Round, m.TrainLoss, m.TestAcc,
				fmt.Sprintf("%.2fMB", float64(m.Snapshot.TotalBytes)/1e6),
				fmt.Sprintf("%.1fs", m.Snapshot.WallSeconds))
		}
	}
	fmt.Printf("\nscheme=%v epochs=%d final_acc=%.4f best_acc=%.4f final_loss=%.4f\n",
		sk, res.Epochs, res.FinalAcc, res.BestAcc(), res.FinalLoss)
	fmt.Printf("traffic: total=%.2fMB c2s=%.2fMB global=%.2fMB local=%.2fMB\n",
		float64(res.Snapshot.TotalBytes)/1e6, float64(res.Snapshot.C2SBytes)/1e6,
		float64(res.Snapshot.GlobalBytes)/1e6, float64(res.Snapshot.LocalBytes)/1e6)
	fmt.Printf("time: wall=%.1fs device-compute=%.1fs transfers=%d\n",
		res.Snapshot.WallSeconds, res.Snapshot.ComputeSecs, res.Snapshot.NumTransfers)
	if plan.Joins() > 0 || len(plan.LeaveSchedule()) > 0 || sim.Trainer.StateMigrations() > 0 {
		fmt.Printf("churn: joins=%d leaves=%d state_migrations=%d\n",
			plan.Joins(), len(plan.LeaveSchedule()), sim.Trainer.StateMigrations())
	}
	if res.ReachedTarget {
		fmt.Println("target accuracy reached")
	}
	if res.BudgetExhausted {
		fmt.Println("stopped on budget exhaustion")
	}
	if *csvPath != "" {
		if err := checkpoint.SaveMetricsCSV(*csvPath, combined); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("metrics written to %s\n", *csvPath)
	}
	if *tracePath != "" {
		fmt.Printf("telemetry trace written to %s\n", *tracePath)
	}
	if *memstats {
		// One line, machine-parseable: scripts/bench.sh and check.sh grep
		// this to assert the streaming path's memory stays flat in K.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		fmt.Printf("memstats: heap_alloc_mb=%.1f sys_mb=%.1f max_hydrated=%d\n",
			float64(ms.HeapAlloc)/1e6, float64(ms.Sys)/1e6, sim.Trainer.MaxHydrated())
	}
}

// buildFaultPlan assembles a faults.Plan from the -crash / -outage /
// -straggle fault grammars plus the -join / -leave / -crash-mid / -churn
// membership grammars; all empty returns a nil plan (faults off).
func buildFaultPlan(seed int64, crash, outage, straggle, join, leave, crashMid, churn string) (*faults.Plan, error) {
	if crash == "" && outage == "" && straggle == "" &&
		join == "" && leave == "" && crashMid == "" && churn == "" {
		return nil, nil
	}
	p := faults.NewPlan(seed)
	for _, spec := range splitSpecs(crash) {
		c, e, err := parsePair(spec, "@")
		if err != nil {
			return nil, fmt.Errorf("-crash %q: want client@epoch: %v", spec, err)
		}
		p.CrashAt(c, e)
	}
	for _, spec := range splitSpecs(outage) {
		i := strings.IndexByte(spec, ':')
		if i < 0 {
			return nil, fmt.Errorf("-outage %q: want client:from-to", spec)
		}
		c, err := strconv.Atoi(spec[:i])
		if err != nil {
			return nil, fmt.Errorf("-outage %q: bad client: %v", spec, err)
		}
		from, to, err := parsePair(spec[i+1:], "-")
		if err != nil {
			return nil, fmt.Errorf("-outage %q: want client:from-to: %v", spec, err)
		}
		p.Outage(c, from, to)
	}
	for _, spec := range splitSpecs(straggle) {
		i := strings.IndexByte(spec, 'x')
		if i < 0 {
			return nil, fmt.Errorf("-straggle %q: want clientxfactor (e.g. 2x3.5)", spec)
		}
		c, err := strconv.Atoi(spec[:i])
		if err != nil {
			return nil, fmt.Errorf("-straggle %q: bad client: %v", spec, err)
		}
		f, err := strconv.ParseFloat(spec[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("-straggle %q: bad factor: %v", spec, err)
		}
		p.Straggler(c, f)
	}
	for _, spec := range splitSpecs(join) {
		c, e, err := parsePair(spec, "@")
		if err != nil {
			return nil, fmt.Errorf("-join %q: want client@epoch: %v", spec, err)
		}
		p.JoinAt(c, e)
	}
	for _, spec := range splitSpecs(leave) {
		c, e, err := parsePair(spec, "@")
		if err != nil {
			return nil, fmt.Errorf("-leave %q: want client@epoch: %v", spec, err)
		}
		p.LeaveAt(c, e)
	}
	for _, spec := range splitSpecs(crashMid) {
		i := strings.IndexByte(spec, '@')
		if i < 0 {
			return nil, fmt.Errorf("-crash-mid %q: want client@epoch:batch", spec)
		}
		c, err := strconv.Atoi(spec[:i])
		if err != nil {
			return nil, fmt.Errorf("-crash-mid %q: bad client: %v", spec, err)
		}
		e, b, err := parsePair(spec[i+1:], ":")
		if err != nil {
			return nil, fmt.Errorf("-crash-mid %q: want client@epoch:batch: %v", spec, err)
		}
		p.CrashMidEpoch(c, e, b)
	}
	if churn != "" {
		parts := strings.SplitN(churn, ":", 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("-churn %q: want first:count:from-to", churn)
		}
		first, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("-churn %q: bad first client: %v", churn, err)
		}
		count, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("-churn %q: bad count: %v", churn, err)
		}
		from, to, err := parsePair(parts[2], "-")
		if err != nil {
			return nil, fmt.Errorf("-churn %q: want first:count:from-to: %v", churn, err)
		}
		p.Arrivals(first, count, from, to)
	}
	return p, nil
}

func splitSpecs(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func parsePair(s, sep string) (int, int, error) {
	i := strings.Index(s, sep)
	if i < 0 {
		return 0, 0, fmt.Errorf("missing %q", sep)
	}
	a, err := strconv.Atoi(s[:i])
	if err != nil {
		return 0, 0, err
	}
	b, err := strconv.Atoi(s[i+len(sep):])
	if err != nil {
		return 0, 0, err
	}
	return a, b, nil
}

func parseScheme(s string) (fedmigr.Scheme, error) {
	switch strings.ToLower(s) {
	case "fedavg":
		return fedmigr.SchemeFedAvg, nil
	case "fedprox":
		return fedmigr.SchemeFedProx, nil
	case "fedswap":
		return fedmigr.SchemeFedSwap, nil
	case "randmigr":
		return fedmigr.SchemeRandMigr, nil
	case "fedmigr":
		return fedmigr.SchemeFedMigr, nil
	default:
		return 0, fmt.Errorf("unknown scheme %q (want fedavg|fedprox|fedswap|randmigr|fedmigr)", s)
	}
}
