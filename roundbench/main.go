// Command roundbench is the repository's benchmark: closed-loop federated
// training sessions on three workloads (see README.md), each measured end
// to end with tracing off, or layer by layer in a separate traced run.
//
//	bash roundbench/run.sh --workload sim-cnn --seed 1 --seconds 20 --trace 0
//
// A run repeats whole passes of one workload (set up, train a fixed number
// of rounds, evaluate) until --seconds have elapsed, checks that every
// pass of the seed produced identical outputs, and prints a human-readable
// report on standard error and, as the last line of standard output, one
// JSON object {"correct", "attempted", "failed", "metrics"}. The full
// record, with the host fingerprint and sample counts, goes to
// .bench_build/results/, and a traced run also writes its spans there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// endToEnd are the metrics a run with tracing off reports, with the share
// of the parent's median by which each may worsen before a change counts
// as a regression.
var endToEnd = []metricSpec{
	{"round_ms.p50", "ms", "lower", 0.25},
	{"round_ms.tail", "ms", "lower", 0.25},
	{"samples_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"final_acc", "fraction", "higher", 0.2},
	{"traffic_kb_per_round", "KB", "lower", 0.1},
	{"allocs_per_round", "count", "lower", 0.1},
	{"alloc_mb_per_round", "MB", "lower", 0.1},
	{"heap_live_mb", "MB", "lower", 0.1},
}

// perLayer are the metrics a traced run reports, per timed round unless
// the name says otherwise. Times are wall time of wrapped calls summed
// over the goroutines that made them; a metric a workload has no such
// layer for reads 0.
var perLayer = []metricSpec{
	{"nn.conv2d.fwd_ms", "ms", "lower", 0},
	{"nn.conv2d.bwd_ms", "ms", "lower", 0},
	{"nn.dense.fwd_ms", "ms", "lower", 0},
	{"nn.dense.bwd_ms", "ms", "lower", 0},
	{"nn.relu.ms", "ms", "lower", 0},
	{"nn.maxpool2d.ms", "ms", "lower", 0},
	{"nn.eval_ms", "ms", "lower", 0},
	{"nn.calls", "count", "lower", 0},
	{"tensor.gflop", "GFLOP", "lower", 0},
	{"tensor.im2col_mb", "MB", "lower", 0},
	{"tensor.gflops", "GFLOP/s", "higher", 0},
	{"gc.cycles", "count", "lower", 0},
	{"gc.pause_ms", "ms", "lower", 0},
	{"gc.cpu_frac", "fraction", "lower", 0},
	{"sched.jobs", "count", "lower", 0},
	{"sched.inline_frac", "fraction", "lower", 0},
	{"sched.region_ms", "ms", "lower", 0},
	{"sched.speedup_vs_serial", "x", "higher", 0},
	{"core.distribution_ms", "ms", "lower", 0},
	{"core.local_epoch_ms", "ms", "lower", 0},
	{"core.migration_ms", "ms", "lower", 0},
	{"core.aggregation_ms", "ms", "lower", 0},
	{"core.state_ms", "ms", "lower", 0},
	{"core.eval_ms", "ms", "lower", 0},
	{"core.unattributed_frac", "fraction", "lower", 0},
	{"drl.plan_ms", "ms", "lower", 0},
	{"drl.feedback_ms", "ms", "lower", 0},
	{"drl.train_steps", "count", "lower", 0},
	{"agg.partials", "count", "lower", 0},
	{"agg.peak_live", "count", "lower", 0},
	{"edgenet.transfers", "count", "lower", 0},
	{"edgenet.c2c_mb", "MB", "lower", 0},
	{"edgenet.sim_c2s_mb", "MB", "lower", 0},
	{"edgenet.sim_wall_s", "s", "lower", 0},
	{"fleet.alloc_ms", "ms", "lower", 0},
	{"fleet.job_rounds", "count", "higher", 0},
	{"fleet.greedy_solves", "count", "lower", 0},
	{"fleet.hungarian_solves", "count", "lower", 0},
	{"fednet.frames", "count", "lower", 0},
	{"fednet.bytes_per_frame", "B", "lower", 0},
	{"fednet.rpc_write_ms", "ms", "lower", 0},
	{"fednet.rpc_read_ms", "ms", "lower", 0},
	{"fednet.encode_us_per_frame", "us", "lower", 0},
	{"fednet.decode_us_per_frame", "us", "lower", 0},
	{"fednet.marshal_us", "us", "lower", 0},
	{"trace.overhead_frac", "fraction", "lower", 0},
}

// minPasses is the fewest timed passes a run makes; with the warm-up pass
// the identity check always compares at least three sessions of the seed.
const minPasses = 2

// reconcileTol is the largest share of the traced round time that the
// phases, gaps and wrapped calls may leave unexplained on the simulator
// workloads.
const reconcileTol = 0.1

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full result written under .bench_build/results.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Seconds  float64            `json:"seconds"`
	Host     host               `json:"host"`
	Passes   int                `json:"passes"`
	Rounds   timing             `json:"round_ms"`
	PassP50  []float64          `json:"pass_round_ms_p50"`
	Setup    timing             `json:"setup_s"`
	Outputs  outputs            `json:"outputs"`
	Failures []string           `json:"failures,omitempty"`
	Summary  summary            `json:"summary"`
	Notes    map[string]float64 `json:"notes,omitempty"`
	// Breakdown reconciles the traced round (ms per round): the indented
	// rows lie inside the row above them, the others add up to the window.
	Breakdown []part `json:"round_breakdown,omitempty"`
}

// part is one row of the traced round's breakdown.
type part struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("roundbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: sim-cnn, fleet-1k or net-wide")
	seed := fl.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := fl.Float64("seconds", 20, "how long to keep running passes")
	trace := fl.Int("trace", 0, "0 reports end-to-end metrics untraced; 1 makes the traced run and reports per-layer metrics")
	outDir := fl.String("out", filepath.Join(".bench_build", "results"), "directory for the full result record and the span dump")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "roundbench: need --workload sim-cnn|fleet-1k|net-wide, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if err := checkSpecs(endToEnd, true); err != nil {
		fmt.Fprintln(stderr, "roundbench:", err)
		return 2
	}
	if err := checkSpecs(perLayer, false); err != nil {
		fmt.Fprintln(stderr, "roundbench:", err)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var rec *record
	var spans []byte
	var err error
	if *trace == 0 {
		rec, err = measure(w, *seed, budget, false)
	} else {
		rec, spans, err = traced(w, *seed, budget, false)
	}
	if err != nil {
		fmt.Fprintln(stderr, "roundbench:", err)
		return 1
	}
	root, _ := os.Getwd()
	rec.Host = fingerprint(root)
	rec.Seconds = *seconds
	report(stderr, rec)
	if err := save(*outDir, rec, spans); err != nil {
		fmt.Fprintln(stderr, "roundbench:", err)
		return 1
	}
	line, err := json.Marshal(rec.Summary)
	if err != nil {
		fmt.Fprintln(stderr, "roundbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Summary.Correct {
		return 1
	}
	return 0
}

// passes runs one warm-up pass, then timed passes of w until budget has
// elapsed since start (and at least min of them). The warm-up pass lets
// the heap, the scheduler's helpers and the arena reach their steady
// state; its outputs are checked like any other pass's, its timings are
// not reported.
func passes(w workload, cfg passConfig, start time.Time, budget time.Duration, min int) (warm *pass, ps []*pass, err error) {
	warm, err = w.run(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s warm-up pass: %w", w.name, err)
	}
	for len(ps) < min || time.Since(start) < budget {
		p, err := w.run(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("%s pass %d: %w", w.name, len(ps), err)
		}
		ps = append(ps, p)
	}
	return warm, ps, nil
}

// tally counts rounds attempted and failed, compares every pass's outputs
// with want (the first pass's when want is nil) and collects failures.
type tally struct {
	attempted, failed int
	failures          []string
}

func (t *tally) add(ps []*pass, want *outputs, what string) {
	for i, p := range ps {
		t.attempted += p.attempted
		t.failed += p.failed
		t.failures = append(t.failures, p.failures...)
		ref := want
		if ref == nil {
			ref = &ps[0].out
		}
		if ref == &p.out {
			continue
		}
		t.attempted++
		if p.out != *ref {
			t.failed++
			t.failures = append(t.failures, fmt.Sprintf("%s pass %d outputs %+v differ from %+v", what, i, p.out, *ref))
		}
	}
}

// measure is the end-to-end run: untraced passes only.
func measure(w workload, seed int64, budget time.Duration, quick bool) (*record, error) {
	warm, ps, err := passes(w, passConfig{seed: seed, workers: workers, quick: quick}, time.Now(), budget, minPasses)
	if err != nil {
		return nil, err
	}
	var t tally
	t.add(append([]*pass{warm}, ps...), nil, "untraced")
	var rounds, setups []float64
	var wall float64
	var samples, mallocs, bytes, traffic int64
	var total int
	heaps := make([]float64, 0, len(ps))
	var passP50 []float64
	for _, p := range ps {
		rounds = append(rounds, p.roundMS()...)
		passP50 = append(passP50, medianOf(p.roundMS()))
		setups = append(setups, p.setup.Seconds())
		sec, _, _ := p.window()
		wall += sec
		samples += p.samples
		traffic += p.traffic
		mallocs += int64(p.mem.mallocs)
		bytes += int64(p.mem.bytes)
		total += p.total
		heaps = append(heaps, float64(p.heap)/1e6)
	}
	rt, st := summarize(rounds), summarize(setups)
	out := ps[0].out
	m := map[string]float64{
		"round_ms.p50":         rt.P50,
		"round_ms.tail":        rt.Tail,
		"samples_per_s":        float64(samples) / wall,
		"setup_s":              st.P50,
		"final_acc":            out.FinalAcc,
		"traffic_kb_per_round": float64(traffic) / float64(total) / 1e3,
		"allocs_per_round":     float64(mallocs) / float64(total),
		"alloc_mb_per_round":   float64(bytes) / float64(total) / 1e6,
		"heap_live_mb":         medianOf(heaps),
	}
	rec := &record{
		Workload: w.name, Seed: seed, Passes: 1 + len(ps), Rounds: rt, Setup: st, PassP50: passP50,
		Outputs: out, Failures: t.failures,
		Notes: map[string]float64{"failed_frac": frac(t.failed, t.attempted)},
	}
	rec.Summary = summary{
		Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: fill(endToEnd, m),
	}
	return rec, nil
}

// traced is the per-layer run: untraced passes for the baseline round time
// and outputs, traced passes for the layer numbers, and for sim-cnn one
// traced single-worker pass as the serial baseline. Every pass must
// reproduce the untraced outputs exactly.
func traced(w workload, seed int64, budget time.Duration, quick bool) (*record, []byte, error) {
	start := time.Now()
	cfg := passConfig{seed: seed, workers: workers, quick: quick}
	warm, err := w.run(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("%s warm-up pass: %w", w.name, err)
	}
	var t tally
	t.add([]*pass{warm}, nil, "untraced")
	want := warm.out

	// Untraced and traced passes alternate, so drift in the host's speed
	// during the run does not show up as tracing overhead.
	type tracedPass struct {
		p   *pass
		rec *recorder
	}
	var base []*pass
	var tps []tracedPass
	for len(tps) == 0 || time.Since(start) < budget*3/4 {
		p, err := w.run(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("%s pass: %w", w.name, err)
		}
		base = append(base, p)
		t.add([]*pass{p}, &want, "untraced")
		r := newRecorder()
		tc := cfg
		tc.rec = r
		if p, err = w.run(tc); err != nil {
			return nil, nil, fmt.Errorf("%s traced pass: %w", w.name, err)
		}
		tps = append(tps, tracedPass{p, r})
		t.add([]*pass{p}, &want, "traced")
	}
	var serial *pass
	if w.name == "sim-cnn" {
		serial, err = w.run(passConfig{seed: seed, workers: 1, quick: quick, rec: newRecorder()})
		if err != nil {
			return nil, nil, fmt.Errorf("%s serial pass: %w", w.name, err)
		}
		t.add([]*pass{serial}, &want, "traced serial")
	}

	// Totals over the traced passes, divided by their timed rounds below.
	var (
		nRounds, allRounds int
		lt                 layerTotals
		at                 attribution
		plan               float64
		mem                memDelta
		snapSum            = map[string]float64{}
		peakLive           float64
		tracedMS           []float64
		spans              []byte
	)
	at.phase = map[string]float64{}
	for _, tp := range tps {
		p, r := tp.p, tp.rec
		r.tel.EmitSnapshot() // the dump ends with the program's counters
		recs, err := r.spans()
		if err != nil {
			return nil, nil, fmt.Errorf("decoding spans: %w", err)
		}
		spans = append(spans, r.rawSpans()...)
		_, w0, w1 := p.window()
		nRounds += len(p.rounds)
		allRounds += p.total
		tracedMS = append(tracedMS, p.roundMS()...)
		l := sumLayers(r.layers, w0, w1)
		lt.add(l)
		t.attempted++
		if l.rows != p.samples {
			t.failed++
			t.failures = append(t.failures, fmt.Sprintf("wrapped layers saw %d training samples in the timed rounds, the workload counts %d", l.rows, p.samples))
		}
		a := attribute(p.rounds, recs, r.layers, r.builds, r.feedbacks, w.name == "fleet-1k")
		at.add(a)
		for _, iv := range r.plans {
			if iv.start >= w0 && iv.start < w1 {
				plan += float64(iv.dur)
			}
		}
		mem.add(p.mem)
		s := p.snap
		add := func(k string, v float64) { snapSum[k] += v }
		add("sched.jobs", counterSum(s, "sched_jobs_total"))
		add("sched.inline", counterSum(s, "sched_inline_jobs_total"))
		add("sched.regions", counterSum(s, "sched_regions_total"))
		add("sched.region_s", histSum(s, "sched_region_seconds"))
		add("drl.train_steps", counterSum(s, "drl_train_steps_total"))
		add("agg.partials", counterSum(s, "core_agg_partials_total"))
		if v := s.Gauges["core_agg_peak_live"]; v > peakLive {
			peakLive = v
		}
		add("edgenet.transfers", float64(p.acct.NumTransfers))
		add("edgenet.c2c_b", float64(p.c2cB))
		add("edgenet.c2s_b", float64(p.acct.C2SBytes))
		add("edgenet.wall_s", p.acct.WallSeconds)
		add("fleet.job_rounds", float64(p.jobRounds))
		add("fleet.greedy", counterSum(s, "fleet_alloc_greedy_total"))
		add("fleet.hungarian", counterSum(s, "fleet_alloc_hungarian_total"))
		add("fednet.frames", counterSum(s, "fednet_msgs_total", "dir=tx"))
		add("fednet.tx_bytes", counterSum(s, "fednet_bytes_total", "dir=tx"))
		add("fednet.write_s", histSum(s, "fednet_rpc_seconds", "op=write"))
		add("fednet.read_s", histSum(s, "fednet_rpc_seconds", "op=read"))
	}
	per := func(v float64) float64 { return v / float64(nRounds) }
	perAll := func(v float64) float64 { return v / float64(allRounds) }
	ms := func(ns float64) float64 { return per(ns) / 1e6 }

	m := map[string]float64{
		"nn.conv2d.fwd_ms":       ms(lt.convFwd),
		"nn.conv2d.bwd_ms":       ms(lt.convBwd),
		"nn.dense.fwd_ms":        ms(lt.denseFwd),
		"nn.dense.bwd_ms":        ms(lt.denseBwd),
		"nn.relu.ms":             ms(lt.relu),
		"nn.maxpool2d.ms":        ms(lt.pool),
		"nn.eval_ms":             ms(lt.eval),
		"nn.calls":               per(float64(lt.calls)),
		"tensor.gflop":           per(lt.flops) / 1e9,
		"tensor.im2col_mb":       per(lt.colBytes) / 1e6,
		"gc.cycles":              perAll(float64(mem.gcs)),
		"gc.pause_ms":            perAll(float64(mem.pauseNS)) / 1e6,
		"gc.cpu_frac":            safeDiv(mem.gcCPU, mem.totalCPU),
		"sched.jobs":             perAll(snapSum["sched.jobs"]),
		"sched.inline_frac":      safeDiv(snapSum["sched.inline"], snapSum["sched.regions"]),
		"sched.region_ms":        perAll(snapSum["sched.region_s"]) * 1e3,
		"core.distribution_ms":   ms(at.phase["distribution"]),
		"core.local_epoch_ms":    ms(at.phase["local_epoch"]),
		"core.migration_ms":      ms(at.phase["migration_event"]),
		"core.aggregation_ms":    ms(at.phase["aggregation"]),
		"core.state_ms":          ms(at.state),
		"core.eval_ms":           ms(at.eval),
		"drl.plan_ms":            ms(plan),
		"drl.feedback_ms":        ms(at.feedback),
		"drl.train_steps":        perAll(snapSum["drl.train_steps"]),
		"agg.partials":           perAll(snapSum["agg.partials"]),
		"agg.peak_live":          peakLive,
		"edgenet.transfers":      perAll(snapSum["edgenet.transfers"]),
		"edgenet.c2c_mb":         perAll(snapSum["edgenet.c2c_b"]) / 1e6,
		"edgenet.sim_c2s_mb":     perAll(snapSum["edgenet.c2s_b"]) / 1e6,
		"edgenet.sim_wall_s":     perAll(snapSum["edgenet.wall_s"]),
		"fleet.alloc_ms":         ms(at.alloc),
		"fleet.job_rounds":       per(snapSum["fleet.job_rounds"]),
		"fleet.greedy_solves":    perAll(snapSum["fleet.greedy"]),
		"fleet.hungarian_solves": perAll(snapSum["fleet.hungarian"]),
		"fednet.frames":          perAll(snapSum["fednet.frames"]),
		"fednet.bytes_per_frame": safeDiv(snapSum["fednet.tx_bytes"], snapSum["fednet.frames"]),
		"fednet.rpc_write_ms":    perAll(snapSum["fednet.write_s"]) * 1e3,
		"fednet.rpc_read_ms":     perAll(snapSum["fednet.read_s"]) * 1e3,
	}
	if conv, dense := lt.convFwd+lt.convBwd, lt.denseFwd+lt.denseBwd; conv+dense > 0 {
		m["tensor.gflops"] = lt.flops / (conv + dense)
	}
	if serial != nil {
		m["sched.speedup_vs_serial"] = summarize(serial.roundMS()).P50 / summarize(tracedMS).P50
	}
	if w.name == "net-wide" {
		enc, dec, mar, err := codecTimes(netFactory(seed, quick), 15)
		if err != nil {
			return nil, nil, err
		}
		m["fednet.encode_us_per_frame"], m["fednet.decode_us_per_frame"], m["fednet.marshal_us"] = enc, dec, mar
	}
	baseRT, trRT := summarize(roundsOf(base)), summarize(tracedMS)
	m["trace.overhead_frac"] = trRT.P50/baseRT.P50 - 1

	// Reconciliation. On the simulator workloads the program's phase spans,
	// the gap rules and the wrapped calls must explain the traced round up
	// to reconcileTol, and the layers' summed time must fit in the
	// local-epoch phase at the pass's worker count. On net-wide the
	// program has no phase spans yet; there the unattributed share is what
	// the clients' layer time (two clients train at once) and the policy
	// leave: wire, codec and waiting.
	var rows []part
	if w.name == "net-wide" {
		m["core.unattributed_frac"] = 1 - (lt.train()/2+plan)/at.window
		rows = []part{
			{"client layers (2 clients at once)", ms(lt.train() / 2)},
			{"migration policy", ms(plan)},
			{"wire, codec, waiting", ms(at.window - lt.train()/2 - plan)},
		}
	} else {
		rows = []part{
			{"distribution", ms(at.phase["distribution"])},
			{"local_epoch", ms(at.phase["local_epoch"])},
			{fmt.Sprintf("  layers, summed over %d workers", workers), ms(lt.train())},
			{"migration_event", ms(at.phase["migration_event"])},
			{"  policy plan", ms(plan)},
			{"state build", ms(at.state)},
			{"policy feedback", ms(at.feedback)},
			{"aggregation", ms(at.phase["aggregation"])},
			{"evaluation", ms(at.eval)},
			{"fleet allocation", ms(at.alloc)},
			{"unattributed", ms(at.other)},
		}
		m["core.unattributed_frac"] = at.unattributedFrac()
		t.attempted += 2
		if u := at.unattributedFrac(); u > reconcileTol || u < 0 {
			t.failed++
			t.failures = append(t.failures, fmt.Sprintf("phases leave %.1f%% of the traced round unattributed (tolerance %.0f%%)", 100*u, 100*reconcileTol))
		}
		if lt.train() > float64(workers)*at.phase["local_epoch"]*(1+reconcileTol) {
			t.failed++
			t.failures = append(t.failures, fmt.Sprintf("layer time %.1f ms exceeds %d workers × local-epoch time %.1f ms", lt.train()/1e6, workers, at.phase["local_epoch"]/1e6))
		}
	}

	rec := &record{
		Workload: w.name, Seed: seed, Trace: true, Passes: 1 + len(base) + len(tps), Rounds: trRT,
		Breakdown: append(rows, part{"= traced round window", ms(at.window)}),
		Outputs:   want, Failures: t.failures,
		Notes: map[string]float64{
			"failed_frac":       frac(t.failed, t.attempted),
			"untraced_round_ms": baseRT.P50,
			"traced_round_ms":   trRT.P50,
			"traced_rounds":     float64(nRounds),
		},
	}
	rec.Summary = summary{
		Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: fill(perLayer, m),
	}
	return rec, spans, nil
}

func (t *layerTotals) add(o layerTotals) {
	t.convFwd += o.convFwd
	t.convBwd += o.convBwd
	t.denseFwd += o.denseFwd
	t.denseBwd += o.denseBwd
	t.relu += o.relu
	t.pool += o.pool
	t.other += o.other
	t.eval += o.eval
	t.calls += o.calls
	t.flops += o.flops
	t.colBytes += o.colBytes
	t.rows += o.rows
}

func (a *attribution) add(o attribution) {
	a.window += o.window
	for k, v := range o.phase {
		a.phase[k] += v
	}
	a.state += o.state
	a.alloc += o.alloc
	a.eval += o.eval
	a.feedback += o.feedback
	a.other += o.other
}

func (m *memDelta) add(o memDelta) {
	m.mallocs += o.mallocs
	m.bytes += o.bytes
	m.gcs += o.gcs
	m.pauseNS += o.pauseNS
	m.gcCPU += o.gcCPU
	m.totalCPU += o.totalCPU
}

func roundsOf(ps []*pass) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, p.roundMS()...)
	}
	return out
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func frac(a, b int) float64 { return safeDiv(float64(a), float64(b)) }

// fill orders m by specs, attaching units; every spec gets a value.
func fill(specs []metricSpec, m map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		out[s.Name] = metric{Value: m[s.Name], Unit: s.Unit}
	}
	return out
}

// report prints the human-readable result.
func report(w io.Writer, r *record) {
	mode := "end-to-end (untraced)"
	if r.Trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "roundbench %s seed=%d %s: %d passes, %.0f s\n", r.Workload, r.Seed, mode, r.Passes, r.Seconds)
	h := r.Host
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d cpu=%q go=%s rev=%s dirty=%v src=%s\n",
		h.NProc, h.GOMAXPROCS, h.CPU, h.GoVersion, h.Revision, h.Dirty, h.SourceSHA)
	fmt.Fprintf(w, "round_ms: p50=%.3f tail=p%.1f:%.3f (%d beyond) n=%d\n",
		r.Rounds.P50, r.Rounds.TailPct, r.Rounds.Tail, r.Rounds.TailBeyond, r.Rounds.N)
	fmt.Fprintf(w, "outputs: %+v\n", r.Outputs)
	names := make([]string, 0, len(r.Summary.Metrics))
	for k := range r.Summary.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := r.Summary.Metrics[k]
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", k, v.Value, v.Unit)
	}
	notes := make([]string, 0, len(r.Notes))
	for k := range r.Notes {
		notes = append(notes, k)
	}
	sort.Strings(notes)
	for _, k := range notes {
		fmt.Fprintf(w, "  (%s %.4f)\n", k, r.Notes[k])
	}
	if len(r.Breakdown) > 0 {
		fmt.Fprintf(w, "round breakdown (ms per traced round):\n")
		window := r.Breakdown[len(r.Breakdown)-1].MS
		for _, p := range r.Breakdown {
			fmt.Fprintf(w, "  %-34s %10.3f  %5.1f%%\n", p.Name, p.MS, 100*safeDiv(p.MS, window))
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", r.Summary.Correct, r.Summary.Attempted, r.Summary.Failed)
}

// save writes the record and, for a traced run, the spans the program
// emitted, as JSONL.
func save(dir string, r *record, spans []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s-seed%d-trace%v", r.Workload, r.Seed, r.Trace)
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	err = os.WriteFile(filepath.Join(dir, base+".json"), append(b, '\n'), 0o644)
	if err == nil && spans != nil {
		err = os.WriteFile(filepath.Join(dir, base+".spans.jsonl"), spans, 0o644)
	}
	return err
}
