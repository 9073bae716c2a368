package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"fedmigr"
	"fedmigr/internal/nn"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n          int
		value, pct float64
		beyond     int
	}{
		{0, 0, 0, 0},
		{1, 1, 100, 0},
		{12, 6.5, 50, 6},    // too few for a tail: the median, flagged by beyond < 10
		{20, 10, 50, 10},    // exactly 10 above s[9]
		{40, 30, 75, 10},    // p75
		{100, 90, 90, 10},   // p90
		{1000, 990, 99, 10}, // p99
		{2000, 1990, 99.5, 10},
	}
	for _, c := range cases {
		v, p, b := tailOf(seq(c.n))
		if v != c.value || p != c.pct || b != c.beyond {
			t.Errorf("n=%d: tail (%v, p%v, %d beyond), want (%v, p%v, %d)", c.n, v, p, b, c.value, c.pct, c.beyond)
		}
		if c.n >= 2*tailBeyond {
			above := 0
			for _, x := range seq(c.n) {
				if x > v {
					above++
				}
			}
			if above != tailBeyond {
				t.Errorf("n=%d: %d samples above the tail, want %d", c.n, above, tailBeyond)
			}
		}
	}
	// summarize does not reorder its input.
	in := []float64{3, 1, 2}
	if tm := summarize(in); tm.P50 != 2 || tm.N != 3 || in[0] != 3 {
		t.Errorf("summarize = %+v, input now %v", tm, in)
	}
}

func TestMetricGrammar(t *testing.T) {
	if err := checkSpecs(endToEnd, true); err != nil {
		t.Fatal(err)
	}
	if err := checkSpecs(perLayer, false); err != nil {
		t.Fatal(err)
	}
	setup := false
	for _, m := range endToEnd {
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", m.Bound, o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end-to-end metrics need setup_s in s, lower is better")
	}
	bad := []metricSpec{
		{"_lead", "ms", "lower", 0.1},
		{"has space", "ms", "lower", 0.1},
		{strings.Repeat("a", 65), "ms", "lower", 0.1},
		{"ok", "milliseconds-long", "lower", 0.1},
		{"ok", "ms", "smaller", 0.1},
		{"ok", "ms", "lower", 0.3},
		{"ok", "ms", "lower", 0},
	}
	for _, m := range bad {
		if checkSpecs([]metricSpec{m}, true) == nil {
			t.Errorf("%+v accepted", m)
		}
	}
	if checkSpecs([]metricSpec{{"a", "ms", "lower", 0.1}, {"a", "s", "lower", 0.1}}, true) == nil {
		t.Error("duplicate name accepted")
	}
	if checkSpecs([]metricSpec{{"a", "ms", "lower", 0.1}}, false) == nil {
		t.Error("per-layer metric with a bound accepted")
	}
}

// TestSpecFile holds BENCHMARK.json at the repository root to the metrics
// and workloads this program reports.
func TestSpecFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why %d chars), program has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	same := func(what string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestSmoke runs every workload at quick scale, untraced and traced: each
// must pass its output checks (so the wrapped, traced sessions reproduce
// the untraced ones exactly) and report every metric, the end-to-end ones
// non-zero.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			rec, err := measure(w, 3, 100*time.Millisecond, true)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Summary.Correct {
				t.Fatalf("untraced: %v", rec.Failures)
			}
			for _, m := range endToEnd {
				if v, ok := rec.Summary.Metrics[m.Name]; !ok || v.Value <= 0 {
					t.Errorf("untraced %s = %+v", m.Name, v)
				}
			}
			trec, spans, err := traced(w, 3, 100*time.Millisecond, true)
			if err != nil {
				t.Fatal(err)
			}
			if !trec.Summary.Correct {
				t.Fatalf("traced: %v", trec.Failures)
			}
			if trec.Outputs != rec.Outputs {
				t.Errorf("traced outputs %+v, untraced %+v", trec.Outputs, rec.Outputs)
			}
			if len(trec.Summary.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(trec.Summary.Metrics), len(perLayer))
			}
			if trec.Summary.Metrics["nn.calls"].Value <= 0 || len(spans) == 0 {
				t.Errorf("traced run saw no layer calls or spans")
			}
		})
	}
}

// TestAssemblyMatchesFacade holds the workloads' own assembly, which
// exists so layers and migrators can be wrapped, to what the public
// facade builds from the same options.
func TestAssemblyMatchesFacade(t *testing.T) {
	p, err := simCNN(passConfig{seed: 5, workers: workers, quick: true})
	if err != nil {
		t.Fatal(err)
	}
	res, sim, err := runFacade(fedmigr.Options{
		Scheme: fedmigr.SchemeFedMigr, Migrator: fedmigr.MigratorDRL, Dataset: fedmigr.DatasetC10,
		Partition: fedmigr.PartitionShards, Model: fedmigr.ModelC10CNN, Clients: 6, LANs: 4,
		PerClass: 6, AggEvery: 5, EvalEvery: 5, Epochs: 10, Workers: workers, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalAcc != p.out.FinalAcc || hashModels(sim) != p.out.Hash {
		t.Errorf("sim-cnn: facade acc %v hash %s, workload acc %v hash %s",
			res.FinalAcc, hashModels(sim), p.out.FinalAcc, p.out.Hash)
	}

	fp, err := fleet1k(passConfig{seed: 5, workers: workers, quick: true})
	if err != nil {
		t.Fatal(err)
	}
	job := fedmigr.JobSpec{Demand: 6, Rounds: 2, Options: fedmigr.Options{
		Scheme: fedmigr.SchemeFedMigr, Migrator: fedmigr.MigratorGreedyEMD, Model: fedmigr.ModelMLP,
		Partition: fedmigr.PartitionReplicate, ReplicaShards: 8, PerClass: 8, AggEvery: 2, BatchSize: 8,
	}}
	a, b := job, job
	a.Name, b.Name = "job0", "job1"
	f, err := fedmigr.NewFleet(fedmigr.FleetOptions{Clients: 60, LANs: 4, Workers: workers, Seed: 5, Jobs: []fedmigr.JobSpec{a, b}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Run(2)
	var models []*nn.Sequential
	var acc float64
	for _, j := range f.Manager.Jobs() {
		models = append(models, j.Trainer.GlobalModel())
		acc += j.History[len(j.History)-1].TestAcc
	}
	acc /= 2
	if acc != fp.out.FinalAcc || hashModels(models...) != fp.out.Hash {
		t.Errorf("fleet-1k: facade acc %v hash %s, workload acc %v hash %s",
			acc, hashModels(models...), fp.out.FinalAcc, fp.out.Hash)
	}
}

func runFacade(o fedmigr.Options) (*fedmigr.Result, *nn.Sequential, error) {
	s, err := fedmigr.New(o)
	if err != nil {
		return nil, nil, err
	}
	res := s.Run()
	return res, s.Trainer.GlobalModel(), nil
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim-cnn", "--trace", "2"},
		{"--workload", "sim-cnn", "--seconds", "0"},
		{"--no-such-flag"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
