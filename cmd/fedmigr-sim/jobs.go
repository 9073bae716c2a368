package main

import (
	"fmt"
	"strconv"
	"strings"

	fedmigr "fedmigr"
	"fedmigr/internal/fleet"
)

// parseJobs parses the -jobs spec: jobs separated by ';', fields by ',',
// each field key=value. Required keys: name, demand, rounds. Optional
// per-job keys override the corresponding top-level flags: weight, scheme,
// dataset, partition, model, migrator, agg, tau, lr, batch, perclass,
// noise, seed.
//
//	-jobs "name=a,model=mlp,demand=4,rounds=10;name=b,model=c10cnn,demand=6,rounds=5,weight=0.5"
func parseJobs(spec string, base fedmigr.Options) ([]fedmigr.JobSpec, error) {
	var jobs []fedmigr.JobSpec
	for _, js := range strings.Split(spec, ";") {
		js = strings.TrimSpace(js)
		if js == "" {
			continue
		}
		j := fedmigr.JobSpec{Options: base}
		j.Options.Seed = 0 // derive a per-job seed unless the spec names one
		for _, field := range strings.Split(js, ",") {
			field = strings.TrimSpace(field)
			if field == "" {
				continue
			}
			eq := strings.IndexByte(field, '=')
			if eq < 0 {
				return nil, fmt.Errorf("-jobs field %q: want key=value", field)
			}
			key, val := field[:eq], field[eq+1:]
			var err error
			switch key {
			case "name":
				j.Name = val
			case "demand":
				j.Demand, err = strconv.Atoi(val)
			case "rounds":
				j.Rounds, err = strconv.Atoi(val)
			case "weight":
				j.Weight, err = strconv.ParseFloat(val, 64)
			case "scheme":
				j.Options.Scheme, err = parseScheme(val)
			case "dataset":
				j.Options.Dataset = fedmigr.Dataset(val)
			case "partition":
				j.Options.Partition = fedmigr.Partition(val)
			case "model":
				j.Options.Model = fedmigr.Model(val)
			case "migrator":
				j.Options.Migrator = fedmigr.MigratorKind(val)
			case "agg":
				j.Options.AggEvery, err = strconv.Atoi(val)
			case "tau":
				j.Options.Tau, err = strconv.Atoi(val)
			case "lr":
				j.Options.LR, err = strconv.ParseFloat(val, 64)
			case "batch":
				j.Options.BatchSize, err = strconv.Atoi(val)
			case "perclass":
				j.Options.PerClass, err = strconv.Atoi(val)
			case "noise":
				j.Options.Noise, err = strconv.ParseFloat(val, 64)
			case "seed":
				j.Options.Seed, err = strconv.ParseInt(val, 10, 64)
			default:
				return nil, fmt.Errorf("-jobs: unknown key %q in %q", key, js)
			}
			if err != nil {
				return nil, fmt.Errorf("-jobs field %q: %v", field, err)
			}
		}
		if j.Name == "" {
			return nil, fmt.Errorf("-jobs entry %q: missing name=", js)
		}
		jobs = append(jobs, j)
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("-jobs: no jobs in spec %q", spec)
	}
	return jobs, nil
}

// runFleet drives the multi-job path of fedmigr-sim: assemble the fleet,
// optionally resume from a checkpoint (refusing membership drift unless
// allowDrift), run rounds (checkpointing every ckptEvery fleet rounds),
// and print per-job trajectories.
func runFleet(o fedmigr.FleetOptions, maxRounds, ckptEvery int, ckptDir string, resume, allowDrift, quiet bool) error {
	f, err := fedmigr.NewFleet(o)
	if err != nil {
		return err
	}
	defer f.Close()
	for _, j := range f.Manager.Jobs() {
		if j.State == fleet.Rejected {
			fmt.Printf("job %s REJECTED: demand %d exceeds hydrated-replica budget %d\n",
				j.Cfg.Name, j.Cfg.Demand, o.MaxHydrated)
		}
	}
	if resume {
		if err := acceptDrift(f.RestoreState(ckptDir), allowDrift); err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		fmt.Printf("resuming fleet from %s at round %d\n", ckptDir, f.Manager.Round())
	}

	rounds := 0
	for !f.Manager.Idle() {
		if maxRounds > 0 && rounds >= maxRounds {
			break
		}
		f.Manager.RunRound()
		rounds++
		if ckptEvery > 0 && rounds%ckptEvery == 0 {
			if err := f.SaveState(ckptDir); err != nil {
				fmt.Printf("checkpoint: %v\n", err)
			}
		}
	}
	if ckptEvery > 0 {
		if err := f.SaveState(ckptDir); err != nil {
			fmt.Printf("checkpoint: %v\n", err)
		} else {
			fmt.Printf("fleet checkpoint saved to %s\n", ckptDir)
		}
	}

	if !quiet {
		for _, j := range f.Manager.Jobs() {
			if j.State == fleet.Rejected {
				continue
			}
			fmt.Printf("\njob %s (%s):\n", j.Cfg.Name, j.State)
			fmt.Printf("%-7s %-9s %-9s\n", "round", "loss", "acc")
			for i, m := range j.History {
				fmt.Printf("%-7d %-9.4f %-9.4f\n", i+1, m.TrainLoss, m.TestAcc)
			}
		}
	}
	fmt.Printf("\nfleet: %d rounds, %d jobs\n", f.Manager.Round(), len(f.Manager.Jobs()))
	for _, j := range f.Manager.Jobs() {
		final := 0.0
		if n := len(j.History); n > 0 {
			final = j.History[n-1].TestAcc
		}
		fmt.Printf("job=%s state=%s rounds=%d/%d demand=%d final_acc=%.4f\n",
			j.Cfg.Name, j.State, j.RoundsDone, j.Cfg.Rounds, j.Cfg.Demand, final)
	}
	return nil
}
