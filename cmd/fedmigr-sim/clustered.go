package main

import (
	"fmt"
	"os"

	fedmigr "fedmigr"
)

// runClustered drives the clustered-federation mode of fedmigr-sim
// (-clusters k): one shared non-IID partition grouped by label-distribution
// EMD into k cluster models training concurrently as fleet jobs, with
// optional periodic re-evaluation (-recluster-every) migrating drifted
// clients between cluster models. With -target set, the run stops at the
// first round whose routed accuracy reaches it and reports the round count
// — the number scripts/bench.sh sweeps. The trailing summary lines are
// machine-parseable (key=value).
func runClustered(o fedmigr.ClusteredOptions, maxRounds, ckptEvery int, ckptDir string, resume, allowDrift, quiet bool) error {
	c, err := fedmigr.NewClustered(o)
	if err != nil {
		return err
	}
	defer c.Close()
	if resume {
		if err := acceptDrift(c.RestoreState(ckptDir), allowDrift); err != nil {
			return fmt.Errorf("resume: %w", err)
		}
		fmt.Printf("resuming clustered run from %s at round %d\n", ckptDir, c.Fleet.Round())
	}

	target := o.TargetAccuracy
	rounds, roundsToTarget := 0, -1
	overall := 0.0
	for !c.Fleet.Idle() {
		if maxRounds > 0 && rounds >= maxRounds {
			break
		}
		c.RunRound()
		rounds++
		if ckptEvery > 0 && rounds%ckptEvery == 0 {
			if err := c.SaveState(ckptDir); err != nil {
				fmt.Fprintf(os.Stderr, "checkpoint: %v\n", err)
			}
		}
		if target > 0 {
			overall, _ = c.Evaluate()
			if overall >= target {
				roundsToTarget = c.Fleet.Round()
				break
			}
		}
	}
	if ckptEvery > 0 {
		if err := c.SaveState(ckptDir); err != nil {
			fmt.Fprintf(os.Stderr, "checkpoint: %v\n", err)
		} else {
			fmt.Printf("clustered checkpoint saved to %s\n", ckptDir)
		}
	}

	overall, perCluster := c.Evaluate()
	var totalBytes int64
	for _, j := range c.Fleet.Jobs() {
		if n := len(j.History); n > 0 {
			totalBytes += j.History[n-1].Snapshot.TotalBytes
		}
	}
	totalBytes += c.Manager.HandoffBytes()

	if !quiet {
		for k, name := range clusterNames(c) {
			j := c.Fleet.Job(name)
			fmt.Printf("\n%s (%s, %d members):\n", name, j.State, len(c.Manager.Members(k)))
			fmt.Printf("%-7s %-9s %-9s\n", "round", "loss", "acc")
			for i, m := range j.History {
				fmt.Printf("%-7d %-9.4f %-9.4f\n", i+1, m.TrainLoss, m.TestAcc)
			}
		}
		fmt.Println()
	}
	for k, name := range clusterNames(c) {
		fmt.Printf("cluster=%d job=%s members=%d medoid=%d acc=%.4f\n",
			k, name, len(c.Manager.Members(k)), c.Manager.Medoids()[k], perCluster[k])
	}
	fmt.Printf("clustered: clusters=%d rounds=%d rounds_to_target=%d moves=%d handoff_bytes=%d routed_acc=%.4f total_bytes=%d\n",
		c.Manager.K(), c.Fleet.Round(), roundsToTarget, c.Manager.Moves(),
		c.Manager.HandoffBytes(), overall, totalBytes)
	return nil
}

// clusterNames recovers the cluster-ordered job names ("cluster-0" …).
func clusterNames(c *fedmigr.Clustered) []string {
	names := make([]string, c.Manager.K())
	for k := range names {
		names[k] = fmt.Sprintf("cluster-%d", k)
	}
	return names
}

// runAnalytic drives the one-shot analytic baseline (-analytic): a frozen
// seeded random-feature extractor plus a closed-form ridge head solved in
// exactly one aggregation round. The summary line is machine-parseable;
// scripts/bench.sh divides an iterative scheme's traffic by upload_bytes
// to get the one-shot communication saving.
func runAnalytic(o fedmigr.AnalyticOptions, quiet bool) error {
	s, err := fedmigr.NewAnalytic(o)
	if err != nil {
		return err
	}
	defer s.Close()
	res := s.Run()
	if !quiet {
		fmt.Printf("%-7s %-9s %-9s\n", "round", "loss", "acc")
		for i, m := range res.History {
			fmt.Printf("%-7d %-9.4f %-9.4f\n", i+1, m.TrainLoss, m.TestAcc)
		}
		fmt.Println()
	}
	fmt.Printf("analytic: features=%d rounds=%d acc=%.4f loss=%.4f upload_bytes=%d wall=%.2fs\n",
		s.Options.Features, res.Rounds, res.FinalAcc, res.FinalLoss,
		s.Trainer.UploadBytes(), res.Snapshot.WallSeconds)
	return nil
}
