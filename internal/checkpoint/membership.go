package checkpoint

import (
	"fmt"
	"sort"
	"strings"

	"fedmigr/internal/faults"
)

// Membership is the cohort shape a run state was saved under — founding
// fleet size plus the plan's join/leave schedule — which a resume compares
// against the resuming run's. Resuming a 10-client schedule as an
// 8-client one shifts every seeded stream and allocator decision, so the
// "resumed" run would be a different experiment wearing the old run's
// history; the mismatch is a *DriftError the caller must accept
// explicitly.
type Membership struct {
	// Clients is the founding cohort size (the -clients flag / core's K).
	Clients int `json:"clients"`
	// PlanSeed names the fault/churn schedule (0 when no plan was set —
	// matching faults.NewPlan's seed argument).
	PlanSeed int64 `json:"plan_seed"`
	// Joins and Leaves map client id → the epoch of the scheduled
	// membership event (encoding/json writes int keys as strings).
	Joins  map[int]int `json:"joins,omitempty"`
	Leaves map[int]int `json:"leaves,omitempty"`
}

// NewMembership captures the cohort shape of a run: the founding fleet
// size plus the plan's arrival and departure schedule (nil plan = static
// membership).
func NewMembership(clients int, plan *faults.Plan) Membership {
	m := Membership{Clients: clients, Joins: plan.JoinSchedule(), Leaves: plan.LeaveSchedule()}
	if plan != nil {
		m.PlanSeed = plan.Seed
	}
	return m
}

// Diff compares a saved membership against the shape the current run
// flags describe, returning one human-readable line per divergence (nil
// when the shapes match). PlanSeed differences are reported only when
// either side actually schedules churn — two static runs need not agree
// on an unused seed.
func (m Membership) Diff(cur Membership) []string {
	var out []string
	if m.Clients != cur.Clients {
		out = append(out, fmt.Sprintf("checkpoint has %d clients, flags say %d", m.Clients, cur.Clients))
	}
	churny := len(m.Joins)+len(m.Leaves)+len(cur.Joins)+len(cur.Leaves) > 0
	if churny && m.PlanSeed != cur.PlanSeed {
		out = append(out, fmt.Sprintf("checkpoint plan seed %d, flags say %d", m.PlanSeed, cur.PlanSeed))
	}
	out = append(out, diffSchedule("join", m.Joins, cur.Joins)...)
	out = append(out, diffSchedule("leave", m.Leaves, cur.Leaves)...)
	return out
}

// diffSchedule reports per-client divergences between two event maps in
// ascending client order.
func diffSchedule(kind string, saved, cur map[int]int) []string {
	ids := map[int]bool{}
	for c := range saved {
		ids[c] = true
	}
	for c := range cur {
		ids[c] = true
	}
	sorted := make([]int, 0, len(ids))
	for c := range ids {
		sorted = append(sorted, c)
	}
	sort.Ints(sorted)
	var out []string
	for _, c := range sorted {
		se, sok := saved[c]
		ce, cok := cur[c]
		switch {
		case sok && !cok:
			out = append(out, fmt.Sprintf("checkpoint schedules client %d to %s at epoch %d, flags do not", c, kind, se))
		case !sok && cok:
			out = append(out, fmt.Sprintf("flags schedule client %d to %s at epoch %d, checkpoint does not", c, kind, ce))
		case se != ce:
			out = append(out, fmt.Sprintf("client %d %ss at epoch %d in the checkpoint, %d under the flags", c, kind, se, ce))
		}
	}
	return out
}

// DriftError reports a run state saved under a different membership than
// the resuming run's, one line per divergence.
type DriftError struct {
	Dir   string
	Diffs []string
}

func (e *DriftError) Error() string {
	return fmt.Sprintf(
		"checkpoint: %s was saved under a different membership:\n  %s\nresume with matching flags, or pass -allow-membership-drift to continue anyway",
		e.Dir, strings.Join(e.Diffs, "\n  "))
}

// CheckMembership compares the membership a run state in dir was saved
// under with the resuming run's, returning a *DriftError listing every
// divergence. A run state without a membership section passes.
func CheckMembership(dir string, saved *Membership, cur Membership) error {
	if saved == nil {
		return nil
	}
	if diffs := saved.Diff(cur); diffs != nil {
		return &DriftError{Dir: dir, Diffs: diffs}
	}
	return nil
}
