package checkpoint

import (
	"errors"
	"strings"
	"testing"

	"fedmigr/internal/faults"
	"fedmigr/internal/nn"
	"fedmigr/internal/tensor"
)

func churnMembership(seed int64) Membership {
	return NewMembership(8, faults.NewPlan(seed).JoinAt(8, 2).JoinAt(9, 4).LeaveAt(3, 3))
}

func TestMembershipRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := churnMembership(7)
	st := singleJob(t, nn.NewMLP(tensor.NewRNG(1), 4, 8, 3))
	st.Membership = &m
	if err := Save(dir, st); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir, map[string]*nn.Sequential{"": nn.NewMLP(tensor.NewRNG(2), 4, 8, 3)})
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Membership
	if got == nil || got.Clients != 8 || got.PlanSeed != 7 {
		t.Fatalf("round trip %+v", got)
	}
	if len(got.Joins) != 2 || got.Joins[9] != 4 || got.Leaves[3] != 3 {
		t.Fatalf("schedule round trip %+v", got)
	}
	if diffs := got.Diff(churnMembership(7)); diffs != nil {
		t.Fatalf("identical memberships diff: %v", diffs)
	}
}

func TestMembershipDiff(t *testing.T) {
	saved := churnMembership(7)
	cur := NewMembership(10, faults.NewPlan(8).JoinAt(8, 5).LeaveAt(3, 3).LeaveAt(4, 6))
	diffs := saved.Diff(cur)
	// Expect: client count, plan seed, join 8 epoch moved, join 9 dropped,
	// leave 4 added — five divergences, each naming its client or flag.
	if len(diffs) != 5 {
		t.Fatalf("got %d diffs, want 5:\n%s", len(diffs), strings.Join(diffs, "\n"))
	}
	joined := strings.Join(diffs, "\n")
	for _, want := range []string{"8 clients", "seed 7", "client 8", "client 9", "client 4"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("diffs missing %q:\n%s", want, joined)
		}
	}
	// Two static runs need not agree on an unused plan seed.
	a, b := NewMembership(4, faults.NewPlan(1)), NewMembership(4, faults.NewPlan(2))
	if diffs := a.Diff(b); diffs != nil {
		t.Fatalf("static runs with different seeds diff: %v", diffs)
	}
}

func TestCheckMembership(t *testing.T) {
	saved := churnMembership(7)
	// Matching shape: silent pass.
	if err := CheckMembership("ck", &saved, churnMembership(7)); err != nil {
		t.Fatalf("matching membership: %v", err)
	}
	// Drifted shape: a DriftError naming the divergence and the override.
	drifted := NewMembership(8, faults.NewPlan(7).JoinAt(8, 2).LeaveAt(3, 3))
	err := CheckMembership("ck", &saved, drifted)
	var drift *DriftError
	if !errors.As(err, &drift) || len(drift.Diffs) != 1 {
		t.Fatalf("membership drift: %v, want a one-line DriftError", err)
	}
	if !strings.Contains(err.Error(), "client 9") || !strings.Contains(err.Error(), "-allow-membership-drift") {
		t.Fatalf("drift error not actionable: %v", err)
	}
	// A run state without a membership section has nothing to compare.
	if err := CheckMembership("ck", nil, drifted); err != nil {
		t.Fatalf("no membership section: %v", err)
	}
}
