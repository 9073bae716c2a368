package experiments

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact must be registered.
	want := []string{"abl", "async", "cluster", "div", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "tab1", "tab2", "tab3"}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments, want %d: %v", len(ids), len(want), ids)
	}
	for _, id := range want {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("missing experiment %s", id)
		}
		if e.ID() != id {
			t.Fatalf("experiment %s reports ID %s", id, e.ID())
		}
		if e.Title() == "" {
			t.Fatalf("experiment %s has no title", id)
		}
	}
}

func TestAllOrdered(t *testing.T) {
	all := All()
	if len(all) != len(IDs()) {
		t.Fatal("All/IDs mismatch")
	}
	for i, e := range all {
		if e.ID() != IDs()[i] {
			t.Fatal("All not in id order")
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("nope"); ok {
		t.Fatal("unknown id must not resolve")
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Scale != 1 || p.Seed != 1 {
		t.Fatalf("defaults %+v", p)
	}
	if got := p.scaleInt(40, 10); got != 40 {
		t.Fatalf("scaleInt(40,10)=%d", got)
	}
	small := Params{Scale: 0.1}.withDefaults()
	if got := small.scaleInt(40, 10); got != 10 {
		t.Fatalf("floor not applied: %d", got)
	}
}

func TestReportPrint(t *testing.T) {
	r := &Report{
		ID: "x", Title: "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"1", "2"}, {"333333", "4"}},
		Notes:  []string{"a note"},
	}
	var sb strings.Builder
	r.Print(&sb)
	out := sb.String()
	for _, want := range []string{"demo", "long-header", "333333", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report output missing %q:\n%s", want, out)
		}
	}
}

// quickReports caches each quick-scale report, so the per-experiment
// checks, the goldens and the shape assertions run every experiment once.
var quickReports = map[string]*Report{}

// runQuick executes an experiment at minimal scale and sanity-checks the
// report structure.
func runQuick(t *testing.T, id string) *Report {
	t.Helper()
	if rep, ok := quickReports[id]; ok {
		return rep
	}
	e, ok := Get(id)
	if !ok {
		t.Fatalf("missing %s", id)
	}
	rep, err := e.Run(Params{Scale: 0.1, Seed: 1})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if rep.ID != id {
		t.Fatalf("report id %s for experiment %s", rep.ID, id)
	}
	if len(rep.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	for _, row := range rep.Rows {
		if len(row) != len(rep.Header) {
			t.Fatalf("%s row width %d != header %d", id, len(row), len(rep.Header))
		}
	}
	quickReports[id] = rep
	return rep
}

func TestFig6Quick(t *testing.T) {
	rep := runQuick(t, "fig6")
	if len(rep.Rows) != 4 {
		t.Fatalf("fig6 rows %d", len(rep.Rows))
	}
}

func TestFig3Quick(t *testing.T) {
	rep := runQuick(t, "fig3")
	if len(rep.Rows) != 3 {
		t.Fatalf("fig3 rows %d", len(rep.Rows))
	}
}

func TestTab1Quick(t *testing.T) {
	rep := runQuick(t, "tab1")
	if len(rep.Rows) != 2 {
		t.Fatalf("tab1 rows %d", len(rep.Rows))
	}
}

func TestFig8Quick(t *testing.T) {
	rep := runQuick(t, "fig8")
	if len(rep.Rows) != 3 {
		t.Fatalf("fig8 rows %d", len(rep.Rows))
	}
}

func TestClusterExpQuick(t *testing.T) {
	rep := runQuick(t, "cluster")
	if len(rep.Rows) != 3 {
		t.Fatalf("cluster rows %d", len(rep.Rows))
	}
}

func TestHeavyExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiments skipped in -short mode")
	}
	for _, id := range []string{"fig4", "fig5", "fig7"} {
		runQuick(t, id)
	}
}

func TestVeryHeavyExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("very heavy experiments skipped in -short mode")
	}
	for _, id := range []string{"tab2", "tab3", "fig9", "fig10", "fig11"} {
		runQuick(t, id)
	}
}
