package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// update re-blesses the quick-scale goldens:
//
//	go test ./internal/experiments -run TestQuickGoldens -update
var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current quick-scale reports")

// Quick-scale experiment sets, by cost: the light set also runs under
// -short, the heavy sets only in the full suite.
var (
	lightIDs     = []string{"abl", "async", "cluster", "div", "fig3", "fig6", "fig8", "tab1"}
	heavyIDs     = []string{"fig4", "fig5", "fig7"}
	veryHeavyIDs = []string{"tab2", "tab3", "fig9", "fig10", "fig11"}
)

// goldenText renders a report for pinning. fig6 times real solver and
// inference calls, so only its client-count column is deterministic.
func goldenText(rep *Report) string {
	if rep.ID == "fig6" {
		cut := &Report{ID: rep.ID, Title: rep.Title, Header: rep.Header[:1], Notes: rep.Notes}
		for _, row := range rep.Rows {
			cut.Rows = append(cut.Rows, row[:1])
		}
		rep = cut
	}
	var sb strings.Builder
	rep.Print(&sb)
	return sb.String()
}

// TestQuickGoldens pins every experiment's report at Scale 0.1 byte for
// byte, so a refactor of the training loop cannot move a paper artifact
// unnoticed. The goldens are blessed on amd64; Go fuses multiply-adds on
// some other architectures, whose last digits may then differ.
func TestQuickGoldens(t *testing.T) {
	ids := append([]string(nil), lightIDs...)
	if !testing.Short() {
		ids = append(append(ids, heavyIDs...), veryHeavyIDs...)
	}
	if got, want := len(lightIDs)+len(heavyIDs)+len(veryHeavyIDs), len(IDs()); got != want {
		t.Fatalf("quick sets cover %d experiments, registry has %d", got, want)
	}
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			got := goldenText(runQuick(t, id))
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Fatalf("%s report drifted from %s:\n--- got\n%s--- want\n%s", id, path, got, want)
			}
		})
	}
}

// TestQuickPaperShapes asserts the paper orderings the quick-scale reports
// must keep, independently of their exact digits.
func TestQuickPaperShapes(t *testing.T) {
	// Table I: FedMigr moves less client-server traffic than FedAvg.
	tab1 := runQuick(t, "tab1")
	if avg, migr := cell(t, tab1, "FedAvg", "C2S traffic"), cell(t, tab1, "FedMigr", "C2S traffic"); migr >= avg {
		t.Errorf("tab1: FedMigr C2S %.2fMB, want below FedAvg %.2fMB", migr, avg)
	}
	// Fig. 3: on LAN-correlated labels, migrating within a LAN trails
	// migrating across LANs.
	fig3 := runQuick(t, "fig3")
	if within, cross := cell(t, fig3, "within-LAN", "best acc"), cell(t, fig3, "cross-LAN", "best acc"); within >= cross {
		t.Errorf("fig3: within-LAN %.1f%%, want below cross-LAN %.1f%%", within, cross)
	}
	// Clustered federation beats the single global model.
	cl := runQuick(t, "cluster")
	if fedavg, clustered := cell(t, cl, "FedAvg (1 global model)", "accuracy"), cell(t, cl, "Clustered (k=3, routed)", "accuracy"); clustered <= fedavg {
		t.Errorf("cluster: clustered %.1f%%, want above FedAvg %.1f%%", clustered, fedavg)
	}
}

// cell parses the numeric prefix of the report cell in the row whose first
// column is row and the column headed col ("8.58MB" → 8.58, "37.1%" → 37.1).
func cell(t *testing.T, rep *Report, row, col string) float64 {
	t.Helper()
	ci := -1
	for i, h := range rep.Header {
		if h == col {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatalf("%s: no column %q in %v", rep.ID, col, rep.Header)
	}
	for _, r := range rep.Rows {
		if r[0] != row {
			continue
		}
		s := strings.TrimRight(r[ci], "%MBs*")
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("%s: %s/%s cell %q: %v", rep.ID, row, col, r[ci], err)
		}
		return v
	}
	t.Fatalf("%s: no row %q", rep.ID, row)
	return 0
}
