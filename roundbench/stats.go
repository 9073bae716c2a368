package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// timing summarises one set of per-operation durations: the median, the
// tail (see tailOf) and how many samples both rest on.
type timing struct {
	P50        float64 `json:"p50"`
	Tail       float64 `json:"tail"`
	TailPct    float64 `json:"tail_pct"`
	TailBeyond int     `json:"tail_beyond"`
	N          int     `json:"n"`
}

// tailBeyond is how many samples must lie above a percentile before the
// benchmark reports it: fewer and the value is one or two outliers.
const tailBeyond = 10

// summarize returns the timing of xs (xs is not modified).
func summarize(xs []float64) timing {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	t := timing{P50: median(s), N: len(s)}
	t.Tail, t.TailPct, t.TailBeyond = tailOf(s)
	return t
}

// tailOf applies the tail rule to sorted samples: the highest percentile
// that still has at least tailBeyond samples above it. With n samples that
// is the order statistic s[n-tailBeyond-1], at percentile
// 100·(n-tailBeyond)/n. Below 2·tailBeyond samples that percentile would
// fall under the median, so the median is returned with the (fewer than
// tailBeyond) samples above it, and the record shows the tail is
// unresolved; with no sample above the median either, the maximum is
// returned at percentile 100.
func tailOf(s []float64) (value, pct float64, beyond int) {
	n := len(s)
	switch {
	case n == 0:
		return 0, 0, 0
	case n >= 2*tailBeyond:
		return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n), tailBeyond
	case n/2 > 0:
		return median(s), 50, n / 2
	default:
		return s[n-1], 100, 0
	}
}

// median of sorted samples (0 for none).
func median(s []float64) float64 {
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// medianOf is median for unsorted input.
func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

// metricSpec declares one reported metric. The end-to-end list is what a
// run with tracing off prints, the per-layer list what a traced run
// prints; BENCHMARK.json at the repository root mirrors both.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkSpecs enforces the metric-name grammar: names start with a letter
// or digit, use only letters, digits, '_', '.', '-', are at most 64 long
// and unique; units are at most 16 of letters, digits, '_', '/', '%',
// '.', '-'; better is "higher" or "lower"; a bound lies in (0, 0.25].
func checkSpecs(specs []metricSpec, bounded bool) error {
	seen := map[string]bool{}
	for _, m := range specs {
		if !nameRE.MatchString(m.Name) {
			return fmt.Errorf("metric name %q breaks the name grammar", m.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("metric name %q used twice", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("metric %s: unit %q breaks the unit grammar", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			return fmt.Errorf("metric %s: better must be higher or lower, not %q", m.Name, m.Better)
		}
		if bounded && (m.Bound <= 0 || m.Bound > 0.25 || math.IsNaN(m.Bound)) {
			return fmt.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if !bounded && m.Bound != 0 {
			return fmt.Errorf("metric %s: per-layer metrics carry no bound", m.Name)
		}
	}
	return nil
}
