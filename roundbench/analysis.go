package main

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"time"

	"fedmigr/internal/core"
	"fedmigr/internal/fednet"
	"fedmigr/internal/telemetry"
)

// The program's phase spans (core.Trainer): they run one at a time on the
// trainer's goroutine, so together with the gaps between them they tile a
// round.
var phaseNames = []string{"distribution", "local_epoch", "migration_event", "aggregation"}

// attribution splits the traced rounds' wall time (nanoseconds) into the
// program's phase spans and the gaps between them.
//
//   - a gap that follows a local_epoch span and ends at the next
//     migration_event or aggregation is the per-event migration-state build
//     (core.state), minus the migration policy's Feedback and any
//     evaluation inside it;
//   - the part of a gap from a fleet round's start to its first span is the
//     fleet allocator (fleet.alloc);
//   - evaluation runs from the build of the evaluated model to its last
//     inference-mode layer call;
//   - what no phase, gap rule or wrapped call explains is unattributed.
type attribution struct {
	window   float64
	phase    map[string]float64
	state    float64
	alloc    float64
	eval     float64
	feedback float64
	other    float64
}

func (a attribution) unattributedFrac() float64 {
	if a.window <= 0 {
		return 0
	}
	return a.other / a.window
}

// evalIntervals returns one interval per evaluation: a run of
// inference-mode layer calls that follow each other within a millisecond,
// extended back to the model build that starts it (the trainer builds the
// averaged model it evaluates, then runs it forward).
func evalIntervals(calls []layerCall, builds []int64) []interval {
	var evals []interval
	for _, c := range calls {
		if !c.train {
			evals = append(evals, c.interval)
		}
	}
	sort.Slice(evals, func(i, j int) bool { return evals[i].start < evals[j].start })
	var out []interval
	const join = int64(time.Millisecond)
	for _, e := range evals {
		if n := len(out); n > 0 && e.start <= out[n-1].end()+join {
			if e.end() > out[n-1].end() {
				out[n-1].dur = e.end() - out[n-1].start
			}
			continue
		}
		out = append(out, e)
	}
	bs := append([]int64(nil), builds...)
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i, e := range out {
		lo := int64(math.MinInt64)
		if i > 0 {
			lo = out[i-1].end()
		}
		// The latest build before this evaluation and after the previous one.
		j := sort.Search(len(bs), func(k int) bool { return bs[k] > e.start }) - 1
		if j >= 0 && bs[j] > lo {
			out[i] = interval{start: bs[j], dur: e.end() - bs[j]}
		}
	}
	return out
}

// overlap sums how much of [a, b) the intervals cover.
func overlap(ivs []interval, a, b int64) float64 {
	var s int64
	for _, iv := range ivs {
		lo, hi := max(iv.start, a), min(iv.end(), b)
		if hi > lo {
			s += hi - lo
		}
	}
	return float64(s)
}

// attribute builds the attribution of rounds from the spans and wrapped
// calls of one traced pass. fleetRounds marks rounds that start with an
// allocation step before their first span.
func attribute(rounds []interval, spans []telemetry.Record, calls []layerCall, builds []int64, feedbacks []interval, fleetRounds bool) attribution {
	a := attribution{phase: map[string]float64{}}
	if len(rounds) == 0 {
		return a
	}
	w0, w1 := rounds[0].start, rounds[len(rounds)-1].end()
	a.window = float64(w1 - w0)
	isPhase := map[string]bool{}
	for _, n := range phaseNames {
		isPhase[n] = true
	}
	var ph []telemetry.Record
	for _, s := range spans {
		if isPhase[s.Name] && s.TimeUnixNano >= w0 && s.TimeUnixNano < w1 {
			ph = append(ph, s)
		}
	}
	sort.Slice(ph, func(i, j int) bool { return ph[i].TimeUnixNano < ph[j].TimeUnixNano })
	evals := evalIntervals(calls, builds)
	var fb []interval
	for _, f := range feedbacks {
		if f.start >= w0 && f.start < w1 {
			fb = append(fb, f)
		}
	}

	gap := func(lo, hi int64, prev string) {
		if hi <= lo {
			return
		}
		if fleetRounds {
			for _, r := range rounds {
				if r.start > lo && r.start < hi {
					a.alloc += float64(hi - r.start)
					hi = r.start
					break
				}
			}
		}
		e, f := overlap(evals, lo, hi), overlap(fb, lo, hi)
		a.eval += e
		a.feedback += f
		rest := float64(hi-lo) - e - f
		if prev == "local_epoch" {
			a.state += rest
		} else {
			a.other += rest
		}
	}
	cursor, prev := w0, ""
	for _, s := range ph {
		gap(cursor, s.TimeUnixNano, prev)
		end := min(s.TimeUnixNano+s.DurationNS, w1)
		if end > cursor {
			a.phase[s.Name] += float64(end - max(cursor, s.TimeUnixNano))
			cursor = end
		}
		prev = s.Name
	}
	gap(cursor, w1, prev)
	return a
}

// layerTotals sums one traced pass's wrapped layer calls inside [w0, w1).
type layerTotals struct {
	convFwd, convBwd, denseFwd, denseBwd, relu, pool, other, eval float64 // ns
	calls                                                         int
	flops, colBytes                                               float64
	rows                                                          int64
}

func sumLayers(calls []layerCall, w0, w1 int64) layerTotals {
	var t layerTotals
	for _, c := range calls {
		if c.start < w0 || c.start >= w1 {
			continue
		}
		t.calls++
		t.flops += c.flops
		t.colBytes += c.colBytes
		t.rows += int64(c.rows)
		d := float64(c.dur)
		if !c.train {
			t.eval += d
			continue
		}
		switch {
		case c.kind == kindConv && c.backward:
			t.convBwd += d
		case c.kind == kindConv:
			t.convFwd += d
		case c.kind == kindDense && c.backward:
			t.denseBwd += d
		case c.kind == kindDense:
			t.denseFwd += d
		case c.kind == kindReLU:
			t.relu += d
		case c.kind == kindPool:
			t.pool += d
		default:
			t.other += d
		}
	}
	return t
}

func (t layerTotals) train() float64 {
	return t.convFwd + t.convBwd + t.denseFwd + t.denseBwd + t.relu + t.pool + t.other
}

// histSum adds the sums of every histogram whose key starts with name and
// carries all the given label fragments.
func histSum(s telemetry.Snapshot, name string, frags ...string) float64 {
	var v float64
	for k, h := range s.Histograms {
		if keyMatch(k, name, frags) {
			v += h.Sum
		}
	}
	return v
}

// counterSum adds every counter whose key starts with name and carries all
// the given label fragments.
func counterSum(s telemetry.Snapshot, name string, frags ...string) float64 {
	var v float64
	for k, c := range s.Counters {
		if keyMatch(k, name, frags) {
			v += float64(c)
		}
	}
	return v
}

func keyMatch(key, name string, frags []string) bool {
	if key != name && !strings.HasPrefix(key, name+"{") {
		return false
	}
	for _, f := range frags {
		if !strings.Contains(key, f) {
			return false
		}
	}
	return true
}

// codecTimes times fednet's frame codec and the parameter marshaller on a
// model-sized GlobalModel frame, in microseconds (medians of reps).
func codecTimes(factory core.ModelFactory, reps int) (enc, dec, marshal float64, err error) {
	m := factory()
	params, err := m.MarshalParams()
	if err != nil {
		return 0, 0, 0, err
	}
	msg := &fednet.Message{Type: fednet.MsgGlobalModel, Round: 1, Params: params}
	var es, ds, ms []float64
	var buf bytes.Buffer
	for i := 0; i < reps; i++ {
		buf.Reset()
		t0 := time.Now()
		if err := fednet.WriteMessage(&buf, msg); err != nil {
			return 0, 0, 0, err
		}
		es = append(es, float64(time.Since(t0).Nanoseconds())/1e3)
		t0 = time.Now()
		if _, err := fednet.ReadMessage(&buf); err != nil {
			return 0, 0, 0, err
		}
		ds = append(ds, float64(time.Since(t0).Nanoseconds())/1e3)
		t0 = time.Now()
		b, err := m.MarshalParams()
		if err == nil {
			err = m.UnmarshalParams(b)
		}
		if err != nil {
			return 0, 0, 0, err
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return medianOf(es), medianOf(ds), medianOf(ms), nil
}
