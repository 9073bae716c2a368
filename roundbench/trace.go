package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"time"

	"fedmigr/internal/core"
	"fedmigr/internal/nn"
	"fedmigr/internal/telemetry"
	"fedmigr/internal/tensor"
)

// layerKind groups wrapped layers into the per-layer metric families.
type layerKind uint8

const (
	kindConv layerKind = iota
	kindDense
	kindReLU
	kindPool
	kindOther
)

// interval is one timed call the benchmark made around a program API:
// start in Unix nanoseconds (the clock telemetry spans use) and duration.
type interval struct {
	start, dur int64
}

func (iv interval) end() int64 { return iv.start + iv.dur }

// layerCall is one wrapped nn.Layer Forward or Backward.
type layerCall struct {
	interval
	kind     layerKind
	train    bool // Forward with train=true, or any Backward
	backward bool
	flops    float64
	colBytes float64 // im2col / col2im buffer bytes the call materialised
	rows     int     // training samples entering the model (first layer, forward)
}

// recorder collects everything the benchmark measures from outside the
// program during one pass: wrapped layer calls, wrapped migrator calls and
// the program's own telemetry spans, streamed into memory.
type recorder struct {
	mu        sync.Mutex
	layers    []layerCall
	plans     []interval
	feedbacks []interval
	builds    []int64 // start of every model the wrapped factory built
	sink      bytes.Buffer
	tel       *telemetry.Telemetry
}

// newRecorder returns a recorder whose telemetry streams every span and
// event into memory; the records are decoded once the pass ends.
func newRecorder() *recorder {
	r := &recorder{tel: telemetry.New()}
	r.tel.SetSink(r)
	return r
}

// Write implements io.Writer for the telemetry sink. Several tracers (a
// fednet server and its clients) may share one recorder.
func (r *recorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sink.Write(p)
}

// spans decodes the streamed telemetry records of type "span".
func (r *recorder) spans() ([]telemetry.Record, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []telemetry.Record
	sc := bufio.NewScanner(bytes.NewReader(r.sink.Bytes()))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		var rec telemetry.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, err
		}
		if rec.Type == "span" {
			out = append(out, rec)
		}
	}
	return out, sc.Err()
}

// rawSpans returns the streamed JSONL exactly as the program wrote it.
func (r *recorder) rawSpans() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.sink.Bytes()...)
}

func (r *recorder) addLayer(c layerCall) {
	r.mu.Lock()
	r.layers = append(r.layers, c)
	r.mu.Unlock()
}

func (r *recorder) addBuild(t int64) {
	r.mu.Lock()
	r.builds = append(r.builds, t)
	r.mu.Unlock()
}

func (r *recorder) addPlan(iv interval) {
	r.mu.Lock()
	r.plans = append(r.plans, iv)
	r.mu.Unlock()
}

func (r *recorder) addFeedback(iv interval) {
	r.mu.Lock()
	r.feedbacks = append(r.feedbacks, iv)
	r.mu.Unlock()
}

// planStarts returns the start of every recorded Plan call, in order.
func (r *recorder) planStarts() []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int64, len(r.plans))
	for i, p := range r.plans {
		out[i] = p.start
	}
	return out
}

// wrapFactory returns a factory whose models have every layer wrapped in a
// timedLayer reporting to r. The wrapped model computes exactly what the
// unwrapped one does: each wrapper forwards the call unchanged.
func wrapFactory(f core.ModelFactory, r *recorder) core.ModelFactory {
	return func() *nn.Sequential {
		r.addBuild(time.Now().UnixNano())
		m := f()
		for i, l := range m.Layers {
			m.Layers[i] = &timedLayer{Layer: l, kind: kindOf(l), first: i == 0, rec: r}
		}
		return m
	}
}

func kindOf(l nn.Layer) layerKind {
	switch l.(type) {
	case *nn.Conv2D:
		return kindConv
	case *nn.Dense:
		return kindDense
	case *nn.ReLU:
		return kindReLU
	case *nn.MaxPool2D:
		return kindPool
	default:
		return kindOther
	}
}

// timedLayer times one layer's Forward and Backward calls and computes
// their floating-point work from the shapes it sees. A model instance is
// driven by one goroutine at a time, so the per-instance fields need no
// lock.
type timedLayer struct {
	nn.Layer
	kind  layerKind
	first bool
	rec   *recorder

	fwdFlops, fwdCols float64 // of the last training Forward, for Backward
}

// Forward implements nn.Layer.
func (l *timedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	t0 := time.Now()
	y := l.Layer.Forward(x, train)
	d := time.Since(t0)
	flops, cols := l.cost(x, y)
	if train {
		l.fwdFlops, l.fwdCols = flops, cols
	}
	c := layerCall{
		interval: interval{start: t0.UnixNano(), dur: d.Nanoseconds()},
		kind:     l.kind, train: train, flops: flops, colBytes: cols,
	}
	if l.first && train {
		c.rows = x.Dim(0)
	}
	l.rec.addLayer(c)
	return y
}

// Backward implements nn.Layer. The backward pass of Dense and Conv2D
// costs two GEMMs of the forward's size (input and weight gradients);
// Conv2D also materialises a column-gradient buffer of the forward
// column buffer's size.
func (l *timedLayer) Backward(grad *tensor.Tensor) *tensor.Tensor {
	t0 := time.Now()
	dx := l.Layer.Backward(grad)
	d := time.Since(t0)
	l.rec.addLayer(layerCall{
		interval: interval{start: t0.UnixNano(), dur: d.Nanoseconds()},
		kind:     l.kind, train: true, backward: true,
		flops: 2 * l.fwdFlops, colBytes: l.fwdCols,
	})
	return dx
}

// cost returns the forward call's flops and column-buffer bytes.
func (l *timedLayer) cost(x, y *tensor.Tensor) (flops, cols float64) {
	switch v := l.Layer.(type) {
	case *nn.Dense:
		return 2 * float64(x.Dim(0)) * float64(v.W.Size()), 0
	case *nn.Conv2D:
		// y is (N, F, OH, OW); every output element is a dot product over
		// one kernel's C·KH·KW weights, read from one im2col row.
		f := float64(y.Dim(1))
		positions := float64(y.Dim(0) * y.Dim(2) * y.Dim(3))
		kernel := float64(v.K.Size()) / f
		return 2 * positions * f * kernel, 8 * positions * kernel
	default:
		return 0, 0
	}
}

// timedMigrator times a core.Migrator's Plan and Feedback calls. The
// wrapped policy sees exactly the calls it would see unwrapped.
type timedMigrator struct {
	core.Migrator
	rec *recorder
}

// Plan implements core.Migrator.
func (m *timedMigrator) Plan(s *core.State) []int {
	t0 := time.Now()
	d := m.Migrator.Plan(s)
	m.rec.addPlan(interval{start: t0.UnixNano(), dur: time.Since(t0).Nanoseconds()})
	return d
}

// Feedback implements core.Migrator.
func (m *timedMigrator) Feedback(prev *core.State, action []int, next *core.State, done, success bool) {
	t0 := time.Now()
	m.Migrator.Feedback(prev, action, next, done, success)
	m.rec.addFeedback(interval{start: t0.UnixNano(), dur: time.Since(t0).Nanoseconds()})
}
