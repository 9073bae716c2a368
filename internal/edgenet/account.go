package edgenet

import (
	"fmt"
	"sort"

	"fedmigr/internal/telemetry"
)

// Accountant accumulates the resource consumption of a federated-training
// run: traffic split by link kind (the paper's "bandwidth consumption for
// global communication" is the C2S + cross-LAN share), wall-clock time,
// and per-link usage counts (Fig. 8).
type Accountant struct {
	trafficByKind map[LinkKind]int64
	linkUse       map[[2]int]int
	wallSeconds   float64
	computeSecs   float64
	transfers     int

	// Mirror metrics (nil — and free — until Mirror installs a registry).
	telBytes     [3]*telemetry.Counter
	telTransfers *telemetry.Counter
	telWall      *telemetry.Gauge
	telCompute   *telemetry.Gauge
}

// NewAccountant returns an empty accountant.
func NewAccountant() *Accountant {
	return &Accountant{
		trafficByKind: make(map[LinkKind]int64),
		linkUse:       make(map[[2]int]int),
	}
}

// Mirror additionally feeds every subsequent recording into reg, so the
// simulated accountant and live telemetry share one metric namespace:
// edgenet_bytes_total{kind=…}, edgenet_transfers_total, and the
// edgenet_wall_seconds / edgenet_compute_seconds cumulative gauges. A nil
// reg detaches the mirror.
func (a *Accountant) Mirror(reg *telemetry.Registry) {
	if reg == nil {
		a.telBytes = [3]*telemetry.Counter{}
		a.telTransfers, a.telWall, a.telCompute = nil, nil, nil
		return
	}
	for _, kind := range []LinkKind{IntraLAN, CrossLAN, C2S} {
		a.telBytes[kind] = reg.Counter("edgenet_bytes_total", "kind", kind.String())
	}
	a.telTransfers = reg.Counter("edgenet_transfers_total")
	a.telWall = reg.Gauge("edgenet_wall_seconds")
	a.telCompute = reg.Gauge("edgenet_compute_seconds")
}

// RecordTransfer logs a completed transfer of `bytes` between i and j over
// the given kind. It does not advance wall time — synchronous rounds add
// the max over parallel transfers via AddWallTime.
func (a *Accountant) RecordTransfer(i, j int, kind LinkKind, bytes int64) {
	if bytes < 0 {
		panic("edgenet: negative transfer size")
	}
	a.trafficByKind[kind] += bytes
	a.transfers++
	if kind != C2S {
		a.linkUse[PairKey(i, j)]++
	}
	a.telBytes[kind].Add(bytes)
	a.telTransfers.Inc()
}

// AddWallTime advances the simulated wall clock by sec.
func (a *Accountant) AddWallTime(sec float64) {
	if sec < 0 {
		panic("edgenet: negative wall time")
	}
	a.wallSeconds += sec
	a.telWall.Set(a.wallSeconds)
}

// AddComputeTime logs (possibly overlapping) device compute seconds,
// tracked separately from wall time.
func (a *Accountant) AddComputeTime(sec float64) {
	if sec < 0 {
		panic("edgenet: negative compute time")
	}
	a.computeSecs += sec
	a.telCompute.Set(a.computeSecs)
}

// Traffic returns the cumulative bytes moved over the given kind.
func (a *Accountant) Traffic(kind LinkKind) int64 { return a.trafficByKind[kind] }

// TotalTraffic returns the cumulative bytes over all link kinds. The sum
// runs over the fixed kind enumeration, not the map, so callers in
// deterministic zones (core's traffic-aware policies) see an
// iteration-order-free value.
func (a *Accountant) TotalTraffic() int64 {
	var t int64
	for _, k := range []LinkKind{IntraLAN, CrossLAN, C2S} {
		t += a.trafficByKind[k]
	}
	return t
}

// GlobalTraffic returns the bytes that crossed LAN boundaries — C2S plus
// cross-LAN relays — the quantity FedMigr aims to reduce.
func (a *Accountant) GlobalTraffic() int64 {
	return a.trafficByKind[C2S] + a.trafficByKind[CrossLAN]
}

// LocalTraffic returns the intra-LAN bytes.
func (a *Accountant) LocalTraffic() int64 { return a.trafficByKind[IntraLAN] }

// WallSeconds returns the simulated completion time so far.
func (a *Accountant) WallSeconds() float64 { return a.wallSeconds }

// ComputeSeconds returns the cumulative device compute time.
func (a *Accountant) ComputeSeconds() float64 { return a.computeSecs }

// Transfers returns the number of recorded transfers.
func (a *Accountant) Transfers() int { return a.transfers }

// LinkUse returns how many C2C transfers used the unordered pair (i, j).
func (a *Accountant) LinkUse(i, j int) int { return a.linkUse[PairKey(i, j)] }

// LinkUsage returns all used C2C pairs with counts, sorted by count
// descending then pair — the data series of Fig. 8.
func (a *Accountant) LinkUsage() []LinkCount {
	out := make([]LinkCount, 0, len(a.linkUse))
	for k, n := range a.linkUse {
		out = append(out, LinkCount{I: k[0], J: k[1], Count: n})
	}
	sort.Slice(out, func(x, y int) bool {
		if out[x].Count != out[y].Count {
			return out[x].Count > out[y].Count
		}
		if out[x].I != out[y].I {
			return out[x].I < out[y].I
		}
		return out[x].J < out[y].J
	})
	return out
}

// LinkCount is one C2C pair's usage tally.
type LinkCount struct {
	I, J  int
	Count int
}

// Snapshot is a copyable view of an accountant's totals.
type Snapshot struct {
	TotalBytes   int64
	GlobalBytes  int64
	LocalBytes   int64
	C2SBytes     int64
	WallSeconds  float64
	ComputeSecs  float64
	NumTransfers int
}

// Snapshot captures current totals.
func (a *Accountant) Snapshot() Snapshot {
	return Snapshot{
		TotalBytes:   a.TotalTraffic(),
		GlobalBytes:  a.GlobalTraffic(),
		LocalBytes:   a.LocalTraffic(),
		C2SBytes:     a.trafficByKind[C2S],
		WallSeconds:  a.wallSeconds,
		ComputeSecs:  a.computeSecs,
		NumTransfers: a.transfers,
	}
}

// Restore seeds a fresh accountant with a checkpoint's totals, so a resumed
// run keeps charging the same ledger: C2S, intra-LAN and cross-LAN
// (GlobalBytes minus C2SBytes) traffic, wall and compute time and the
// transfer count. Per-pair link use is not part of a Snapshot and restarts
// from zero.
func (a *Accountant) Restore(s Snapshot) {
	for kind, bytes := range [3]int64{
		IntraLAN: s.LocalBytes, CrossLAN: s.GlobalBytes - s.C2SBytes, C2S: s.C2SBytes,
	} {
		a.trafficByKind[LinkKind(kind)] = bytes
		a.telBytes[kind].Add(bytes)
	}
	a.wallSeconds, a.computeSecs, a.transfers = s.WallSeconds, s.ComputeSecs, s.NumTransfers
	a.telTransfers.Add(int64(s.NumTransfers))
	a.telWall.Set(s.WallSeconds)
	a.telCompute.Set(s.ComputeSecs)
}

// String summarizes the accountant.
func (a *Accountant) String() string {
	return fmt.Sprintf("traffic: total=%.2fMB global=%.2fMB local=%.2fMB, wall=%.1fs, compute=%.1fs, transfers=%d",
		float64(a.TotalTraffic())/1e6, float64(a.GlobalTraffic())/1e6,
		float64(a.LocalTraffic())/1e6, a.wallSeconds, a.computeSecs, a.transfers)
}
