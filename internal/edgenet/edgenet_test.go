package edgenet

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGroupedTopology(t *testing.T) {
	top := GroupedTopology([][]int{{0, 1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	if top.K() != 10 || top.NumLANs() != 3 {
		t.Fatalf("K=%d LANs=%d", top.K(), top.NumLANs())
	}
	if !top.SameLAN(0, 3) || top.SameLAN(3, 4) {
		t.Fatal("LAN membership wrong")
	}
	if top.Kind(0, 1) != IntraLAN || top.Kind(0, 9) != CrossLAN {
		t.Fatal("Kind wrong")
	}
}

func TestGroupedTopologyPanicsOnOverlap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicated client")
		}
	}()
	GroupedTopology([][]int{{0, 1}, {1, 2}})
}

func TestGroupedTopologyPanicsOnGap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unassigned client")
		}
	}()
	GroupedTopology([][]int{{0, 2}})
}

func TestEvenTopology(t *testing.T) {
	top := EvenTopology(20, 5)
	if top.K() != 20 || top.NumLANs() != 5 {
		t.Fatalf("K=%d LANs=%d", top.K(), top.NumLANs())
	}
	counts := make(map[int]int)
	for _, l := range top.LANOf {
		counts[l]++
	}
	for lan, n := range counts {
		if n != 4 {
			t.Fatalf("LAN %d has %d clients", lan, n)
		}
	}
}

func TestLinkKindString(t *testing.T) {
	if IntraLAN.String() != "intra-LAN" || CrossLAN.String() != "cross-LAN" || C2S.String() != "C2S" {
		t.Fatal("String names wrong")
	}
}

func TestTransferTimeOrdering(t *testing.T) {
	cm := DefaultCostModel()
	const mb = int64(1 << 20)
	intra := cm.TransferTime(0, 1, IntraLAN, mb)
	cross := cm.TransferTime(0, 5, CrossLAN, mb)
	c2s := cm.TransferTime(0, 0, C2S, mb)
	if !(intra < c2s && intra < cross) {
		t.Fatalf("intra-LAN must be cheapest: intra=%v cross=%v c2s=%v", intra, cross, c2s)
	}
}

func TestTransferTimeFormula(t *testing.T) {
	cm := &CostModel{C2SBandwidth: 1000, C2SLatency: 0.5, DefaultComputeRate: 1}
	got := cm.TransferTime(0, 0, C2S, 2000)
	if math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("got %v want 2.5", got)
	}
}

func TestC2COverride(t *testing.T) {
	cm := DefaultCostModel()
	cm.C2COverride = map[[2]int]float64{PairKey(3, 1): 42}
	if cm.Bandwidth(1, 3, CrossLAN) != 42 || cm.Bandwidth(3, 1, IntraLAN) != 42 {
		t.Fatal("override must apply symmetrically to C2C kinds")
	}
	if cm.Bandwidth(1, 3, C2S) == 42 {
		t.Fatal("override must not affect C2S")
	}
	if cm.Bandwidth(1, 2, CrossLAN) != cm.CrossLANBandwidth {
		t.Fatal("non-overridden pair changed")
	}
}

func TestJitterBounded(t *testing.T) {
	cm := DefaultCostModel()
	cm.Jitter = 0.3
	cm.Seed(1)
	base := float64(1<<20)/cm.C2SBandwidth + cm.C2SLatency
	for i := 0; i < 200; i++ {
		tt := cm.TransferTime(0, 0, C2S, 1<<20)
		lo := float64(1<<20)/(cm.C2SBandwidth*1.3) + cm.C2SLatency
		hi := float64(1<<20)/(cm.C2SBandwidth*0.7) + cm.C2SLatency
		if tt < lo-1e-9 || tt > hi+1e-9 {
			t.Fatalf("jittered time %v outside [%v,%v] (base %v)", tt, lo, hi, base)
		}
	}
}

func TestComputeTimeHeterogeneous(t *testing.T) {
	cm := DefaultCostModel()
	cm.ComputeRate = []float64{1000, 4000}
	if cm.ComputeTime(0, 2000) != 2.0 {
		t.Fatalf("client 0 time %v", cm.ComputeTime(0, 2000))
	}
	if cm.ComputeTime(1, 2000) != 0.5 {
		t.Fatalf("client 1 time %v", cm.ComputeTime(1, 2000))
	}
	// Fallback to default for out-of-range client.
	if cm.ComputeTime(5, 2000) != 1.0 {
		t.Fatalf("fallback time %v", cm.ComputeTime(5, 2000))
	}
}

func TestPairKeyCanonical(t *testing.T) {
	f := func(i, j uint8) bool { return PairKey(int(i), int(j)) == PairKey(int(j), int(i)) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAccountantTrafficSplit(t *testing.T) {
	a := NewAccountant()
	a.RecordTransfer(0, 1, IntraLAN, 100)
	a.RecordTransfer(0, 5, CrossLAN, 200)
	a.RecordTransfer(0, 0, C2S, 400)
	if a.TotalTraffic() != 700 {
		t.Fatalf("total %d", a.TotalTraffic())
	}
	if a.GlobalTraffic() != 600 {
		t.Fatalf("global %d", a.GlobalTraffic())
	}
	if a.LocalTraffic() != 100 {
		t.Fatalf("local %d", a.LocalTraffic())
	}
	if a.Transfers() != 3 {
		t.Fatalf("transfers %d", a.Transfers())
	}
}

func TestAccountantLinkUse(t *testing.T) {
	a := NewAccountant()
	a.RecordTransfer(2, 7, CrossLAN, 10)
	a.RecordTransfer(7, 2, IntraLAN, 10)
	a.RecordTransfer(1, 3, IntraLAN, 10)
	a.RecordTransfer(0, 0, C2S, 10) // C2S must not count as a C2C link
	if a.LinkUse(2, 7) != 2 || a.LinkUse(7, 2) != 2 {
		t.Fatalf("link use %d", a.LinkUse(2, 7))
	}
	usage := a.LinkUsage()
	if len(usage) != 2 || usage[0].Count != 2 || usage[0].I != 2 || usage[0].J != 7 {
		t.Fatalf("usage %+v", usage)
	}
}

func TestAccountantTimes(t *testing.T) {
	a := NewAccountant()
	a.AddWallTime(1.5)
	a.AddWallTime(0.5)
	a.AddComputeTime(3)
	if a.WallSeconds() != 2 || a.ComputeSeconds() != 3 {
		t.Fatalf("wall=%v compute=%v", a.WallSeconds(), a.ComputeSeconds())
	}
	s := a.Snapshot()
	if s.WallSeconds != 2 || s.ComputeSecs != 3 {
		t.Fatalf("snapshot %+v", s)
	}
}

// TestAccountantRestore: an accountant seeded with another's snapshot
// reports the same totals, and keeps agreeing with it as both record more.
func TestAccountantRestore(t *testing.T) {
	a := NewAccountant()
	a.RecordTransfer(0, 1, IntraLAN, 100)
	a.RecordTransfer(0, 5, CrossLAN, 200)
	a.RecordTransfer(0, 0, C2S, 400)
	a.AddWallTime(1.5)
	a.AddComputeTime(3)
	b := NewAccountant()
	b.Restore(a.Snapshot())
	for _, acct := range []*Accountant{a, b} {
		acct.RecordTransfer(2, 3, CrossLAN, 50)
		acct.AddWallTime(0.25)
	}
	if a.Snapshot() != b.Snapshot() {
		t.Fatalf("restored accountant %+v, original %+v", b.Snapshot(), a.Snapshot())
	}
	if b.Traffic(CrossLAN) != 250 || b.Traffic(C2S) != 400 || b.Traffic(IntraLAN) != 100 {
		t.Fatalf("restored per-kind traffic %d/%d/%d", b.Traffic(IntraLAN), b.Traffic(CrossLAN), b.Traffic(C2S))
	}
}

func TestAccountantPanicsOnNegative(t *testing.T) {
	a := NewAccountant()
	for name, fn := range map[string]func(){
		"transfer": func() { a.RecordTransfer(0, 1, IntraLAN, -1) },
		"wall":     func() { a.AddWallTime(-1) },
		"compute":  func() { a.AddComputeTime(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestAccountantString(t *testing.T) {
	a := NewAccountant()
	a.RecordTransfer(0, 1, IntraLAN, 1<<20)
	if a.String() == "" {
		t.Fatal("empty string")
	}
}

// Property: transfer time is monotone in bytes.
func TestTransferTimeMonotone(t *testing.T) {
	cm := DefaultCostModel()
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return cm.TransferTime(0, 1, C2S, x) <= cm.TransferTime(0, 1, C2S, y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthTraceValidation(t *testing.T) {
	if _, err := NewBandwidthTrace(nil); err == nil {
		t.Fatal("empty trace must fail")
	}
	if _, err := NewBandwidthTrace([]float64{1, 0}); err == nil {
		t.Fatal("non-positive factor must fail")
	}
	if _, err := NewBandwidthTrace([]float64{0.5, 2}); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthTraceCyclesAndApplies(t *testing.T) {
	cm := &CostModel{C2SBandwidth: 1000, DefaultComputeRate: 1}
	tr, err := NewBandwidthTrace([]float64{1, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cm.SetTrace(C2S, tr)
	// Step 1: factor 1 → 1000 B/s → 1s for 1000 B.
	if got := cm.TransferTime(0, 0, C2S, 1000); got != 1 {
		t.Fatalf("step 1 time %v", got)
	}
	// Step 2: factor 0.5 → 500 B/s → 2s.
	if got := cm.TransferTime(0, 0, C2S, 1000); got != 2 {
		t.Fatalf("step 2 time %v", got)
	}
	// Step 3 cycles back to factor 1.
	if got := cm.TransferTime(0, 0, C2S, 1000); got != 1 {
		t.Fatalf("step 3 time %v", got)
	}
	if tr.Step() != 3 {
		t.Fatalf("trace advanced %d steps", tr.Step())
	}
	// Other kinds unaffected.
	cm.IntraLANBandwidth = 1000
	if got := cm.TransferTime(0, 1, IntraLAN, 1000); got != 1 {
		t.Fatalf("untraced kind time %v", got)
	}
}

func TestBandwidthTraceRemoval(t *testing.T) {
	cm := &CostModel{C2SBandwidth: 1000}
	tr, _ := NewBandwidthTrace([]float64{0.1})
	cm.SetTrace(C2S, tr)
	cm.SetTrace(C2S, nil)
	if got := cm.TransferTime(0, 0, C2S, 1000); got != 1 {
		t.Fatalf("removed trace still applied: %v", got)
	}
}
