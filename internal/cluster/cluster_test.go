package cluster

import (
	"testing"
	"time"

	"vmplants/internal/sim"
)

func TestTestbedShape(t *testing.T) {
	k := sim.NewKernel()
	tb := NewTestbed(k, 8, DefaultParams(), 1)
	if len(tb.Nodes) != 8 {
		t.Fatalf("%d nodes", len(tb.Nodes))
	}
	names := map[string]bool{}
	for _, n := range tb.Nodes {
		if names[n.Name()] {
			t.Errorf("duplicate node name %s", n.Name())
		}
		names[n.Name()] = true
		if n.FreeMB() != DefaultParams().NodeRAMMB {
			t.Errorf("node %s free = %d", n.Name(), n.FreeMB())
		}
	}
}

func TestWarehouseVisibleFromEveryNode(t *testing.T) {
	k := sim.NewKernel()
	tb := NewTestbed(k, 3, DefaultParams(), 1)
	tb.Warehouse.WriteMeta("golden/disk.vmdk", 2<<30)
	for _, n := range tb.Nodes {
		if !n.Warehouse().Exists("golden/disk.vmdk") {
			t.Errorf("node %s cannot see warehouse file", n.Name())
		}
	}
}

func TestNFSCopySpeedMatchesPaper(t *testing.T) {
	// The paper's 2 GB golden disk takes ≈210 s to copy in full.
	k := sim.NewKernel()
	tb := NewTestbed(k, 1, DefaultParams(), 1)
	tb.Warehouse.WriteMeta("disk", 2<<30)
	node := tb.Nodes[0]
	var took time.Duration
	k.Spawn("copy", func(p *sim.Proc) {
		start := p.Now()
		if _, err := node.Warehouse().CopyTo(p, "disk", node.LocalDisk(), "disk", 1, sim.Foreground); err != nil {
			t.Error(err)
		}
		took = p.Now() - start
	})
	k.Run(0)
	secs := took.Seconds()
	if secs < 180 || secs > 230 {
		t.Errorf("2 GB NFS copy took %.1fs, want ≈195-215s", secs)
	}
}

func TestCommitReleaseAccounting(t *testing.T) {
	k := sim.NewKernel()
	tb := NewTestbed(k, 1, DefaultParams(), 1)
	n := tb.Nodes[0]
	n.Commit(256)
	if n.VMs() != 1 || n.CommittedMB() != 256+DefaultParams().VMMOverheadMB {
		t.Errorf("after commit: vms=%d committed=%d", n.VMs(), n.CommittedMB())
	}
	if err := n.Release(256); err != nil {
		t.Fatal(err)
	}
	if n.VMs() != 0 || n.CommittedMB() != 0 {
		t.Errorf("after release: vms=%d committed=%d", n.VMs(), n.CommittedMB())
	}
	if err := n.Release(256); err == nil {
		t.Error("release with no VMs accepted")
	}
}

func TestPressureScaleKicksInPastThreshold(t *testing.T) {
	k := sim.NewKernel()
	p := DefaultParams()
	tb := NewTestbed(k, 1, p, 1)
	n := tb.Nodes[0]
	if got := n.PressureScale(0); got != 1 {
		t.Errorf("idle scale = %v", got)
	}
	// Commit up to just under the threshold: still no pressure.
	for n.CommittedMB()+64+p.VMMOverheadMB <= p.PressureThresholdMB {
		n.Commit(64)
	}
	if got := n.PressureScale(0); got != 1 {
		t.Errorf("sub-threshold scale = %v (committed %d)", got, n.CommittedMB())
	}
	// Push well past: scale grows monotonically.
	prev := n.PressureScale(0)
	for i := 0; i < 6; i++ {
		n.Commit(256)
		s := n.PressureScale(0)
		if s < prev {
			t.Errorf("pressure scale decreased: %v → %v", prev, s)
		}
		prev = s
	}
	if prev <= 1.2 {
		t.Errorf("heavily loaded scale = %v, want visibly > 1", prev)
	}
	// extraMB prices the next VM's own footprint.
	if n.PressureScale(512) <= n.PressureScale(0) {
		t.Error("extraMB ignored")
	}
}

func TestJitterIsMeanOne(t *testing.T) {
	k := sim.NewKernel()
	tb := NewTestbed(k, 1, DefaultParams(), 7)
	n := tb.Nodes[0]
	var sum float64
	const N = 20000
	for i := 0; i < N; i++ {
		j := n.Jitter()
		if j <= 0 {
			t.Fatalf("non-positive jitter %v", j)
		}
		sum += j
	}
	if m := sum / N; m < 0.97 || m > 1.03 {
		t.Errorf("jitter mean = %v", m)
	}
}

func TestNodesHaveIndependentRNGStreams(t *testing.T) {
	k := sim.NewKernel()
	tb := NewTestbed(k, 2, DefaultParams(), 42)
	a, b := tb.Nodes[0].RNG(), tb.Nodes[1].RNG()
	same := true
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			same = false
			break
		}
	}
	if same {
		t.Error("node RNG streams identical")
	}
}

func TestTestbedDeterministicAcrossRuns(t *testing.T) {
	sample := func() []float64 {
		k := sim.NewKernel()
		tb := NewTestbed(k, 4, DefaultParams(), 99)
		var out []float64
		for _, n := range tb.Nodes {
			out = append(out, n.Jitter())
		}
		return out
	}
	a, b := sample(), sample()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("testbed RNG not reproducible")
		}
	}
}
