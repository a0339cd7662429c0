package cost

import (
	"testing"
	"testing/quick"

	"vmplants/internal/core"
)

func TestNetworkComputePaperWalkthrough(t *testing.T) {
	// Paper §3.4: two plants A and B, 4 host-only networks each, max 32
	// VMs; network cost 50, compute cost 4×VMs; one client domain. The
	// shop should keep picking A until the client has 13 VMs there, and
	// B wins the 14th request.
	m := DefaultNetworkCompute()
	viewA := func(vms int) PlantView {
		return PlantView{VMs: vms, MaxVMs: 32, DomainHasNetwork: vms > 0, FreeNetworks: 4 - btoi(vms > 0)}
	}
	viewB := PlantView{VMs: 0, MaxVMs: 32, DomainHasNetwork: false, FreeNetworks: 4}

	// Request #1: both bid the network cost of 50.
	if a, b := m.Estimate(viewA(0), 32), m.Estimate(viewB, 32); a != 50 || b != 50 {
		t.Fatalf("initial bids %v, %v", a, b)
	}
	// Requests #2..#13: A (4×VMs) undercuts B (50).
	for vms := 1; vms <= 12; vms++ {
		a := m.Estimate(viewA(vms), 32)
		b := m.Estimate(viewB, 32)
		if !(a < b) {
			t.Errorf("request with %d VMs on A: a=%v b=%v, want A cheaper", vms, a, b)
		}
	}
	// Request #14 (13 VMs already on A): 4×13=52 > 50, B wins.
	a := m.Estimate(viewA(13), 32)
	b := m.Estimate(viewB, 32)
	if !(b < a) {
		t.Errorf("crossover: a=%v b=%v, want B cheaper", a, b)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestNetworkComputeInfeasibility(t *testing.T) {
	m := DefaultNetworkCompute()
	full := PlantView{VMs: 32, MaxVMs: 32, DomainHasNetwork: true}
	if c := m.Estimate(full, 32); c.OK() {
		t.Errorf("full plant bid %v", c)
	}
	noNets := PlantView{VMs: 1, MaxVMs: 32, DomainHasNetwork: false, FreeNetworks: 0}
	if c := m.Estimate(noNets, 32); c.OK() {
		t.Errorf("network-exhausted plant bid %v", c)
	}
	// Domain already present: no free networks needed.
	held := PlantView{VMs: 1, MaxVMs: 32, DomainHasNetwork: true, FreeNetworks: 0}
	if c := m.Estimate(held, 32); !c.OK() || c != 4 {
		t.Errorf("held-network bid %v", c)
	}
}

func TestFreeMemoryModel(t *testing.T) {
	m := FreeMemory{}
	rich := PlantView{FreeMemoryMB: 1536}
	poor := PlantView{FreeMemoryMB: 512}
	cr := m.Estimate(rich, 64)
	cp := m.Estimate(poor, 64)
	if !cr.OK() || !cp.OK() || !(cr < cp) {
		t.Errorf("rich=%v poor=%v, want rich cheaper", cr, cp)
	}
	broke := PlantView{FreeMemoryMB: 48}
	if c := m.Estimate(broke, 64); c.OK() {
		t.Errorf("infeasible memory bid %v", c)
	}
	full := PlantView{FreeMemoryMB: 4096, VMs: 2, MaxVMs: 2}
	if c := m.Estimate(full, 64); c.OK() {
		t.Errorf("at-capacity bid %v", c)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"", "network+compute", "free-memory"} {
		m, err := ByName(name)
		if err != nil || m == nil {
			t.Errorf("ByName(%q) = %v, %v", name, m, err)
		}
	}
	if _, err := ByName("astrology"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestCostOK(t *testing.T) {
	if core.Infeasible.OK() {
		t.Error("Infeasible.OK() = true")
	}
	if !core.Cost(0).OK() {
		t.Error("zero cost not OK")
	}
}

// Property: the network+compute bid is monotonically non-decreasing in
// plant load, and holding a network never costs more than not holding
// one.
func TestNetworkComputeMonotonicityProperty(t *testing.T) {
	m := DefaultNetworkCompute()
	check := func(vms uint8, hasNet bool) bool {
		v := PlantView{VMs: int(vms), MaxVMs: 0, DomainHasNetwork: hasNet, FreeNetworks: 1}
		c1 := m.Estimate(v, 64)
		v.VMs++
		c2 := m.Estimate(v, 64)
		if !(c1.OK() && c2.OK() && c2 >= c1) {
			return false
		}
		held := PlantView{VMs: int(vms), DomainHasNetwork: true, FreeNetworks: 0}
		free := PlantView{VMs: int(vms), DomainHasNetwork: false, FreeNetworks: 1}
		return m.Estimate(held, 64) <= m.Estimate(free, 64)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the free-memory bid never prefers a plant with less free
// memory.
func TestFreeMemoryMonotonicityProperty(t *testing.T) {
	m := FreeMemory{}
	check := func(freeA, freeB uint16) bool {
		a := PlantView{FreeMemoryMB: int(freeA)%4096 + 64}
		b := PlantView{FreeMemoryMB: int(freeB)%4096 + 64}
		ca, cb := m.Estimate(a, 64), m.Estimate(b, 64)
		if !ca.OK() || !cb.OK() {
			return true
		}
		if a.FreeMemoryMB >= b.FreeMemoryMB {
			return ca <= cb
		}
		return cb <= ca
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
