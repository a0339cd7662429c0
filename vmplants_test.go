package vmplants

import (
	"strings"
	"testing"
	"time"
)

// history is a minimal golden configuration: OS plus one package.
func history() []Action {
	return []Action{
		{Op: "install-os", Target: Guest, Params: map[string]string{"distro": "redhat-8.0"}},
		{Op: "install-package", Target: Guest, Params: map[string]string{"name": "vnc-server"}},
	}
}

func newSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	if cfg.Plants == 0 {
		cfg.Plants = 2
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hw := Hardware{Arch: "x86", MemoryMB: 64, DiskMB: 2048}
	if err := sys.PublishGolden("base-ws", hw, BackendVMware, history()); err != nil {
		t.Fatal(err)
	}
	return sys
}

func wsSpec(t *testing.T, user string) *Spec {
	t.Helper()
	g, err := NewGraph().
		Add("os", Action{Op: "install-os", Target: Guest, Params: map[string]string{"distro": "redhat-8.0"}}).
		Add("vnc", Action{Op: "install-package", Target: Guest, Params: map[string]string{"name": "vnc-server"}}, "os").
		Add("net", Action{Op: "configure-network", Target: Guest, Params: map[string]string{"ip": "10.2.0.5"}}, "vnc").
		Add("user", Action{Op: "create-user", Target: Guest, Params: map[string]string{"name": user}}, "net").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return &Spec{
		Name:     "ws-" + user,
		Hardware: Hardware{Arch: "x86", MemoryMB: 64, DiskMB: 2048},
		Domain:   "example.edu",
		Graph:    g,
	}
}

func TestEndToEndLifecycle(t *testing.T) {
	sys := newSystem(t, Config{Seed: 1})
	id, ad, err := sys.CreateVM(wsSpec(t, "alice"))
	if err != nil {
		t.Fatal(err)
	}
	if ad.GetString("IP", "") != "10.2.0.5" {
		t.Errorf("IP = %q", ad.GetString("IP", ""))
	}
	if sys.Now() <= 0 {
		t.Error("virtual clock did not advance")
	}
	// The guest is alive on its host-only network.
	alive, err := sys.GuestProbe(id)
	if err != nil || !alive {
		t.Errorf("probe: alive=%v err=%v", alive, err)
	}
	// Query sees uptime grow.
	if err := sys.Advance(time.Minute); err != nil {
		t.Fatal(err)
	}
	ad2, err := sys.QueryVM(id)
	if err != nil {
		t.Fatal(err)
	}
	if ad2.GetInt("UptimeSecs", -1) < 60 {
		t.Errorf("uptime = %d", ad2.GetInt("UptimeSecs", -1))
	}
	if err := sys.DestroyVM(id); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.QueryVM(id); err == nil {
		t.Error("destroyed VM still queryable")
	}
	if _, err := sys.GuestProbe(id); err == nil {
		t.Error("destroyed VM still probeable")
	}
}

func TestCreateIsWithinPaperEnvelope(t *testing.T) {
	sys := newSystem(t, Config{Seed: 2})
	before := sys.Now()
	if _, _, err := sys.CreateVM(wsSpec(t, "bob")); err != nil {
		t.Fatal(err)
	}
	took := sys.Now() - before
	if took < 10*time.Second || took > 100*time.Second {
		t.Errorf("creation took %v, want within the paper's 17–85 s envelope", took)
	}
}

func TestBidsRecorded(t *testing.T) {
	sys := newSystem(t, Config{Seed: 3, CostModel: "network+compute", MaxVMsPerPlant: 32})
	if _, _, err := sys.CreateVM(wsSpec(t, "carol")); err != nil {
		t.Fatal(err)
	}
	bids := sys.Bids()
	if len(bids) != 1 || len(bids[0].Costs) != 2 {
		t.Fatalf("bids = %+v", bids)
	}
}

func TestPlantOf(t *testing.T) {
	sys := newSystem(t, Config{Seed: 4})
	id, _, err := sys.CreateVM(wsSpec(t, "dave"))
	if err != nil {
		t.Fatal(err)
	}
	name, err := sys.PlantOf(id)
	if err != nil || !strings.HasPrefix(name, "node") {
		t.Errorf("PlantOf = %q, %v", name, err)
	}
	if _, err := sys.PlantOf("vm-shop-999"); err == nil {
		t.Error("unknown VM resolved")
	}
}

func TestCreateWithoutGoldenFails(t *testing.T) {
	sys, err := New(Config{Plants: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.CreateVM(wsSpec(t, "erin")); err == nil {
		t.Error("create without any golden image succeeded")
	}
}

func TestInvalidSpecRejected(t *testing.T) {
	sys := newSystem(t, Config{Seed: 6})
	s := wsSpec(t, "frank")
	s.Domain = ""
	if _, _, err := sys.CreateVM(s); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestFailureInjectionThroughFacade(t *testing.T) {
	sys, err := New(Config{Plants: 1, Seed: 7, FailProb: map[string]float64{"create-user": 1.0}})
	if err != nil {
		t.Fatal(err)
	}
	hw := Hardware{Arch: "x86", MemoryMB: 64, DiskMB: 2048}
	if err := sys.PublishGolden("base-ws", hw, BackendVMware, history()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.CreateVM(wsSpec(t, "grace")); err == nil {
		t.Error("create with certain failure succeeded")
	}
}

func TestDeterministicReplayThroughFacade(t *testing.T) {
	run := func() time.Duration {
		sys := newSystem(t, Config{Seed: 99})
		if _, _, err := sys.CreateVM(wsSpec(t, "heidi")); err != nil {
			t.Fatal(err)
		}
		return sys.Now()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("replay diverged: %v vs %v", a, b)
	}
}

func TestUnknownCostModelRejected(t *testing.T) {
	if _, err := New(Config{CostModel: "tarot"}); err == nil {
		t.Error("unknown cost model accepted")
	}
}

func TestPublishAndPrecreateThroughFacade(t *testing.T) {
	sys := newSystem(t, Config{Seed: 22, Plants: 1})
	id, _, err := sys.CreateVM(wsSpec(t, "peggy"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.PublishVM(id, "peggy-image"); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, im := range sys.GoldenImages() {
		if im == "peggy-image" {
			found = true
		}
	}
	if !found {
		t.Errorf("published image missing: %v", sys.GoldenImages())
	}
	if err := sys.Precreate(sys.Plants()[0], "peggy-image", 1); err != nil {
		t.Fatal(err)
	}
	// A re-creation of peggy's workspace is served from the pool, fast.
	before := sys.Now()
	if _, _, err := sys.CreateVM(wsSpec(t, "peggy")); err != nil {
		t.Fatal(err)
	}
	if took := sys.Now() - before; took > 15*time.Second {
		t.Errorf("pool-served create took %v", took)
	}
	if err := sys.Precreate("plant-x", "peggy-image", 1); err == nil {
		t.Error("precreate on unknown plant succeeded")
	}
}

func TestRequirementsThroughFacade(t *testing.T) {
	sys := newSystem(t, Config{Seed: 30, Plants: 3})
	want := sys.Plants()[2]
	s := wsSpec(t, "judy")
	s.Requirements = `TARGET.Plant == "` + want + `"`
	id, ad, err := sys.CreateVM(s)
	if err != nil {
		t.Fatal(err)
	}
	if ad.GetString("Plant", "") != want {
		t.Errorf("created on %q, want %q", ad.GetString("Plant", ""), want)
	}
	_ = id
}

func TestSuspendResumeLifecycle(t *testing.T) {
	sys := newSystem(t, Config{Seed: 33, Plants: 1})
	id, _, err := sys.CreateVM(wsSpec(t, "victor"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SuspendVM(id); err != nil {
		t.Fatal(err)
	}
	ad, err := sys.QueryVM(id)
	if err != nil {
		t.Fatal(err)
	}
	if ad.GetString("State", "") != "suspended" {
		t.Errorf("state = %q", ad.GetString("State", ""))
	}
	// A suspended guest does not answer probes.
	if alive, _ := sys.GuestProbe(id); alive {
		t.Error("suspended guest answered probe")
	}
	// Double suspend is an error.
	if err := sys.SuspendVM(id); err == nil {
		t.Error("double suspend succeeded")
	}
	if err := sys.ResumeVM(id); err != nil {
		t.Fatal(err)
	}
	ad2, _ := sys.QueryVM(id)
	if ad2.GetString("State", "") != "running" {
		t.Errorf("state after resume = %q", ad2.GetString("State", ""))
	}
	if alive, _ := sys.GuestProbe(id); !alive {
		t.Error("resumed guest silent")
	}
	// Suspended VMs free host memory: a full plant can take another VM
	// while one is parked. (MaxVMs still counts it; memory does not.)
	if err := sys.DestroyVM(id); err != nil {
		t.Fatal(err)
	}
}
