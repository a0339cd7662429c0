package shop

import (
	"strings"
	"testing"

	"vmplants/internal/actions"
	"vmplants/internal/cluster"
	"vmplants/internal/core"
	"vmplants/internal/dag"
	"vmplants/internal/plant"
	"vmplants/internal/proto"
	"vmplants/internal/sim"
	"vmplants/internal/warehouse"
)

func act(op string, kv ...string) dag.Action {
	p := map[string]string{}
	for i := 0; i+1 < len(kv); i += 2 {
		p[kv[i]] = kv[i+1]
	}
	tgt, _ := actions.DefaultTarget(op)
	return dag.Action{Op: op, Target: tgt, Params: p}
}

func wsGraph(t testing.TB, user string) *dag.Graph {
	t.Helper()
	g, err := dag.NewBuilder().
		Add("os", act(actions.OpInstallOS, "distro", "mandrake-8.1")).
		Add("vnc", act(actions.OpInstallPackage, "name", "vnc-server"), "os").
		Add("user", act(actions.OpCreateUser, "name", user), "vnc").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func wsSpec(t testing.TB, user, domain string) *core.Spec {
	return &core.Spec{
		Name:     "ws-" + user,
		Hardware: core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: 2048},
		Domain:   domain,
		Graph:    wsGraph(t, user),
	}
}

// deployment is a multi-plant rig with a shop in front.
type deployment struct {
	k       *sim.Kernel
	wh      *warehouse.Warehouse
	plants  []*plant.Plant
	handles []*LocalHandle
	shop    *Shop
}

func newDeployment(t testing.TB, nPlants int, cfg plant.Config) *deployment {
	t.Helper()
	k := sim.NewKernel()
	tb := cluster.NewTestbed(k, nPlants, cluster.DefaultParams(), 9)
	wh := warehouse.New(tb.Warehouse)
	im, err := warehouse.BuildGolden("ws-golden",
		core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: 2048},
		warehouse.BackendVMware,
		[]dag.Action{
			act(actions.OpInstallOS, "distro", "mandrake-8.1"),
			act(actions.OpInstallPackage, "name", "vnc-server"),
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := wh.Publish(im); err != nil {
		t.Fatal(err)
	}
	d := &deployment{k: k, wh: wh}
	var phs []PlantHandle
	for i, node := range tb.Nodes {
		pl := plant.New(node.Name(), node, wh, cfg)
		h := NewLocalHandle(pl)
		d.plants = append(d.plants, pl)
		d.handles = append(d.handles, h)
		phs = append(phs, h)
		_ = i
	}
	d.shop = New("shop", phs, 1234)
	return d
}

func (d *deployment) run(t *testing.T, body func(p *sim.Proc)) {
	t.Helper()
	d.k.Spawn("client", body)
	res := d.k.Run(0)
	if len(res.Stranded) != 0 {
		t.Fatalf("stranded: %v", res.Stranded)
	}
}

func TestCreateQueryDestroyThroughShop(t *testing.T) {
	d := newDeployment(t, 2, plant.Config{MaxVMs: 32})
	d.run(t, func(p *sim.Proc) {
		id, ad, err := d.shop.Create(p, wsSpec(t, "ivan", "ufl.edu"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(id), "vm-shop-") {
			t.Errorf("VMID = %s", id)
		}
		if ad.GetString(core.AttrVMID, "") != string(id) {
			t.Error("classad VMID mismatch")
		}
		got, err := d.shop.Query(p, id)
		if err != nil {
			t.Fatal(err)
		}
		if got.GetString(core.AttrName, "") != "ws-ivan" {
			t.Errorf("queried ad: %s", got)
		}
		if err := d.shop.Destroy(p, id); err != nil {
			t.Fatal(err)
		}
		if _, err := d.shop.Query(p, id); err == nil {
			t.Error("destroyed VM queryable")
		}
		if err := d.shop.Destroy(p, id); err == nil {
			t.Error("double destroy succeeded")
		}
	})
}

func TestVMIDsAreUnique(t *testing.T) {
	d := newDeployment(t, 2, plant.Config{MaxVMs: 32})
	d.run(t, func(p *sim.Proc) {
		seen := map[core.VMID]bool{}
		for i := 0; i < 5; i++ {
			id, _, err := d.shop.Create(p, wsSpec(t, "u"+string(rune('a'+i)), "ufl.edu"))
			if err != nil {
				t.Fatal(err)
			}
			if seen[id] {
				t.Fatalf("duplicate VMID %s", id)
			}
			seen[id] = true
		}
	})
}

func TestCostCrossoverAt13VMs(t *testing.T) {
	// The paper's §3.4 walk-through: 2 plants, 4 networks each, max 32
	// VMs, network cost 50, compute 4/VM. First 13 VMs of one domain
	// land on one plant; the 14th goes to the other.
	d := newDeployment(t, 2, plant.Config{MaxVMs: 32, HostOnlyNetworks: 4})
	d.run(t, func(p *sim.Proc) {
		var first string
		for i := 0; i < 14; i++ {
			id, ad, err := d.shop.Create(p, wsSpec(t, "u"+string(rune('a'+i)), "ufl.edu"))
			if err != nil {
				t.Fatalf("request %d: %v", i+1, err)
			}
			plantName := ad.GetString(core.AttrPlant, "")
			if i == 0 {
				first = plantName
				continue
			}
			if i < 13 && plantName != first {
				t.Errorf("request %d went to %s, want %s", i+1, plantName, first)
			}
			if i == 13 && plantName == first {
				t.Errorf("request 14 stayed on %s, want the other plant", first)
			}
			_ = id
		}
	})
}

func TestBidAuditLog(t *testing.T) {
	d := newDeployment(t, 2, plant.Config{MaxVMs: 32})
	d.run(t, func(p *sim.Proc) {
		d.shop.Create(p, wsSpec(t, "u1", "ufl.edu"))
	})
	bids := d.shop.Bids()
	if len(bids) != 1 {
		t.Fatalf("%d bid records", len(bids))
	}
	if len(bids[0].Costs) != 2 || bids[0].Winner == "" {
		t.Errorf("bid record = %+v", bids[0])
	}
	for _, c := range bids[0].Costs {
		if c != 50 {
			t.Errorf("initial bid %v, want 50", c)
		}
	}
}

// TestBidLogKeepsLastRounds: the audit log is bounded — a long-lived
// shop keeps the last bidLogRounds rounds, oldest first.
func TestBidLogKeepsLastRounds(t *testing.T) {
	d := newDeployment(t, 2, plant.Config{MaxVMs: 32})
	var ids []core.VMID
	d.run(t, func(p *sim.Proc) {
		for i := 0; i < bidLogRounds+3; i++ {
			id, _, err := d.shop.Create(p, wsSpec(t, "u1", "ufl.edu"))
			if err != nil {
				t.Fatalf("create %d: %v", i, err)
			}
			if err := d.shop.Destroy(p, id); err != nil {
				t.Fatalf("destroy %d: %v", i, err)
			}
			ids = append(ids, id)
		}
	})
	bids := d.shop.Bids()
	if len(bids) != bidLogRounds {
		t.Fatalf("%d bid records after %d creations, want %d", len(bids), len(ids), bidLogRounds)
	}
	for i, rec := range bids {
		if want := ids[3+i]; rec.VMID != want {
			t.Fatalf("bids[%d] is %s, want %s (the newest last)", i, rec.VMID, want)
		}
	}
}

func TestNoFeasiblePlant(t *testing.T) {
	d := newDeployment(t, 2, plant.Config{MaxVMs: 32})
	d.run(t, func(p *sim.Proc) {
		s := wsSpec(t, "u1", "ufl.edu")
		s.Hardware.MemoryMB = 512 // no golden image of this size
		if _, _, err := d.shop.Create(p, s); err == nil {
			t.Error("create without feasible plant succeeded")
		}
	})
}

func TestCreateFallsBackWhenWinnerDies(t *testing.T) {
	d := newDeployment(t, 2, plant.Config{MaxVMs: 32})
	d.run(t, func(p *sim.Proc) {
		// First create decides the preferred plant.
		_, ad, err := d.shop.Create(p, wsSpec(t, "u1", "ufl.edu"))
		if err != nil {
			t.Fatal(err)
		}
		winner := ad.GetString(core.AttrPlant, "")
		// Kill the winner: it still bids? No — Down makes Estimate fail,
		// so the shop must route to the survivor.
		for _, h := range d.handles {
			if h.Name() == winner {
				h.Down = true
			}
		}
		_, ad2, err := d.shop.Create(p, wsSpec(t, "u2", "ufl.edu"))
		if err != nil {
			t.Fatal(err)
		}
		if ad2.GetString(core.AttrPlant, "") == winner {
			t.Error("create routed to a dead plant")
		}
	})
}

func TestShopRecoversRoutesAfterRestart(t *testing.T) {
	d := newDeployment(t, 3, plant.Config{MaxVMs: 32})
	d.run(t, func(p *sim.Proc) {
		id, _, err := d.shop.Create(p, wsSpec(t, "u1", "ufl.edu"))
		if err != nil {
			t.Fatal(err)
		}
		before := d.shop.RouteOf(id)
		// Journal-less shop restart: every route dies with the daemon.
		restart := func() {
			d.shop.Kill()
			if _, err := d.shop.Restart(p); err != nil {
				t.Fatal(err)
			}
		}
		restart()
		if d.shop.RouteOf(id) != "" {
			t.Fatal("routes survived restart")
		}
		// Query recovers by sweeping plants.
		ad, err := d.shop.Query(p, id)
		if err != nil {
			t.Fatalf("post-restart query: %v", err)
		}
		if ad.GetString(core.AttrVMID, "") != string(id) {
			t.Error("recovered wrong ad")
		}
		if d.shop.RouteOf(id) != before {
			t.Errorf("recovered route %q, want %q", d.shop.RouteOf(id), before)
		}
		// Destroy also works after restart.
		restart()
		if err := d.shop.Destroy(p, id); err != nil {
			t.Fatalf("post-restart destroy: %v", err)
		}
	})
}

func TestCachedAdServedWhenPlantDown(t *testing.T) {
	d := newDeployment(t, 1, plant.Config{MaxVMs: 32})
	d.shop.CacheAds = true
	d.run(t, func(p *sim.Proc) {
		id, _, err := d.shop.Create(p, wsSpec(t, "u1", "ufl.edu"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.shop.Query(p, id); err != nil {
			t.Fatal(err)
		}
		d.handles[0].Down = true
		ad, err := d.shop.Query(p, id)
		if err != nil {
			t.Fatalf("cached query: %v", err)
		}
		if ad.GetString(core.AttrVMID, "") != string(id) {
			t.Error("wrong cached ad")
		}
	})
}

// A suspend or resume replaces the cached ad's state, so a plant that
// crashes after it leaves the shop serving the state the VM is in. The
// resume case queries between the two ops, so the ad it replaces is
// the plant's "suspended" one.
func TestCachedAdFollowsLifecycle(t *testing.T) {
	for _, tc := range []struct {
		ops  []string // run in order, a query between each two
		want string
	}{
		{[]string{proto.LifecycleSuspend}, "suspended"},
		{[]string{proto.LifecycleSuspend, proto.LifecycleResume}, "running"},
	} {
		d := newDeployment(t, 1, plant.Config{MaxVMs: 32})
		d.shop.CacheAds = true
		d.run(t, func(p *sim.Proc) {
			id, _, err := d.shop.Create(p, wsSpec(t, "u1", "ufl.edu"))
			if err != nil {
				t.Fatal(err)
			}
			for i, op := range tc.ops {
				if i > 0 {
					if _, err := d.shop.Query(p, id); err != nil {
						t.Fatal(err)
					}
				}
				if err := d.shop.lifecycle(p, id, op); err != nil {
					t.Fatal(err)
				}
			}
			d.plants[0].Crash()
			ad, err := d.shop.Query(p, id)
			if err != nil {
				t.Fatalf("cached query: %v", err)
			}
			if got := ad.GetString(core.AttrState, ""); got != tc.want {
				t.Errorf("after %v and a plant crash the shop serves State %q, want %q", tc.ops, got, tc.want)
			}
		})
	}
}

func TestQueryUnknownVM(t *testing.T) {
	d := newDeployment(t, 1, plant.Config{})
	d.run(t, func(p *sim.Proc) {
		if _, err := d.shop.Query(p, "vm-shop-999"); err == nil {
			t.Error("query of unknown VM succeeded")
		}
		if err := d.shop.Destroy(p, "vm-shop-999"); err == nil {
			t.Error("destroy of unknown VM succeeded")
		}
	})
}

func TestLoadSpreadsWithFreeMemoryModel(t *testing.T) {
	cfgModel, err := costModel("free-memory")
	if err != nil {
		t.Fatal(err)
	}
	d := newDeployment(t, 2, plant.Config{MaxVMs: 32, CostModel: cfgModel})
	d.run(t, func(p *sim.Proc) {
		counts := map[string]int{}
		for i := 0; i < 6; i++ {
			_, ad, err := d.shop.Create(p, wsSpec(t, "u"+string(rune('a'+i)), "ufl.edu"))
			if err != nil {
				t.Fatal(err)
			}
			counts[ad.GetString(core.AttrPlant, "")]++
		}
		// Memory-based bidding alternates plants: both get 3.
		for name, n := range counts {
			if n != 3 {
				t.Errorf("plant %s got %d VMs: %v", name, n, counts)
			}
		}
	})
}
