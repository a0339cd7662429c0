package federation

import (
	"errors"
	"testing"
	"time"

	"vmplants/internal/actions"
	"vmplants/internal/cluster"
	"vmplants/internal/core"
	"vmplants/internal/dag"
	"vmplants/internal/plant"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/warehouse"
)

func act(op string, kv ...string) dag.Action {
	params := map[string]string{}
	for i := 0; i+1 < len(kv); i += 2 {
		params[kv[i]] = kv[i+1]
	}
	tgt, _ := actions.DefaultTarget(op)
	return dag.Action{Op: op, Target: tgt, Params: params}
}

var seedHistory = []dag.Action{
	act(actions.OpInstallOS, "distro", "mandrake-8.1"),
	act(actions.OpInstallPackage, "name", "vnc-server"),
}

// newFederation wires n one-plant cells, each seeded with the same
// golden machine, and runs body as the client process; the coordinator
// runs beside it when start is set, and is stopped when body returns.
func newFederation(t *testing.T, n int, start bool, body func(p *sim.Proc, f *Federation)) {
	t.Helper()
	k := sim.NewKernel()
	f := New(k)
	for i := 0; i < n; i++ {
		name := "cell" + string(rune('A'+i))
		tb := cluster.NewTestbed(k, 1, cluster.DefaultParams(), int64(11+i))
		wh := warehouse.New(tb.Warehouse)
		im, err := warehouse.BuildGolden("ws-golden",
			core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: 2048}, warehouse.BackendVMware, seedHistory)
		if err != nil {
			t.Fatal(err)
		}
		if err := wh.Publish(im); err != nil {
			t.Fatal(err)
		}
		pl := plant.New(name+"/node00", tb.Nodes[0], wh, plant.Config{MaxVMs: 8})
		s := shop.New(name, []shop.PlantHandle{shop.NewLocalHandle(pl)}, int64(31+i))
		if err := f.AddCell(&Cell{Name: name, Shop: s, Warehouse: wh}); err != nil {
			t.Fatal(err)
		}
	}
	f.Wire()
	if start {
		f.Start(k)
	}
	k.Spawn("client", func(p *sim.Proc) {
		body(p, f)
		f.Stop()
	})
	if res := k.Run(0); len(res.Stranded) != 0 {
		t.Fatalf("stranded: %v", res.Stranded)
	}
}

func workspace(t *testing.T) *core.Spec {
	t.Helper()
	g, err := dag.NewBuilder().
		Add("os", seedHistory[0]).
		Add("vnc", seedHistory[1], "os").
		Add("user", act(actions.OpCreateUser, "name", "u1"), "vnc").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return &core.Spec{
		Name:     "ws-u1",
		Hardware: core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: 2048},
		Domain:   "ufl.edu",
		Graph:    g,
	}
}

// derive publishes a derived checkpoint with one extra package into the
// cell's warehouse, as its learning loop would.
func derive(t *testing.T, p *sim.Proc, c *Cell, pkg string) string {
	t.Helper()
	parent, _ := c.Warehouse.Lookup("ws-golden")
	performed := append(append([]dag.Action{}, seedHistory...), act(actions.OpInstallPackage, "name", pkg))
	name := warehouse.DerivedName(warehouse.BackendVMware, performed)
	im, err := warehouse.BuildDerived(name, parent, performed)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Warehouse.PublishDerived(im, p.Now()); err != nil {
		t.Fatal(err)
	}
	return name
}

func TestAddCellValidation(t *testing.T) {
	f := New(sim.NewKernel())
	if err := f.AddCell(&Cell{Name: "cellA"}); err == nil {
		t.Error("a cell without a shop was accepted")
	}
	s := shop.New("cellA", nil, 1)
	if err := f.AddCell(&Cell{Shop: s}); err == nil {
		t.Error("a cell without a name was accepted")
	}
	if err := f.AddCell(&Cell{Name: "cellA", Shop: s}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddCell(&Cell{Name: "cellA", Shop: s}); err == nil {
		t.Error("a duplicate cell was accepted")
	}
}

// A killed cell stops being re-leased: while its last lease still
// stands a call to it burns the call timeout, once the lease has lapsed
// — within one TTL of the kill — the call fails fast; the survivor's
// own lease is kept alive throughout, and a restarted cell is leased
// again at the next heartbeat.
func TestKilledCellLeaseLapsesAndRestartReleases(t *testing.T) {
	newFederation(t, 2, true, func(p *sim.Proc, f *Federation) {
		a, b := f.cells[0], f.cells[1]
		toB := a.Shop.Peers()[0]
		spec := workspace(t)
		if _, err := toB.Estimate(p, spec); err != nil {
			t.Fatalf("estimate from a live peer: %v", err)
		}

		p.Sleep(time.Second)
		b.Shop.Kill()
		killed := p.Now()
		start := p.Now()
		if _, err := toB.Estimate(p, spec); !errors.Is(err, shop.ErrPeerDown) {
			t.Fatalf("call to a killed peer: %v, want ErrPeerDown", err)
		}
		if p.Now() == start {
			t.Error("the lease still stood, yet the call to the dead daemon cost no timeout")
		}

		p.Sleep(killed + leaseTTL - p.Now())
		if _, err := f.Registry.Bind(shop.Service, b.Name); err == nil {
			t.Errorf("killed cell still leased %v after the kill (TTL %v): heartbeat renewed it", p.Now()-killed, leaseTTL)
		}
		if _, err := f.Registry.Bind(shop.Service, a.Name); err != nil {
			t.Errorf("the surviving cell lost its lease: %v", err)
		}
		start = p.Now()
		if _, err := toB.Estimate(p, spec); !errors.Is(err, shop.ErrPeerDown) {
			t.Fatalf("call to a lapsed peer: %v, want ErrPeerDown", err)
		}
		if p.Now() != start {
			t.Errorf("call to a lapsed peer took %v, want a fail-fast 0", p.Now()-start)
		}

		if _, err := b.Shop.Restart(p); err != nil {
			t.Fatal(err)
		}
		p.Sleep(heartbeatEvery)
		if _, err := f.Registry.Bind(shop.Service, b.Name); err != nil {
			t.Errorf("restarted cell not re-leased within a heartbeat: %v", err)
		}
		if cost, err := toB.Estimate(p, spec); err != nil || !cost.OK() {
			t.Errorf("estimate from the restarted peer: %v, %v", cost, err)
		}
	})
}

// One gossip round carries a derived image to every other live cell
// once; the next round changes nothing; a cell that is down neither
// imports nor exports, and catches up after its restart.
func TestGossipImportsOnceAndSkipsDownCells(t *testing.T) {
	newFederation(t, 3, false, func(p *sim.Proc, f *Federation) {
		a, b, c := f.cells[0], f.cells[1], f.cells[2]
		first := derive(t, p, a, "octave")
		if st := f.GossipNow(p); st.Imported != 2 || st.Rejected != 0 || st.Deferred != 0 {
			t.Fatalf("first round: %+v, want 2 imports", st)
		}
		for _, cell := range []*Cell{b, c} {
			if _, ok := cell.Warehouse.Lookup(first); !ok {
				t.Errorf("%s did not import %s", cell.Name, first)
			}
		}
		used := b.Warehouse.BytesUsed()
		if st := f.GossipNow(p); st != (GossipStats{}) {
			t.Errorf("second round changed something: %+v", st)
		}
		if b.Warehouse.BytesUsed() != used || b.Warehouse.DerivedCount() != 1 {
			t.Errorf("second round grew cellB: %d derived, %d bytes (was %d)", b.Warehouse.DerivedCount(), b.Warehouse.BytesUsed(), used)
		}

		c.Shop.Kill()
		second := derive(t, p, a, "gnuplot")
		only := derive(t, p, c, "maxima") // learned by the dead cell: not news until it is back
		if st := f.GossipNow(p); st.Imported != 1 {
			t.Errorf("round with cellC down: %+v, want 1 import (cellB's)", st)
		}
		if _, ok := c.Warehouse.Lookup(second); ok {
			t.Error("a cell that is down imported")
		}
		if _, ok := b.Warehouse.Lookup(only); ok {
			t.Error("a cell that is down exported")
		}
		if _, err := c.Shop.Restart(p); err != nil {
			t.Fatal(err)
		}
		if st := f.GossipNow(p); st.Imported != 3 {
			t.Errorf("round after the restart: %+v, want 3 imports (cellC's one, and its own to two cells)", st)
		}
		// A quarantine verdict travels with the catalog.
		a.Warehouse.Quarantine(first, "scrub: checksum mismatch")
		if st := f.GossipNow(p); st.Poisoned != 2 || st.Imported != 0 {
			t.Errorf("poison round: %+v, want 2 poisoned", st)
		}
		if !c.Warehouse.IsQuarantined(first) {
			t.Error("quarantine did not reach cellC")
		}
	})
}
