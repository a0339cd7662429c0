package shop

import (
	"strings"
	"testing"
	"time"

	"vmplants/internal/actions"
	"vmplants/internal/cluster"
	"vmplants/internal/core"
	"vmplants/internal/dag"
	"vmplants/internal/journal"
	"vmplants/internal/plant"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
	"vmplants/internal/telemetry"
	"vmplants/internal/warehouse"
)

// newCell builds one federated cell on a shared kernel: its own testbed
// (so its own NFS server), a warehouse seeded with the golden workspace
// image, nPlants plants, and a shop named after the cell.
func newCell(t *testing.T, k *sim.Kernel, name string, nPlants int, seed int64, cfg plant.Config) (*Shop, *warehouse.Warehouse) {
	t.Helper()
	tb := cluster.NewTestbed(k, nPlants, cluster.DefaultParams(), seed)
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
	var phs []PlantHandle
	for _, node := range tb.Nodes {
		pl := plant.New(name+"/"+node.Name(), node, wh, cfg)
		phs = append(phs, NewLocalHandle(pl))
	}
	return New(name, phs, seed+1), wh
}

func runKernel(t *testing.T, k *sim.Kernel, body func(p *sim.Proc)) {
	t.Helper()
	k.Spawn("client", body)
	res := k.Run(0)
	if len(res.Stranded) != 0 {
		t.Fatalf("stranded: %v", res.Stranded)
	}
}

// A shop whose every plant is at capacity re-auctions the creation to
// its peer cell; the cross-cell route then serves Query and Destroy.
func TestForwardWhenLocalFull(t *testing.T) {
	k := sim.NewKernel()
	a, _ := newCell(t, k, "cellA", 1, 11, plant.Config{MaxVMs: 1})
	b, _ := newCell(t, k, "cellB", 1, 23, plant.Config{MaxVMs: 1})
	a.SetPeers([]PeerHandle{NewLocalPeerHandle(b)})
	runKernel(t, k, func(p *sim.Proc) {
		if _, _, err := a.Create(p, wsSpec(t, "ivan", "ufl.edu")); err != nil {
			t.Fatalf("local create: %v", err)
		}
		id, ad, err := a.Create(p, wsSpec(t, "ana", "ufl.edu"))
		if err != nil {
			t.Fatalf("overflow create: %v", err)
		}
		peer, remote, ok := a.ForwardedTo(id)
		if !ok || peer != "cellB" {
			t.Fatalf("ForwardedTo = %q %q %v, want a cellB route", peer, remote, ok)
		}
		if got := ad.GetString(core.AttrPlant, ""); !strings.HasPrefix(got, "cellB/") {
			t.Errorf("forwarded creation ran on %q, want a cellB plant", got)
		}
		if _, err := a.Query(p, id); err != nil {
			t.Errorf("query through peer route: %v", err)
		}
		if err := a.Destroy(p, id); err != nil {
			t.Errorf("destroy through peer route: %v", err)
		}
		if _, _, ok := a.ForwardedTo(id); ok {
			t.Error("peer route survived the destroy")
		}
	})
}

// A dead peer cell is reached the way a dead shop daemon is over TCP:
// the overflow's peer round pays exactly one call timeout to learn it
// is down and the creation fails; once the peer restarts, the next
// overflow is forwarded to it.
func TestDeadPeerCostsOneCallTimeoutAndRestartRecovers(t *testing.T) {
	k := sim.NewKernel()
	a, _ := newCell(t, k, "cellA", 1, 11, plant.Config{MaxVMs: 1})
	b, _ := newCell(t, k, "cellB", 1, 23, plant.Config{MaxVMs: 1})
	a.SetPeers([]PeerHandle{NewLocalPeerHandle(b)})
	hub := telemetry.New()
	a.SetTelemetry(hub)
	runKernel(t, k, func(p *sim.Proc) {
		if _, _, err := a.Create(p, wsSpec(t, "ivan", "ufl.edu")); err != nil {
			t.Fatalf("local create: %v", err)
		}
		b.Kill()
		if _, _, err := a.Create(p, wsSpec(t, "ana", "ufl.edu")); err == nil {
			t.Fatal("overflow create served via a dead peer")
		}
		fwd := only(t, hub, "shop.forward")
		if got, want := fwd.VEnd-fwd.VStart, sim.Seconds(callTimeoutSecs); got != want {
			t.Errorf("peer round against a dead peer took %v, want one call timeout %v", got, want)
		}
		if _, err := b.Restart(p); err != nil {
			t.Fatal(err)
		}
		id, _, err := a.Create(p, wsSpec(t, "olga", "ufl.edu"))
		if err != nil {
			t.Fatalf("overflow create after the peer restarted: %v", err)
		}
		if peer, _, ok := a.ForwardedTo(id); !ok || peer != "cellB" {
			t.Errorf("ForwardedTo = %q %v, want cellB", peer, ok)
		}
	})
}

// Regression: route-change journal records carry an endpoint kind.
// Before the fix, replay installed every route-change as a local plant
// route — a peer-endpoint record has no "plant" field, so the
// cross-cell route silently vanished on restart and the shop forgot
// which cell served the VM. Records written before federation carry no
// endpoint field at all and must keep replaying as plant routes.
func TestRouteChangeReplayHonorsEndpointKind(t *testing.T) {
	k := sim.NewKernel()
	a, _ := newCell(t, k, "cellA", 1, 11, plant.Config{MaxVMs: 4})
	b, _ := newCell(t, k, "cellB", 1, 23, plant.Config{MaxVMs: 4})
	a.SetPeers([]PeerHandle{NewLocalPeerHandle(b)})
	vol := storage.NewVolume("cellA-log",
		storage.NewDevice("cellA-log-disk", 16<<20, 100*time.Microsecond))
	jnl := journal.Open(vol, "journal/cellA")
	a.SetJournal(jnl)
	runKernel(t, k, func(p *sim.Proc) {
		// A pre-federation record (no endpoint field) and a peer-endpoint
		// record, as a route-learn sweep would write them.
		jnl.AppendSync(p, journal.Record{
			Kind: journal.RouteChange, Key: "vm-cellA-9",
			Fields: map[string]string{"plant": "cellA/node00"},
		})
		jnl.AppendSync(p, journal.Record{
			Kind: journal.RouteChange, Key: "vm-cellA-10",
			Fields: map[string]string{"endpoint": journal.EndpointPeer, "peer": "cellB", "remote": "vm-cellB-3"},
		})
		st, err := a.Restart(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Routes != 2 {
			t.Errorf("replayed %d routes, want 2", st.Routes)
		}
		if got := a.RouteOf("vm-cellA-9"); got != "cellA/node00" {
			t.Errorf("legacy route replayed to %q, want cellA/node00", got)
		}
		peer, remote, ok := a.ForwardedTo("vm-cellA-10")
		if !ok || peer != "cellB" || remote != "vm-cellB-3" {
			t.Errorf("peer route after replay = %q %q %v, want cellB vm-cellB-3", peer, remote, ok)
		}
	})
}
