package shop

import (
	"strings"
	"testing"
	"time"

	"vmplants/internal/actions"
	"vmplants/internal/core"
	"vmplants/internal/dag"
	"vmplants/internal/fault"
	"vmplants/internal/journal"
	"vmplants/internal/plant"
	"vmplants/internal/registry"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
	"vmplants/internal/telemetry"
)

// traced is a deployment whose shop and plants report to one hub.
func traced(t *testing.T, nPlants int, cfg plant.Config) (*deployment, *telemetry.Hub) {
	t.Helper()
	hub := telemetry.New()
	cfg.Telemetry = hub
	d := newDeployment(t, nPlants, cfg)
	d.shop.SetTelemetry(hub)
	return d, hub
}

// named returns the hub's finished spans of one name, in end order.
func named(hub *telemetry.Hub, name string) []telemetry.Span {
	var out []telemetry.Span
	for _, s := range hub.T().Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// only returns the single span of one name.
func only(t *testing.T, hub *telemetry.Hub, name string) telemetry.Span {
	t.Helper()
	spans := named(hub, name)
	if len(spans) != 1 {
		t.Fatalf("%d %s spans, want 1", len(spans), name)
	}
	return spans[0]
}

// failed returns the single span of one name that ended with an error.
func failed(t *testing.T, hub *telemetry.Hub, name string) telemetry.Span {
	t.Helper()
	var out []telemetry.Span
	for _, s := range named(hub, name) {
		if s.Err != "" {
			out = append(out, s)
		}
	}
	if len(out) != 1 {
		t.Fatalf("%d failed %s spans, want 1", len(out), name)
	}
	return out[0]
}

// A creation's timeline is its span tree. Each case drives one
// lifecycle through the shop and finds its facts there: submission and
// completion on shop.create, the winning bid and any failover on
// shop.bid and shop.create's attributes, admission and the clone on
// their stages, an injected fault or an integrity refusal on the failed
// span's error, a peer creation on shop.forward. A publish-back is on
// plant.create and, as a fact, in the warehouse journal.
func TestSpanTreeCarriesTheLifecycle(t *testing.T) {
	t.Run("created", func(t *testing.T) {
		d, hub := traced(t, 2, plant.Config{MaxVMs: 8})
		var id core.VMID
		var submitted time.Duration
		d.run(t, func(p *sim.Proc) {
			submitted = p.Now()
			var err error
			if id, _, err = d.shop.Create(p, wsSpec(t, "ivan", "ufl.edu")); err != nil {
				t.Fatal(err)
			}
		})
		root := only(t, hub, "shop.create")
		if root.VStart != submitted || root.Err != "" || root.Attr("vmid") != string(id) {
			t.Errorf("shop.create = start %v err %q vmid %q, want %v, no error, %s", root.VStart, root.Err, root.Attr("vmid"), submitted, id)
		}
		if w := root.Attr("winner"); w == "" || w != d.shop.RouteOf(id) {
			t.Errorf("winner attr %q, route %q", w, d.shop.RouteOf(id))
		}
		if root.Attr("failover") != "" {
			t.Errorf("clean creation carries failover %q", root.Attr("failover"))
		}
		for _, name := range []string{"shop.bid", "plant.create", "admission", "clone", "configure"} {
			s := only(t, hub, name)
			if s.TraceID != root.TraceID || s.Err != "" {
				t.Errorf("%s: trace %d err %q, want trace %d and no error", name, s.TraceID, s.Err, root.TraceID)
			}
		}
		if bid := only(t, hub, "shop.bid"); bid.Parent != root.ID {
			t.Errorf("shop.bid parent %d, want shop.create %d", bid.Parent, root.ID)
		}
		adm, clone := only(t, hub, "admission"), only(t, hub, "clone")
		if clone.VStart < adm.VEnd || clone.VEnd <= clone.VStart || clone.Attr("golden") != "ws-golden" {
			t.Errorf("clone %v..%v golden %q after admission ending %v", clone.VStart, clone.VEnd, clone.Attr("golden"), adm.VEnd)
		}
	})

	t.Run("clone-io fails over", func(t *testing.T) {
		reg := fault.NewRegistry(1)
		reg.Arm(fault.Wildcard, fault.CloneIO, "", 1)
		d, hub := traced(t, 2, plant.Config{MaxVMs: 8, Faults: reg})
		var id core.VMID
		d.run(t, func(p *sim.Proc) {
			var err error
			if id, _, err = d.shop.Create(p, wsSpec(t, "ana", "ufl.edu")); err != nil {
				t.Fatal(err)
			}
		})
		root := only(t, hub, "shop.create")
		winner := d.shop.RouteOf(id)
		if root.Attr("winner") != winner || root.Attr("failover") != winner {
			t.Errorf("winner %q failover %q, want both %q", root.Attr("winner"), root.Attr("failover"), winner)
		}
		if n := len(named(hub, "shop.bid")); n != 1 {
			t.Errorf("%d bid rounds, want 1: the failover takes the round's next bid", n)
		}
		if bad := failed(t, hub, "clone"); !strings.Contains(bad.Err, "injected I/O error") {
			t.Errorf("failed clone err %q", bad.Err)
		}
		if lost := failed(t, hub, "plant.create"); lost.Attr("plant") == winner {
			t.Errorf("the failed plant.create ran on the winner %s", winner)
		}
	})

	t.Run("plant crash", func(t *testing.T) {
		reg := fault.NewRegistry(1)
		reg.Arm(fault.Wildcard, fault.PlantCrash, "create", 1)
		d, hub := traced(t, 2, plant.Config{MaxVMs: 8, Faults: reg})
		d.run(t, func(p *sim.Proc) {
			if _, _, err := d.shop.Create(p, wsSpec(t, "bo", "ufl.edu")); err != nil {
				t.Fatal(err)
			}
		})
		if bad := failed(t, hub, "plant.create"); !strings.Contains(bad.Err, "plant crashed during creation") {
			t.Errorf("crashed plant.create err %q", bad.Err)
		}
		if root := only(t, hub, "shop.create"); root.Err != "" || root.Attr("failover") == "" {
			t.Errorf("shop.create err %q failover %q, want a failover to success", root.Err, root.Attr("failover"))
		}
	})

	t.Run("quarantine hit", func(t *testing.T) {
		d, hub := traced(t, 2, plant.Config{MaxVMs: 8})
		d.k.Spawn("scrubber", func(p *sim.Proc) {
			p.Sleep(time.Second) // mid state copy
			d.wh.Quarantine("ws-golden", "scrub: checksum mismatch")
		})
		d.run(t, func(p *sim.Proc) {
			if _, _, err := d.shop.Create(p, wsSpec(t, "cy", "ufl.edu")); err == nil {
				t.Fatal("creation from a quarantined image succeeded")
			}
		})
		if v := failed(t, hub, "verify"); !strings.Contains(v.Err, `image "ws-golden" quarantined during clone`) {
			t.Errorf("verify err %q", v.Err)
		}
		if root := only(t, hub, "shop.create"); root.Err == "" {
			t.Error("shop.create of the refused creation has no error")
		}
	})

	t.Run("published", func(t *testing.T) {
		d, hub := traced(t, 2, plant.Config{MaxVMs: 8, PublishBack: true})
		jnl := journal.Open(storage.NewVolume("whdisk", storage.NewDevice("whdisk", 80<<20, 100*time.Microsecond)), "journal/warehouse")
		d.wh.SetJournal(jnl)
		spec := wsSpec(t, "dee", "ufl.edu")
		spec.Graph = longGraph(t, "dee")
		d.run(t, func(p *sim.Proc) {
			if _, _, err := d.shop.Create(p, spec); err != nil {
				t.Fatal(err)
			}
		})
		name := only(t, hub, "plant.create").Attr("publish_back")
		if name == "" {
			t.Fatal("plant.create carries no publish_back attr")
		}
		var published bool
		for _, r := range jnl.Records() {
			published = published || r.Kind == journal.ImagePublish && r.Key == name
		}
		if !published {
			t.Errorf("warehouse journal holds no image-publish record of %s", name)
		}
	})

	t.Run("peer created", func(t *testing.T) {
		k := sim.NewKernel()
		reg := registry.New()
		simClock(k, reg)
		a, _ := newCell(t, k, "cellA", 1, 11, plant.Config{MaxVMs: 1})
		b, _ := newCell(t, k, "cellB", 1, 23, plant.Config{MaxVMs: 1})
		for _, name := range []string{"cellA", "cellB"} {
			if err := reg.Publish(registry.Binding{Service: "vmshop", Name: name, Addr: name}, 0); err != nil {
				t.Fatal(err)
			}
		}
		a.SetPeers([]PeerHandle{NewLocalPeerHandle(b, reg)})
		hub := telemetry.New()
		a.SetTelemetry(hub)
		var id core.VMID
		runKernel(t, k, func(p *sim.Proc) {
			if _, _, err := a.Create(p, wsSpec(t, "ivan", "ufl.edu")); err != nil {
				t.Fatal(err)
			}
			var err error
			if id, _, err = a.Create(p, wsSpec(t, "ana", "ufl.edu")); err != nil {
				t.Fatal(err)
			}
		})
		fwd := only(t, hub, "shop.forward")
		if fwd.Attr("peer") != "cellB" || fwd.Err != "" {
			t.Errorf("shop.forward peer %q err %q, want cellB and no error", fwd.Attr("peer"), fwd.Err)
		}
		for _, root := range named(hub, "shop.create") {
			if root.Attr("vmid") == string(id) && (root.ID != fwd.Parent || root.Err != "") {
				t.Errorf("forwarded creation's shop.create %d (err %q) is not shop.forward's parent %d", root.ID, root.Err, fwd.Parent)
			}
		}
	})
}

// longGraph is the workspace graph with four personalisation steps, a
// residual plan long enough for the plant to publish the result back.
func longGraph(t *testing.T, user string) *dag.Graph {
	t.Helper()
	g, err := dag.NewBuilder().
		Add("os", act(actions.OpInstallOS, "distro", "mandrake-8.1")).
		Add("vnc", act(actions.OpInstallPackage, "name", "vnc-server"), "os").
		Add("user", act(actions.OpCreateUser, "name", user), "vnc").
		Add("emacs", act(actions.OpInstallPackage, "name", "emacs"), "user").
		Add("gcc", act(actions.OpInstallPackage, "name", "gcc"), "emacs").
		Add("guest", act(actions.OpCreateUser, "name", user+"-guest"), "gcc").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}
