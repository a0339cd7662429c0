package shop

import (
	"errors"
	"testing"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/fault"
	"vmplants/internal/journal"
	"vmplants/internal/plant"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
)

// journaled attaches a fresh journal (on its own volume) and a fault
// registry to the deployment's shop.
func journaled(d *deployment) (*journal.Journal, *fault.Registry) {
	vol := storage.NewVolume("shopdisk",
		storage.NewDevice("shopdisk", 80<<20, 100*time.Microsecond))
	j := journal.Open(vol, "journal/shop")
	d.shop.SetJournal(j)
	reg := fault.NewRegistry(71)
	d.shop.Faults = reg
	return j, reg
}

// vmCount sums the VM inventories of every plant.
func vmCount(d *deployment) int {
	n := 0
	for _, pl := range d.plants {
		n += pl.ActiveVMs()
	}
	return n
}

// A daemon kill after the intent record but before dispatch: the VM was
// never built. Restart re-drives the journaled intent to completion
// under its original VMID, and the client's retry is answered from the
// journal — one VM, not two.
func TestKillAfterIntentRedrivesExactlyOnce(t *testing.T) {
	d := newDeployment(t, 2, plant.Config{MaxVMs: 32})
	_, reg := journaled(d)
	reg.Arm("shop", fault.DaemonKill, "intent", 1)
	d.run(t, func(p *sim.Proc) {
		spec := wsSpec(t, "ivan", "ufl.edu")
		spec.RequestID = "req-1"
		_, _, err := d.shop.Create(p, spec)
		if !errors.Is(err, ErrShopDown) {
			t.Fatalf("create survived the kill: %v", err)
		}
		if _, _, err := d.shop.Create(p, spec); !errors.Is(err, ErrShopDown) {
			t.Fatalf("dead shop answered: %v", err)
		}
		st, err := d.shop.Restart(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Redriven != 1 || st.Reconciled != 0 {
			t.Fatalf("restart stats = %+v, want 1 redriven", st)
		}
		id, ad, err := d.shop.Create(p, spec) // client retry
		if err != nil {
			t.Fatal(err)
		}
		if ad == nil || ad.GetString(core.AttrVMID, "") != string(id) {
			t.Fatalf("deduped answer has no usable classad: %v", ad)
		}
		if n := vmCount(d); n != 1 {
			t.Fatalf("%d VMs exist, want exactly 1", n)
		}
	})
}

// A daemon kill after the plant built the VM but before the commit
// record: Restart's reconcile sweep finds the orphan and commits it
// retroactively; the retry dedupes onto it. One VM, not zero and not
// two.
func TestKillBeforeCommitReconcilesExactlyOnce(t *testing.T) {
	d := newDeployment(t, 2, plant.Config{MaxVMs: 32})
	_, reg := journaled(d)
	reg.Arm("shop", fault.DaemonKill, "commit", 1)
	d.run(t, func(p *sim.Proc) {
		spec := wsSpec(t, "ana", "ufl.edu")
		spec.RequestID = "req-2"
		if _, _, err := d.shop.Create(p, spec); !errors.Is(err, ErrShopDown) {
			t.Fatalf("create survived the kill: %v", err)
		}
		if n := vmCount(d); n != 1 {
			t.Fatalf("plant should hold the orphaned VM, inventory = %d", n)
		}
		st, err := d.shop.Restart(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Reconciled != 1 || st.Redriven != 0 {
			t.Fatalf("restart stats = %+v, want 1 reconciled", st)
		}
		id, _, err := d.shop.Create(p, spec) // client retry
		if err != nil {
			t.Fatal(err)
		}
		if d.shop.RouteOf(id) == "" {
			t.Fatal("reconciled VM has no route")
		}
		if n := vmCount(d); n != 1 {
			t.Fatalf("%d VMs exist, want exactly 1", n)
		}
	})
}

// Routes are rebuilt from commit records at replay time — before any
// query forces a recovery sweep — and a journaled route-drop keeps a
// destroyed VM gone across the restart.
func TestRestartRebuildsRoutesAndHonorsDrops(t *testing.T) {
	d := newDeployment(t, 2, plant.Config{MaxVMs: 32})
	journaled(d)
	d.run(t, func(p *sim.Proc) {
		idA, _, err := d.shop.Create(p, wsSpec(t, "ivan", "ufl.edu"))
		if err != nil {
			t.Fatal(err)
		}
		idB, _, err := d.shop.Create(p, wsSpec(t, "ana", "ufl.edu"))
		if err != nil {
			t.Fatal(err)
		}
		if err := d.shop.Destroy(p, idB); err != nil {
			t.Fatal(err)
		}
		d.shop.Kill()
		if !d.shop.Down() {
			t.Fatal("Kill did not mark the shop down")
		}
		st, err := d.shop.Restart(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Routes != 1 {
			t.Fatalf("replay rebuilt %d routes, want 1", st.Routes)
		}
		if d.shop.RouteOf(idA) == "" {
			t.Fatal("surviving VM lost its route")
		}
		if d.shop.RouteOf(idB) != "" {
			t.Fatal("destroyed VM resurrected by replay")
		}
		if _, err := d.shop.Query(p, idB); err == nil {
			t.Fatal("destroyed VM answered a query")
		}
	})
}

// The bid audit ring is soft state: after Kill and Restart it holds no
// round the dead process ran.
func TestKillForgetsBidAudit(t *testing.T) {
	d := newDeployment(t, 2, plant.Config{MaxVMs: 32})
	journaled(d)
	d.run(t, func(p *sim.Proc) {
		for _, user := range []string{"ivan", "ana"} {
			if _, _, err := d.shop.Create(p, wsSpec(t, user, "ufl.edu")); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(d.shop.Bids()); n != 2 {
			t.Fatalf("%d bid rounds logged, want 2", n)
		}
		d.shop.Kill()
		if _, err := d.shop.Restart(p); err != nil {
			t.Fatal(err)
		}
		if bids := d.shop.Bids(); len(bids) != 0 {
			t.Fatalf("bid audit survived the kill: %+v", bids)
		}
	})
}

// Without a RequestID each submission is a fresh request — the journal
// must not dedupe distinct creations that share a spec.
func TestDistinctRequestsAreNotDeduped(t *testing.T) {
	d := newDeployment(t, 2, plant.Config{MaxVMs: 32})
	journaled(d)
	d.run(t, func(p *sim.Proc) {
		a, _, err := d.shop.Create(p, wsSpec(t, "ivan", "ufl.edu"))
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := d.shop.Create(p, wsSpec(t, "ivan", "ufl.edu"))
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Fatalf("two submissions share VMID %s", a)
		}
		if n := vmCount(d); n != 2 {
			t.Fatalf("%d VMs, want 2", n)
		}
	})
}
