package plant

import (
	"errors"
	"maps"
	"strings"
	"testing"
	"time"

	"vmplants/internal/actions"
	"vmplants/internal/cluster"
	"vmplants/internal/core"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
	"vmplants/internal/vdisk"
	"vmplants/internal/warehouse"
)

// twoPlantRig builds two plants sharing one warehouse.
func twoPlantRig(t *testing.T, cfg Config) (*sim.Kernel, *cluster.Testbed, *Plant, *Plant) {
	t.Helper()
	k := sim.NewKernel()
	tb := cluster.NewTestbed(k, 2, cluster.DefaultParams(), 13)
	wh := warehouse.New(tb.Warehouse)
	hw := core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: 2048}
	im, err := warehouse.BuildGolden("ws-golden", hw, warehouse.BackendVMware, goldenHistory())
	if err != nil {
		t.Fatal(err)
	}
	if err := wh.Publish(im); err != nil {
		t.Fatal(err)
	}
	a := New("plantA", tb.Nodes[0], wh, cfg)
	b := New("plantB", tb.Nodes[1], wh, cfg)
	return k, tb, a, b
}

func runK(t *testing.T, k *sim.Kernel, body func(p *sim.Proc)) {
	t.Helper()
	k.Spawn("test", body)
	res := k.Run(0)
	if len(res.Stranded) != 0 {
		t.Fatalf("stranded: %v", res.Stranded)
	}
}

func TestMigrateMovesVMAndResources(t *testing.T) {
	k, tb, a, b := twoPlantRig(t, Config{})
	runK(t, k, func(p *sim.Proc) {
		if _, err := a.Create(p, "vm-m-1", spec(t, "u1")); err != nil {
			t.Fatal(err)
		}
		vm, _ := a.VM("vm-m-1")
		macBefore := vm.MAC()
		guestIP := vm.Guest().IP

		start := p.Now()
		if err := a.MigrateTo(p, "vm-m-1", b); err != nil {
			t.Fatal(err)
		}
		migTime := p.Now() - start

		// Ownership moved.
		if a.ActiveVMs() != 0 || b.ActiveVMs() != 1 {
			t.Errorf("VM counts: a=%d b=%d", a.ActiveVMs(), b.ActiveVMs())
		}
		if _, ok := a.VM("vm-m-1"); ok {
			t.Error("source still holds the VM")
		}
		moved, ok := b.VM("vm-m-1")
		if !ok {
			t.Fatal("destination does not hold the VM")
		}
		// Memory accounting moved between nodes.
		if tb.Nodes[0].VMs() != 0 || tb.Nodes[1].VMs() != 1 {
			t.Errorf("node commits: %d, %d", tb.Nodes[0].VMs(), tb.Nodes[1].VMs())
		}
		// Guest state, identity and MAC preserved.
		if moved.Guest().IP != guestIP || moved.MAC() != macBefore {
			t.Error("guest identity lost in migration")
		}
		// The VM's files left the source node with it.
		if files := tb.Nodes[0].LocalDisk().List(); len(files) != 0 {
			t.Errorf("source node still holds %q", files)
		}
		// Source's host-only network freed, destination's allocated.
		if a.Networks().FreeCount() != a.Networks().Size() {
			t.Error("source network leaked")
		}
		if !b.Networks().HasDomain("ufl.edu") {
			t.Error("destination network missing")
		}
		// Migration is seconds (state streams over gigabit), not a
		// full re-creation.
		if migTime <= 0 || migTime > 30*time.Second {
			t.Errorf("migration took %v", migTime)
		}
		// The classad follows the VM.
		ad, ok := b.Query(p, "vm-m-1")
		if !ok || ad.GetString(core.AttrPlant, "") != "plantB" {
			t.Errorf("ad after migration: %v", ad)
		}
		// The VM still serves guest actions on the new node.
		if err := moved.ExecGuestAction(p, act("run-script", "script", "post-migrate.sh", "seconds", "1")); err != nil {
			t.Errorf("guest dead after migration: %v", err)
		}
		// And can be collected on the destination.
		if err := b.Collect(p, "vm-m-1"); err != nil {
			t.Fatal(err)
		}
		if tb.Nodes[1].VMs() != 0 {
			t.Error("destination memory leaked after collect")
		}
		if files := tb.Nodes[1].LocalDisk().List(); len(files) != 0 {
			t.Errorf("destination node still holds %q after collect", files)
		}
	})
}

func TestMigrateErrors(t *testing.T) {
	k, _, a, b := twoPlantRig(t, Config{MaxVMs: 1})
	runK(t, k, func(p *sim.Proc) {
		if err := a.MigrateTo(p, "vm-ghost", b); err == nil {
			t.Error("migrate of unknown VM succeeded")
		}
		if _, err := a.Create(p, "vm-1", spec(t, "u1")); err != nil {
			t.Fatal(err)
		}
		// Destination at capacity.
		if _, err := b.Create(p, "vm-2", spec(t, "u2")); err != nil {
			t.Fatal(err)
		}
		if err := a.MigrateTo(p, "vm-1", b); err == nil {
			t.Error("migrate into a full plant succeeded")
		}
		// Self-migration is a no-op.
		if err := a.MigrateTo(p, "vm-1", a); err != nil {
			t.Errorf("self migration: %v", err)
		}
		if a.ActiveVMs() != 1 {
			t.Error("self migration lost the VM")
		}
	})
}

func TestMigrateRespectsDomainIsolation(t *testing.T) {
	// Destination has a single host-only network held by another domain:
	// migration must fail cleanly and leave the source untouched.
	k, _, a, b := twoPlantRig(t, Config{HostOnlyNetworks: 1})
	runK(t, k, func(p *sim.Proc) {
		if _, err := a.Create(p, "vm-1", spec(t, "u1")); err != nil {
			t.Fatal(err)
		}
		other := spec(t, "u2")
		other.Domain = "nwu.edu"
		if _, err := b.Create(p, "vm-2", other); err != nil {
			t.Fatal(err)
		}
		if err := a.MigrateTo(p, "vm-1", b); err == nil {
			t.Error("migration into a domain-exhausted plant succeeded")
		}
		if a.ActiveVMs() != 1 {
			t.Error("failed migration lost the source VM")
		}
		vm, _ := a.VM("vm-1")
		if vm.State().String() != "running" {
			// The abort path leaves the VM suspended on the source; the
			// plant record is intact either way — assert it still exists
			// and can be collected.
			t.Logf("VM left %s after aborted migration", vm.State())
		}
	})
}

// A creation in flight on the destination holds a slot: a migration
// started meanwhile must not take it, or the destination ends above
// MaxVMs once both land.
func TestMigrateCountsDestinationCreations(t *testing.T) {
	k, _, a, b := twoPlantRig(t, Config{MaxVMs: 2})
	runK(t, k, func(p *sim.Proc) {
		createOrFatal(t, p, a, "vm-a", spec(t, "u1"))
		createOrFatal(t, p, b, "vm-b1", spec(t, "u2"))
		done := false
		p.Kernel().Spawn("create-b2", func(cp *sim.Proc) {
			createOrFatal(t, cp, b, "vm-b2", spec(t, "u3"))
			done = true
		})
		p.Sleep(time.Second)
		if err := a.MigrateTo(p, "vm-a", b); err == nil {
			t.Error("migration took the slot of a creation in flight")
		}
		for !done {
			p.Sleep(time.Second)
		}
		if a.ActiveVMs() != 1 || b.ActiveVMs() != 2 {
			t.Errorf("VM counts: a=%d b=%d, want 1 and 2", a.ActiveVMs(), b.ActiveVMs())
		}
	})
}

// A migration in flight holds its destination slot: a creation started
// meanwhile is refused transiently instead of overshooting MaxVMs.
func TestMigrationHoldsDestinationSlot(t *testing.T) {
	k, _, a, b := twoPlantRig(t, Config{MaxVMs: 2})
	runK(t, k, func(p *sim.Proc) {
		createOrFatal(t, p, a, "vm-a", spec(t, "u1"))
		createOrFatal(t, p, b, "vm-b1", spec(t, "u2"))
		done := false
		p.Kernel().Spawn("migrate", func(mp *sim.Proc) {
			if err := a.MigrateTo(mp, "vm-a", b); err != nil {
				t.Error(err)
			}
			done = true
		})
		p.Sleep(10 * time.Millisecond)
		if done {
			t.Fatal("migration finished before the creation could race it")
		}
		if _, err := b.Create(p, "vm-b2", spec(t, "u3")); !errors.Is(err, core.ErrTransient) {
			t.Errorf("creation during the migration: %v, want a transient capacity refusal", err)
		}
		for !done {
			p.Sleep(time.Second)
		}
		if a.ActiveVMs() != 0 || b.ActiveVMs() != 2 {
			t.Errorf("VM counts: a=%d b=%d, want 0 and 2", a.ActiveVMs(), b.ActiveVMs())
		}
	})
}

// A lazy clone migrates at any age: one second after its creation, its
// disk moves to a node whose image cache is cold, which serves what it
// holds and demand-faults the rest. The next block the guest writes is
// one fault on the destination; the source keeps nothing of the VM
// under vms/ and every entry of its cache as it was.
func TestYoungLazyCloneMigratesToAColdCache(t *testing.T) {
	hub := telemetry.New()
	k, tb, a, b := twoPlantRig(t, Config{CloneMode: vdisk.CloneByLazy, Telemetry: hub})
	src := tb.Nodes[0].LocalDisk()
	cache := func() map[string]uint64 {
		sums := map[string]uint64{}
		for _, path := range src.List() {
			if strings.HasPrefix(path, warehouse.CacheDir) {
				sums[path], _ = src.Checksum(path)
			}
		}
		return sums
	}
	runK(t, k, func(p *sim.Proc) {
		createOrFatal(t, p, a, "vm-a", spec(t, "alice"))
		p.Sleep(time.Second)
		before := cache()
		if err := a.MigrateTo(p, "vm-a", b); err != nil {
			t.Fatal(err)
		}
		vm, ok := b.VM("vm-a")
		if !ok {
			t.Fatal("destination does not hold the VM")
		}
		faults := hub.Counter("plant.demand_faults").Value()
		if err := vm.ExecGuestAction(p, act(actions.OpCreateUser, "name", "zed", "seconds", "0")); err != nil {
			t.Fatal(err)
		}
		if got := hub.Counter("plant.demand_faults").Value(); got != faults+1 {
			t.Errorf("the guest's next write after the move took %d demand faults, want 1", got-faults)
		}
		for _, path := range src.List() {
			if strings.HasPrefix(path, "vms/") {
				t.Errorf("source node still holds %s", path)
			}
		}
		if after := cache(); !maps.Equal(after, before) {
			t.Errorf("source cache went from %v to %v across the migration", before, after)
		}
	})
	if !a.AllHydrated() || !b.AllHydrated() {
		t.Errorf("AllHydrated: source %v, destination %v", a.AllHydrated(), b.AllHydrated())
	}
}
