package plant

import (
	"fmt"
	"math/rand"
	"testing"

	"vmplants/internal/actions"
	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/dag"
	"vmplants/internal/fault"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
	"vmplants/internal/warehouse"
)

func TestDerivedCloneSlots(t *testing.T) {
	r := newRig(t, Config{})
	// Default testbed node: 1536 MB RAM → 4 slots by memory, 35 MB/s
	// local disk → 3 by disk; the scarcer resource wins.
	if got := r.pl.CloneSlots(); got != 3 {
		t.Errorf("derived CloneSlots = %d, want 3", got)
	}
	ad := r.pl.ResourceAd()
	if got := ad.GetInt("CloneSlots", -1); got != 3 {
		t.Errorf("ad CloneSlots = %d", got)
	}
	if got := ad.GetInt("InflightClones", -1); got != 0 {
		t.Errorf("ad InflightClones = %d", got)
	}
}

// TestResourceAdAllocations pins what a bid and a query cost in
// allocations: the ad and its reserved attributes, as the image list
// is the warehouse's, shared (the race detector's build counts one
// more); one slice for a copy; nothing to read a value.
func TestResourceAdAllocations(t *testing.T) {
	r := newRig(t, Config{PolicyAd: classad.New().SetBool("AcceptsGuests", true)})
	ad := r.pl.ResourceAd()
	if ad.Len() != 10 {
		t.Fatalf("resource ad has %d attributes: %s", ad.Len(), ad)
	}
	for _, c := range []struct {
		what string
		max  float64
		fn   func()
	}{
		{"ResourceAd", 3, func() { r.pl.ResourceAd() }},
		{"Clone", 2, func() { ad.Clone() }},
		{"GetInt", 0, func() { ad.GetInt("CloneSlots", 0) }},
	} {
		if got := testing.AllocsPerRun(100, c.fn); got > c.max {
			t.Errorf("%s: %v allocations, want at most %v", c.what, got, c.max)
		}
	}
}

// TestEstimateAllocations pins a bid over a catalog the size of the
// benchmark's catalog workload: 67 golden images, of which ten pass
// the matcher's tests. The bid reads the warehouse's shared candidate
// list and asks only whether some image passes, so it allocates
// nothing: no copy of the catalog, and no plan.
func TestEstimateAllocations(t *testing.T) {
	r := newRig(t, Config{})
	rng := rand.New(rand.NewSource(1))
	publish := func(name string, mem int, hist []dag.Action) {
		hw := core.HardwareSpec{Arch: "x86", MemoryMB: mem, DiskMB: 2048}
		im, err := warehouse.BuildGolden(name, hw, warehouse.BackendVMware, hist)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.wh.Publish(im); err != nil {
			t.Fatal(err)
		}
	}
	publish("ws-golden-32", 32, goldenHistory())
	publish("ws-golden-256", 256, goldenHistory())
	distros := []string{"mandrake-8.1", "mandrake-8.1", "redhat-8.0"}
	extras := []string{"gcc", "matlab", "octave", "gaussian", "namd", "blast"}
	for i := 0; i < 30; i++ {
		hist := []dag.Action{act(actions.OpInstallOS, "distro", distros[rng.Intn(len(distros))])}
		if rng.Intn(2) == 0 {
			hist = append(hist, act(actions.OpInstallPackage, "name", "vnc-server"))
		}
		for _, j := range rng.Perm(len(extras))[:rng.Intn(3)] {
			hist = append(hist, act(actions.OpInstallPackage, "name", extras[j]))
		}
		publish(fmt.Sprintf("seed-%02d", i), 64, hist)
	}
	parent, _ := r.wh.Lookup("ws-golden")
	for u := 0; u < 34; u++ {
		user := fmt.Sprintf("user%02d", u)
		im, err := warehouse.BuildDerived("derived-"+user, parent, append(goldenHistory(),
			act(actions.OpConfigureNetwork, "ip", fmt.Sprintf("10.1.0.%d", u)),
			act(actions.OpCreateUser, "name", user)))
		if err != nil {
			t.Fatal(err)
		}
		if err := r.wh.PublishDerived(im, 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(r.wh.Candidates(warehouse.BackendVMware)); n != 67 {
		t.Fatalf("%d candidates, want 67", n)
	}
	// No image has user40's account, so the winner leaves a residual.
	sp := spec(t, "user40")
	r.run(t, func(p *sim.Proc) {
		if best, err := r.pl.plan(sp); err != nil || len(best.Result.Residual) != 2 {
			t.Fatalf("plan = %+v, %v", best, err)
		}
		if got := testing.AllocsPerRun(50, func() { r.pl.Estimate(p, sp) }); got != 0 {
			t.Errorf("Estimate over 67 images: %v allocations, want 0", got)
		}
	})
}

func TestAdmissionCapUnderBurst(t *testing.T) {
	hub := telemetry.New()
	const slots, burst = 2, 64
	r := newRig(t, Config{CloneSlots: slots, Telemetry: hub})
	errs := make([]error, burst)
	for i := 0; i < burst; i++ {
		i := i
		r.k.Spawn(fmt.Sprintf("burst-%d", i), func(p *sim.Proc) {
			id := core.VMID(fmt.Sprintf("vm-b-%d", i))
			_, errs[i] = r.pl.Create(p, id, spec(t, fmt.Sprintf("user%02d", i)))
		})
	}
	res := r.k.Run(0)
	if len(res.Stranded) != 0 {
		t.Fatalf("stranded: %v", res.Stranded)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("create %d: %v", i, err)
		}
	}
	if got := r.pl.ActiveVMs(); got != burst {
		t.Errorf("%d active VMs, want %d", got, burst)
	}
	// The cap saturated — real concurrency happened — but was never
	// exceeded: the high-water gauge is updated at every admission.
	if got := r.pl.MaxInflightClones(); got != slots {
		t.Errorf("max in-flight clones = %d, want exactly %d", got, slots)
	}
	if got := r.pl.InflightClones(); got != 0 {
		t.Errorf("%d clones still admitted after the run", got)
	}
	if got := r.pl.AdmissionQueueLen(); got != 0 {
		t.Errorf("%d creations still queued after the run", got)
	}
	// Every creation went through the gate, and queuing was real: with
	// 64 requests and 2 slots most of them waited.
	wait := hub.Histogram("plant.admission_wait_secs").Snapshot()
	if wait.N != burst {
		t.Errorf("admission waits recorded = %d, want %d", wait.N, burst)
	}
	if wait.Max <= 0 {
		t.Errorf("admission wait max = %v, expected queuing under the burst", wait.Max)
	}
}

// TestAdmissionGateReleasedOnError drives a creation into an injected
// clone I/O failure and checks the slot is returned: with a single slot
// a leak would deadlock every later creation.
func TestAdmissionGateReleasedOnError(t *testing.T) {
	reg := fault.NewRegistry(11)
	reg.Arm("node00", fault.CloneIO, "", 1)
	r := newRig(t, Config{CloneSlots: 1, Faults: reg})
	r.run(t, func(p *sim.Proc) {
		if _, err := r.pl.Create(p, "vm-g-1", spec(t, "gate")); err == nil {
			t.Fatal("create survived the injected clone I/O fault")
		}
		if got := r.pl.InflightClones(); got != 0 {
			t.Fatalf("slot leaked by the failed create: %d held", got)
		}
		if _, err := r.pl.Create(p, "vm-g-2", spec(t, "gate")); err != nil {
			t.Fatalf("create after failure: %v", err)
		}
		if got := r.pl.InflightClones(); got != 0 {
			t.Errorf("slot still held after create: %d", got)
		}
	})
}
