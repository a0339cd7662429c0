package plant

import (
	"testing"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/sim"
)

func TestPrecreateServesRequestsFaster(t *testing.T) {
	r := newRig(t, Config{})
	var coldTook, warmTook time.Duration
	r.run(t, func(p *sim.Proc) {
		// Cold creation: full clone on the critical path.
		start := p.Now()
		if _, err := r.pl.Create(p, "vm-cold", spec(t, "u1")); err != nil {
			t.Fatal(err)
		}
		coldTook = p.Now() - start

		// Speculative pre-creation during idle time.
		if err := r.pl.Precreate(p, "ws-golden", 2); err != nil {
			t.Fatal(err)
		}
		if r.pl.PoolSize("ws-golden") != 2 {
			t.Fatalf("pool size %d", r.pl.PoolSize("ws-golden"))
		}
		// Suspended pool VMs hold no host memory.
		committed := r.tb.Nodes[0].VMs()
		if committed != 1 { // only vm-cold
			t.Errorf("node hosts %d committed VMs, want 1", committed)
		}

		// Warm creation: resume + configure only.
		start = p.Now()
		ad, err := r.pl.Create(p, "vm-warm", spec(t, "u2"))
		if err != nil {
			t.Fatal(err)
		}
		warmTook = p.Now() - start
		if ad.GetString(core.AttrVMID, "") != "vm-warm" {
			t.Errorf("rebrand failed: %s", ad.GetString(core.AttrVMID, ""))
		}
		if r.pl.PoolSize("ws-golden") != 1 {
			t.Errorf("pool size after hit = %d", r.pl.PoolSize("ws-golden"))
		}
	})
	if warmTook >= coldTook*7/10 {
		t.Errorf("precreation did not hide latency: cold %v, warm %v", coldTook, warmTook)
	}
	log := r.pl.CreationLog()
	if log[0].PrecreateHit || !log[1].PrecreateHit {
		t.Errorf("hit flags = %v, %v", log[0].PrecreateHit, log[1].PrecreateHit)
	}
}

func TestPrecreateUnknownImage(t *testing.T) {
	r := newRig(t, Config{})
	r.run(t, func(p *sim.Proc) {
		if err := r.pl.Precreate(p, "ghost", 1); err == nil {
			t.Error("precreate of unknown image succeeded")
		}
	})
}

func TestPrecreatedVMFullyFunctional(t *testing.T) {
	r := newRig(t, Config{})
	r.run(t, func(p *sim.Proc) {
		if err := r.pl.Precreate(p, "ws-golden", 1); err != nil {
			t.Fatal(err)
		}
		ad, err := r.pl.Create(p, "vm-s-1", spec(t, "u1"))
		if err != nil {
			t.Fatal(err)
		}
		// Configuration ran on the resumed clone.
		if ad.GetString(core.AttrIP, "") != "10.1.0.7" {
			t.Errorf("IP = %q", ad.GetString(core.AttrIP, ""))
		}
		vm, _ := r.pl.VM("vm-s-1")
		if !vm.Guest().Users["u1"] {
			t.Error("guest not personalized")
		}
		// Collect works as usual.
		if err := r.pl.Collect(p, "vm-s-1"); err != nil {
			t.Fatal(err)
		}
		if r.tb.Nodes[0].VMs() != 0 {
			t.Error("memory leaked")
		}
	})
}

func TestPoolExhaustionFallsBackToCloning(t *testing.T) {
	r := newRig(t, Config{})
	r.run(t, func(p *sim.Proc) {
		if err := r.pl.Precreate(p, "ws-golden", 1); err != nil {
			t.Fatal(err)
		}
		if _, err := r.pl.Create(p, "vm-1", spec(t, "u1")); err != nil {
			t.Fatal(err)
		}
		// Pool empty: the next request clones on demand.
		if _, err := r.pl.Create(p, "vm-2", spec(t, "u2")); err != nil {
			t.Fatal(err)
		}
		log := r.pl.CreationLog()
		if !log[0].PrecreateHit || log[1].PrecreateHit {
			t.Errorf("hit flags = %v, %v", log[0].PrecreateHit, log[1].PrecreateHit)
		}
	})
}

func TestPoolClonesHoldImageReferences(t *testing.T) {
	r := newRig(t, Config{})
	r.run(t, func(p *sim.Proc) {
		if err := r.pl.Precreate(p, "ws-golden", 2); err != nil {
			t.Fatal(err)
		}
		im, _ := r.wh.Lookup("ws-golden")
		if im.Refs() != 2 {
			t.Errorf("pool refs = %d, want 2", im.Refs())
		}
		// An image with parked clones cannot be retired.
		if err := r.wh.Remove("ws-golden"); err == nil {
			t.Error("removed image with parked clones")
		}
		// Consuming a pool clone transfers its reference to the VM.
		if _, err := r.pl.Create(p, "vm-1", spec(t, "u1")); err != nil {
			t.Fatal(err)
		}
		if im.Refs() != 2 { // 1 pool + 1 live VM
			t.Errorf("refs after hit = %d, want 2", im.Refs())
		}
		if err := r.pl.Collect(p, "vm-1"); err != nil {
			t.Fatal(err)
		}
		if im.Refs() != 1 { // the remaining parked clone
			t.Errorf("refs after collect = %d, want 1", im.Refs())
		}
	})
}

// Regression: a pool hit whose resume fails (the parked memory image is
// gone from the local disk) fell through to a fresh clone and dropped
// the parked VM uncollected, with the pool's image reference never
// released — so the image could never be removed again.
func TestUnusablePrecreatedCloneIsCollected(t *testing.T) {
	r := newRig(t, Config{})
	r.run(t, func(p *sim.Proc) {
		if err := r.pl.Precreate(p, "ws-golden", 1); err != nil {
			t.Fatal(err)
		}
		if err := r.tb.Nodes[0].LocalDisk().Delete("vms/pre-node00-1/mem.vmss"); err != nil {
			t.Fatal(err)
		}
		if _, err := r.pl.Create(p, "vm-s-1", spec(t, "u1")); err != nil {
			t.Fatalf("create did not fall back to a fresh clone: %v", err)
		}
		if log := r.pl.CreationLog(); len(log) != 1 || log[0].PrecreateHit {
			t.Fatalf("creation log = %+v, want one cold creation", log)
		}
		im, _ := r.wh.Lookup("ws-golden")
		if im.Refs() != 1 {
			t.Errorf("image refs = %d after the fallback, want 1 (the pool's reference leaked)", im.Refs())
		}
		if got := r.tb.Nodes[0].VMs(); got != 1 {
			t.Errorf("node hosts %d committed VMs, want 1", got)
		}
		if err := r.pl.Collect(p, "vm-s-1"); err != nil {
			t.Fatal(err)
		}
		if err := r.wh.Remove("ws-golden"); err != nil {
			t.Errorf("image cannot be removed after its last VM is gone: %v", err)
		}
	})
}
