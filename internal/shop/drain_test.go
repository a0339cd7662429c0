package shop

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/fault"
	"vmplants/internal/plant"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
	"vmplants/internal/vdisk"
)

// seedPlantB parks one VM of an off-domain directly on the deployment's
// second plant, so plant 0 always bids strictly cheaper for the test
// domain (plant 1 pays the same new-network cost plus one more VM of
// compute) — deterministic winners without touching the tie-break RNG.
func seedPlantB(t *testing.T, p *sim.Proc, d *deployment) {
	t.Helper()
	if _, err := d.plants[1].Create(p, "vm-seed-b", wsSpec(t, "seed", "seed.org")); err != nil {
		t.Fatal(err)
	}
}

// Regression for the stale-bid dispatch race: plant 0 bids (cheapest)
// in a concurrent round, begins draining while the round is still open
// waiting on plant 1's delayed estimate, and the round then closes with
// plant 0's now-stale bid in hand. The dispatch-time recheck must skip
// the draining winner and re-pick — counting a stale bid, not a
// failover (nothing was dispatched), and never handing the draining
// plant the order. Before the recheck existed this test failed:
// dispatch reached the draining plant, which refused with a transient
// error, and the creation burned a round trip and a failover.
func TestStaleBidRecheckedAtDispatch(t *testing.T) {
	d := newDeployment(t, 2, plant.Config{MaxVMs: 32})
	hub := telemetry.New()
	d.shop.SetTelemetry(hub)
	d.shop.BidTimeout = 2 * time.Second
	reg := fault.NewRegistry(5)
	d.handles[1].Faults = reg
	reg.SetDelay(d.handles[1].Name(), fault.RPCDelay, "estimate", 500*time.Millisecond)
	reg.Arm(d.handles[1].Name(), fault.RPCDelay, "estimate", 1)

	d.run(t, func(p *sim.Proc) {
		seedPlantB(t, p, d)
		p.Kernel().Spawn("drainer", func(dp *sim.Proc) {
			// Plant 0's bid lands in ~8 ms; plant 1's not before 500 ms.
			// The drain begins squarely inside that window.
			dp.Sleep(250 * time.Millisecond)
			if err := d.shop.BeginDrain(dp, d.handles[0].Name()); err != nil {
				t.Error(err)
			}
		})
		id, ad, err := d.shop.Create(p, wsSpec(t, "ivan", "ufl.edu"))
		if err != nil {
			t.Fatal(err)
		}
		if got := ad.GetString(core.AttrPlant, ""); got != d.handles[1].Name() {
			t.Errorf("VM landed on %s, want the non-draining %s", got, d.handles[1].Name())
		}
		if n := hub.Counter("shop.stale_bids").Value(); n != 1 {
			t.Errorf("stale_bids = %d, want 1", n)
		}
		if n := hub.Counter("shop.failovers").Value(); n != 0 {
			t.Errorf("failovers = %d, want 0 (a stale-bid skip is not a dispatch failure)", n)
		}
		if d.shop.RouteOf(id) != d.handles[1].Name() {
			t.Errorf("route = %s", d.shop.RouteOf(id))
		}
	})
}

// Drain-vs-inflight property sweep: one creation is started on the
// plant that will win the auction, and a competing drain of that plant
// begins after every boundary of the creation pipeline — before the
// round (bid not yet won), right at dispatch, during the clone state
// copy, while the lazy clone hydrates, and during configuration. In
// every interleaving the invariant is the same: the creation completes
// (on the drained plant and is then migrated off, or failed over to the
// other plant mid-round), the drain retires an empty plant, and exactly
// the expected VMs exist afterwards — never an orphan, never a VM
// stranded on a retired plant.
func TestDrainVsInflightSweep(t *testing.T) {
	delays := []struct {
		name  string
		delay time.Duration
	}{
		{"before-round", 0},
		{"bid-won", 20 * time.Millisecond},
		{"admitted", 120 * time.Millisecond},
		{"cloning", 2 * time.Second},
		{"hydrating", 20 * time.Second},
		{"configuring", 2 * time.Minute},
	}
	for _, tc := range delays {
		t.Run(tc.name, func(t *testing.T) {
			d := newDeployment(t, 2, plant.Config{MaxVMs: 32, CloneMode: vdisk.CloneByLazy})
			target := d.handles[0].Name()
			d.run(t, func(p *sim.Proc) {
				seedPlantB(t, p, d)
				var drained bool
				p.Kernel().Spawn("drainer", func(dp *sim.Proc) {
					dp.Sleep(tc.delay)
					if err := d.shop.DrainAndRetire(dp, target); err != nil {
						t.Errorf("drain at %s: %v", tc.name, err)
					}
					drained = true
				})
				id, _, err := d.shop.Create(p, wsSpec(t, "ivan", "ufl.edu"))
				if err != nil {
					t.Fatalf("create with drain at %s: %v", tc.name, err)
				}
				// Let the drain finish before auditing.
				for !drained {
					p.Sleep(time.Second)
				}
				if !d.shop.Retired(target) {
					t.Error("plant not retired")
				}
				if n := d.plants[0].ActiveVMs(); n != 0 {
					t.Errorf("retired plant still hosts %d VMs", n)
				}
				if total := d.plants[0].ActiveVMs() + d.plants[1].ActiveVMs(); total != 2 {
					t.Errorf("%d VMs exist, want 2 (the creation and the seed)", total)
				}
				if _, err := d.shop.Query(p, id); err != nil {
					t.Errorf("created VM lost after drain: %v", err)
				}
				if r := d.shop.RouteOf(id); r == target {
					t.Errorf("route still points at retired plant %s", r)
				}
				// A retired plant never re-enters the rotation.
				if _, ad, err := d.shop.Create(p, wsSpec(t, "ana", "ufl.edu")); err != nil {
					t.Fatal(err)
				} else if got := ad.GetString(core.AttrPlant, ""); got == target {
					t.Errorf("new creation landed on retired plant %s", got)
				}
			})
		})
	}
}

// kill -9 lands immediately after the drain-begin record: the daemon
// forgets everything soft, but the journal remembers the open drain.
// Restart must resume and finish it — migrating the hosted VMs off,
// retiring the plant durably — and no re-drive or later creation may
// ever route to the retired plant, across yet another kill/restart.
func TestKillMidDrainResumesOnRestart(t *testing.T) {
	d := newDeployment(t, 2, plant.Config{MaxVMs: 32})
	_, reg := journaled(d)
	reg.Arm("shop", fault.DaemonKill, "drain", 1)
	target := d.handles[0].Name()
	d.run(t, func(p *sim.Proc) {
		seedPlantB(t, p, d)
		var ids []core.VMID
		for i := 0; i < 3; i++ {
			id, _, err := d.shop.Create(p, wsSpec(t, fmt.Sprintf("u%d", i), "ufl.edu"))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		if err := d.shop.DrainAndRetire(p, target); !errors.Is(err, ErrShopDown) {
			t.Fatalf("drain survived the kill: %v", err)
		}
		if _, err := d.shop.Restart(p); err != nil {
			t.Fatal(err)
		}
		open := d.shop.OpenDrains()
		if len(open) != 1 || open[0] != target {
			t.Fatalf("OpenDrains = %v, want [%s]", open, target)
		}
		if !d.plants[0].Draining() {
			t.Error("replay did not re-mark the plant draining")
		}
		if err := d.shop.ResumeDrains(p); err != nil {
			t.Fatal(err)
		}
		if !d.shop.Retired(target) || !d.plants[0].RetiredPlant() {
			t.Error("resumed drain did not retire the plant")
		}
		if n := d.plants[0].ActiveVMs(); n != 0 {
			t.Errorf("retired plant still hosts %d VMs", n)
		}
		// Every VM survived the drain: queryable, not routed to the corpse.
		for _, id := range ids {
			if _, err := d.shop.Query(p, id); err != nil {
				t.Errorf("VM %s lost across the drain: %v", id, err)
			}
			if r := d.shop.RouteOf(id); r == target || r == "" {
				t.Errorf("VM %s routed to %q after retirement", id, r)
			}
		}
		// Retirement is durable: a second kill -9 and restart must not
		// resurrect the plant, and reconciliation must not touch it.
		d.shop.Kill()
		if _, err := d.shop.Restart(p); err != nil {
			t.Fatal(err)
		}
		if !d.shop.Retired(target) {
			t.Error("retirement lost across kill/restart")
		}
		if len(d.shop.OpenDrains()) != 0 {
			t.Errorf("OpenDrains after retirement = %v", d.shop.OpenDrains())
		}
		for _, h := range d.shop.Plants() {
			if h.Name() == target {
				t.Error("retired plant re-entered the fleet on restart")
			}
		}
		if _, ad, err := d.shop.Create(p, wsSpec(t, "after", "ufl.edu")); err != nil {
			t.Fatal(err)
		} else if got := ad.GetString(core.AttrPlant, ""); got == target {
			t.Errorf("post-restart creation landed on retired plant %s", got)
		}
	})
}

// The bounded front door: a burst beyond the queue bound is shed with
// ErrOverload — transient by construction, so every shed client's
// backoff-and-retry eventually lands. Nothing is built or journaled for
// a shed request.
func TestOverloadShedsRetryably(t *testing.T) {
	d := newDeployment(t, 2, plant.Config{MaxVMs: 32})
	hub := telemetry.New()
	d.shop.SetTelemetry(hub)
	d.shop.SetAdmission(AdmissionConfig{MaxInflight: 1, MaxQueue: 1})
	const clients = 6
	var done, shed int
	for i := 0; i < clients; i++ {
		i := i
		d.k.Spawn(fmt.Sprintf("client%d", i), func(p *sim.Proc) {
			for {
				_, _, err := d.shop.Create(p, wsSpec(t, fmt.Sprintf("u%d", i), "ufl.edu"))
				if err == nil {
					done++
					return
				}
				if !errors.Is(err, ErrOverload) {
					t.Errorf("client %d: non-overload failure: %v", i, err)
					return
				}
				if !errors.Is(err, core.ErrTransient) {
					t.Errorf("client %d: shed error is not transient: %v", i, err)
					return
				}
				shed++
				p.Sleep(30 * time.Second)
			}
		})
	}
	res := d.k.Run(0)
	if len(res.Stranded) != 0 {
		t.Fatalf("stranded: %v", res.Stranded)
	}
	if done != clients {
		t.Errorf("%d of %d clients finished", done, clients)
	}
	if shed == 0 {
		t.Error("burst of 6 against inflight 1 + queue 1 shed nothing")
	}
	if got := hub.Counter("shop.shed_creates").Value(); got != int64(shed) {
		t.Errorf("shed_creates = %d, clients saw %d", got, shed)
	}
}

// Deadline-aware shedding: even with queue slots free, an arrival whose
// projected wait blows the admission SLO is refused on the spot.
func TestOverloadShedsOnProjectedWait(t *testing.T) {
	d := newDeployment(t, 2, plant.Config{MaxVMs: 32})
	d.shop.SetAdmission(AdmissionConfig{
		MaxInflight:     1,
		MaxQueue:        100, // queue bound alone would admit everything
		MaxWait:         time.Minute,
		ServiceEstimate: 10 * time.Minute,
	})
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		i := i
		d.k.Spawn(fmt.Sprintf("client%d", i), func(p *sim.Proc) {
			p.Sleep(time.Duration(i) * time.Second) // strict arrival order
			_, _, errs[i] = d.shop.Create(p, wsSpec(t, fmt.Sprintf("u%d", i), "ufl.edu"))
		})
	}
	if res := d.k.Run(0); len(res.Stranded) != 0 {
		t.Fatalf("stranded: %v", res.Stranded)
	}
	if errs[0] != nil {
		t.Errorf("first arrival shed with a free slot: %v", errs[0])
	}
	if !errors.Is(errs[1], ErrOverload) {
		t.Errorf("second arrival not shed on projected wait: %v", errs[1])
	}
}

// Scale-up: AddPlant wires a new plant into the rotation mid-flight,
// and a retired name can never come back.
func TestAddPlantAndRetiredNameStaysDead(t *testing.T) {
	d := newDeployment(t, 2, plant.Config{MaxVMs: 32})
	d.run(t, func(p *sim.Proc) {
		if err := d.shop.DrainAndRetire(p, d.handles[0].Name()); err != nil {
			t.Fatal(err)
		}
		if err := d.shop.AddPlant(d.handles[0]); err == nil {
			t.Error("retired plant re-added")
		}
		if err := d.shop.AddPlant(d.handles[1]); err == nil {
			t.Error("duplicate plant added")
		}
		if !d.shop.Retired(d.handles[0].Name()) {
			t.Errorf("%s not retired", d.handles[0].Name())
		}
		if name := d.handles[1].Name(); d.shop.Retired(name) || d.shop.Draining(name) {
			t.Errorf("%s not active", name)
		}
	})
}
