package shop

import (
	"errors"
	"testing"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/fault"
	"vmplants/internal/plant"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
)

func TestBreakerStateMachine(t *testing.T) {
	b := &breaker{cfg: BreakerConfig{Threshold: 2, Cooldown: 10 * time.Second}}
	if !b.allow(0) || b.state != breakerClosed {
		t.Fatal("new breaker not closed")
	}
	b.onFailure(0)
	if b.state != breakerClosed {
		t.Fatal("opened below threshold")
	}
	if !b.onFailure(sim.Seconds(1)) {
		t.Fatal("threshold failure did not report the open transition")
	}
	if b.state != breakerOpen || b.allow(sim.Seconds(2)) {
		t.Fatal("open breaker admitted a call inside the cooldown")
	}
	// Cooldown elapsed: one probe gets through.
	if !b.allow(sim.Seconds(12)) || b.state != breakerHalfOpen {
		t.Fatalf("state %s after cooldown, want half-open", b.state)
	}
	// Half-open failure goes straight back to open...
	if !b.onFailure(sim.Seconds(12)) {
		t.Fatal("half-open failure did not report re-opening")
	}
	if b.state != breakerOpen {
		t.Fatalf("state %s after failed probe, want open", b.state)
	}
	// ...and a successful probe closes it.
	if !b.allow(sim.Seconds(23)) {
		t.Fatal("second probe refused")
	}
	b.onSuccess()
	if b.state != breakerClosed || b.failures != 0 {
		t.Fatalf("state %s failures %d after successful probe", b.state, b.failures)
	}
}

func TestBidTimeoutProceedsWithoutSlowPlant(t *testing.T) {
	// Rules are keyed by site, so a shared registry slows only node00.
	reg := fault.NewRegistry(3)
	reg.SetProb("node00", fault.SlowBid, "", 1.0)
	reg.SetDelay("node00", fault.SlowBid, "", 30*time.Second)
	d := newDeployment(t, 3, plant.Config{MaxVMs: 8, Faults: reg})
	hub := telemetry.New()
	d.shop.SetTelemetry(hub)
	d.shop.BidTimeout = time.Second
	slow := "node00"

	d.run(t, func(p *sim.Proc) {
		start := p.Now()
		id, _, err := d.shop.Create(p, wsSpec(t, "ivan", "ufl.edu"))
		if err != nil {
			t.Fatalf("create under bid timeout: %v", err)
		}
		if got := d.shop.RouteOf(id); got == slow {
			t.Errorf("slow bidder %s won the round", got)
		}
		// The round must not have waited out the 30 s laggard.
		if waited := p.Now() - start; waited > 25*time.Second {
			t.Errorf("create took %s; bid round waited for the laggard", waited)
		}
	})
	if got := hub.Counter("shop.degraded_bid_rounds").Value(); got == 0 {
		t.Error("degraded bid round not counted")
	}
	if got := hub.Gauge("shop.missing_bids").Value(); got != 1 {
		t.Errorf("missing bids gauge = %d, want 1", got)
	}
}

func TestCreateFailsOverOnTransientCloneError(t *testing.T) {
	reg := fault.NewRegistry(4)
	reg.Arm(fault.Wildcard, fault.CloneIO, "", 1)
	d := newDeployment(t, 3, plant.Config{MaxVMs: 8, Faults: reg})
	hub := telemetry.New()
	d.shop.SetTelemetry(hub)

	d.run(t, func(p *sim.Proc) {
		id, ad, err := d.shop.Create(p, wsSpec(t, "ivan", "ufl.edu"))
		if err != nil {
			t.Fatalf("create did not fail over: %v", err)
		}
		if ad.GetString(core.AttrVMID, "") != string(id) {
			t.Error("failover returned a mismatched ad")
		}
	})
	if got := hub.Counter("shop.failovers").Value(); got != 1 {
		t.Errorf("failovers = %d, want 1", got)
	}
	// Exactly one VM exists; the aborted clone left nothing behind.
	total := 0
	for _, pl := range d.plants {
		total += pl.ActiveVMs()
		if free, size := pl.Networks().FreeCount(), pl.Networks().Size(); size-free > pl.ActiveVMs() {
			t.Errorf("%s leaked a host-only network", pl.Name())
		}
	}
	if total != 1 {
		t.Errorf("%d VMs after one request", total)
	}
}

func TestCreateFailsOverWhenPlantCrashesMidCreate(t *testing.T) {
	reg := fault.NewRegistry(5)
	reg.Arm(fault.Wildcard, fault.PlantCrash, "create", 1)
	d := newDeployment(t, 3, plant.Config{MaxVMs: 8, Faults: reg})

	var crashed *plant.Plant
	d.run(t, func(p *sim.Proc) {
		id, _, err := d.shop.Create(p, wsSpec(t, "ivan", "ufl.edu"))
		if err != nil {
			t.Fatalf("create did not fail over past the crash: %v", err)
		}
		for _, pl := range d.plants {
			if pl.Down() {
				crashed = pl
			}
		}
		if crashed == nil {
			t.Fatal("no plant crashed; trigger never fired")
		}
		if d.shop.RouteOf(id) == crashed.Name() {
			t.Error("request routed to the crashed plant")
		}
		// The crashed daemon held no VM mid-create; recovery finds none.
		if n := crashed.Recover(p); n != 0 {
			t.Errorf("recovery on the crashed plant rebuilt %d records, want 0", n)
		}
		if free, size := crashed.Networks().FreeCount(), crashed.Networks().Size(); free != size {
			t.Errorf("crashed plant leaked a network: %d/%d free", free, size)
		}
	})
}

func TestBreakerShieldsRepeatedlyDeadPlant(t *testing.T) {
	d := newDeployment(t, 3, plant.Config{MaxVMs: 8})
	hub := telemetry.New()
	d.shop.SetTelemetry(hub)
	d.shop.Breaker = BreakerConfig{Threshold: 2, Cooldown: 30 * time.Second}

	flaky := d.handles[0]
	reg := fault.NewRegistry(6)
	reg.SetProb(flaky.Name(), fault.RPCDrop, "estimate", 1.0)
	flaky.Faults = reg

	d.run(t, func(p *sim.Proc) {
		// Two creates charge two transport failures; the breaker opens.
		for i := 0; i < 2; i++ {
			if _, _, err := d.shop.Create(p, wsSpec(t, "u"+string(rune('a'+i)), "ufl.edu")); err != nil {
				t.Fatalf("create %d: %v", i, err)
			}
		}
		if got := d.shop.BreakerState(flaky.Name()); got != "open" {
			t.Fatalf("breaker %s after repeated drops, want open", got)
		}
		// While open, rounds skip the plant entirely: no call reaches the
		// transport, so the drop rule fires no further injections.
		drops := reg.Count(flaky.Name(), fault.RPCDrop, "estimate")
		if _, _, err := d.shop.Create(p, wsSpec(t, "uc", "ufl.edu")); err != nil {
			t.Fatal(err)
		}
		if got := reg.Count(flaky.Name(), fault.RPCDrop, "estimate"); got != drops {
			t.Errorf("open breaker still sent a call to the dead plant (%d drops, was %d)", got, drops)
		}
		// Transport heals; after the cooldown the half-open probe closes it.
		reg.SetProb(flaky.Name(), fault.RPCDrop, "estimate", 0)
		p.Sleep(40 * time.Second)
		if _, _, err := d.shop.Create(p, wsSpec(t, "ud", "ufl.edu")); err != nil {
			t.Fatal(err)
		}
		if got := d.shop.BreakerState(flaky.Name()); got != "closed" {
			t.Errorf("breaker %s after successful probe, want closed", got)
		}
	})
	if got := hub.Counter("shop.breaker_opens").Value(); got != 1 {
		t.Errorf("breaker_opens = %d, want 1", got)
	}
}

// Satellite: a journal-less shop killed and restarted while one plant
// is down must drop that plant's routes — not fabricate them — and
// re-learn them, on demand, once the plant daemon returns.
func TestShopRecoverWithSubsetOfPlantsDown(t *testing.T) {
	d := newDeployment(t, 3, plant.Config{MaxVMs: 8})
	hub := telemetry.New()
	d.shop.SetTelemetry(hub)
	relearned := hub.Counter("shop.recovered_routes")
	d.run(t, func(p *sim.Proc) {
		ids := make([]core.VMID, 0, 6)
		for i := 0; i < 6; i++ {
			id, _, err := d.shop.Create(p, wsSpec(t, "u"+string(rune('a'+i)), "ufl.edu"))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		// Crash whichever plant hosts the first VM.
		victim := d.shop.RouteOf(ids[0])
		var down *plant.Plant
		lost := map[core.VMID]bool{}
		for _, pl := range d.plants {
			if pl.Name() == victim {
				down = pl
			}
		}
		for _, id := range ids {
			if d.shop.RouteOf(id) == victim {
				lost[id] = true
			}
		}
		down.Crash()

		d.shop.Kill()
		st, err := d.shop.Restart(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Routes != 0 {
			t.Fatalf("journal-less restart brought back %d routes, want 0", st.Routes)
		}
		// Each VM is re-learned when first asked for; the dead plant's
		// are unknown, and routed nowhere.
		for _, id := range ids {
			_, qerr := d.shop.Query(p, id)
			got := d.shop.RouteOf(id)
			switch {
			case lost[id] && got != "":
				t.Errorf("fabricated route %s for VM %s on the dead plant", got, id)
			case lost[id] && !errors.Is(qerr, ErrUnknownVM):
				t.Errorf("query of VM %s on the dead plant: %v, want ErrUnknownVM", id, qerr)
			case !lost[id] && (qerr != nil || got == ""):
				t.Errorf("VM %s on a live plant: query %v, route %q", id, qerr, got)
			}
		}
		if n := relearned.Value(); n != int64(len(ids)-len(lost)) {
			t.Errorf("re-learned %d routes, want %d", n, len(ids)-len(lost))
		}

		// The plant daemon restarts; the next call finds its VMs again.
		down.Recover(p)
		for id := range lost {
			if _, err := d.shop.Query(p, id); err != nil {
				t.Errorf("query %s after the plant returned: %v", id, err)
			}
			if got := d.shop.RouteOf(id); got != victim {
				t.Errorf("VM %s routed to %q after restart, want %s", id, got, victim)
			}
		}
		if n := relearned.Value(); n != int64(len(ids)) {
			t.Errorf("re-learned %d routes after the plant returned, want %d", n, len(ids))
		}
		// End to end: the re-learned routes actually work.
		for _, id := range ids {
			if err := d.shop.Destroy(p, id); err != nil {
				t.Errorf("destroy %s through recovered route: %v", id, err)
			}
		}
	})
}
