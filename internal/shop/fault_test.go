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

// The bidding round asks every plant in turn and waits for each answer,
// as the shop daemon does over TCP: a slow bidder delays the creation by
// its stall and still bids.
func TestBiddingRoundWaitsForSlowPlant(t *testing.T) {
	const victim = "node00"
	// Rules are keyed by site, so a shared registry slows only node00.
	reg := fault.NewRegistry(3)
	reg.SetProb(victim, fault.SlowBid, "", 1.0)
	reg.SetDelay(victim, fault.SlowBid, "", 30*time.Second)
	d := newDeployment(t, 3, plant.Config{MaxVMs: 8, Faults: reg})
	d.run(t, func(p *sim.Proc) {
		start := p.Now()
		if _, _, err := d.shop.Create(p, wsSpec(t, "ivan", "ufl.edu")); err != nil {
			t.Fatal(err)
		}
		if waited := p.Now() - start; waited < 30*time.Second {
			t.Errorf("create took %s; the round did not wait out the 30 s stall", waited)
		}
	})
	bids := d.shop.Bids()
	if _, ok := bids[len(bids)-1].Costs[victim]; !ok {
		t.Errorf("the slow bidder's bid is missing from the round: %v", bids[len(bids)-1].Costs)
	}
}

// A dead plant costs the bidding round exactly one call timeout and is
// left out of it: with no circuit breaker, the round still asks it once.
func TestBiddingRoundPaysOneTimeoutForDeadPlant(t *testing.T) {
	const victim = "node00"
	// round creates one VM with node00's handle set up by arm and
	// returns how long its bidding round took and where the VM landed.
	round := func(t *testing.T, arm func(h *LocalHandle)) (time.Duration, string) {
		d := newDeployment(t, 3, plant.Config{MaxVMs: 8})
		hub := telemetry.New()
		d.shop.SetTelemetry(hub)
		arm(d.handles[0])
		var route string
		d.run(t, func(p *sim.Proc) {
			id, _, err := d.shop.Create(p, wsSpec(t, "ivan", "ufl.edu"))
			if err != nil {
				t.Fatal(err)
			}
			route = d.shop.RouteOf(id)
		})
		var bidSpans []telemetry.Span
		for _, sp := range hub.T().Spans() {
			if sp.Name == "shop.bid" {
				bidSpans = append(bidSpans, sp)
			}
		}
		if len(bidSpans) != 1 {
			t.Fatalf("%d bidding rounds, want 1", len(bidSpans))
		}
		return bidSpans[0].VEnd - bidSpans[0].VStart, route
	}
	reg := fault.NewRegistry(6)
	reg.SetProb(victim, fault.RPCDrop, "estimate", 1.0)
	dropped, route := round(t, func(h *LocalHandle) { h.Faults = reg })
	// The same round with node00 refusing at once: each node draws
	// its bid latency from its own stream, so the other two answers
	// take the same time in both runs.
	refused, _ := round(t, func(h *LocalHandle) { h.Down = true })
	if got, want := dropped-refused, sim.Seconds(callTimeoutSecs); got != want {
		t.Errorf("the dropped estimate cost the round %s, want one call timeout (%s)", got, want)
	}
	if got := reg.Total(fault.RPCDrop); got != 1 {
		t.Errorf("%d dropped estimates, want 1: the round asks each plant once", got)
	}
	if route == victim {
		t.Errorf("the creation landed on %s, whose estimate was lost", route)
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
