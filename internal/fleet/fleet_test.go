package fleet_test

import (
	"errors"
	"testing"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/fleet"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
	"vmplants/internal/workload"
)

// elastic builds a deployment with one active plant and standby
// plants to provision from, plus a controller over it.
func elastic(t *testing.T, total, standby int, hub *telemetry.Hub, cfg fleet.Config) (*workload.Deployment, *fleet.Controller) {
	t.Helper()
	d, err := workload.NewDeployment(workload.Options{
		Plants:        total,
		StandbyPlants: standby,
		Seed:          7,
		GoldenSizesMB: []int{32},
		Telemetry:     hub,
	})
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	base := total - standby
	c := fleet.New(cfg, d.Shop, hub, func(p *sim.Proc, idx int) (shop.PlantHandle, error) {
		return d.Handles[base+idx], nil
	})
	return d, c
}

// TestScaleUpOnQueueDepth: a burst of concurrent creations backs up
// the admission gate; the controller provisions standby plants until
// the pressure clears or the fleet cap is hit. The clients collect
// their VMs at the end, which any drain the controller began waits for.
func TestScaleUpOnQueueDepth(t *testing.T) {
	hub := telemetry.New()
	d, c := elastic(t, 3, 2, hub, fleet.Config{
		MinPlants:    1,
		MaxPlants:    3,
		Tick:         5 * time.Second,
		Cooldown:     10 * time.Second,
		ScaleUpDepth: 2,
	})
	d.Shop.SetAdmission(shop.AdmissionConfig{MaxInflight: 1})
	c.Start(d.Kernel)

	const clients = 4
	var ids []core.VMID
	done := 0
	err := d.Run(func(p *sim.Proc) error {
		for i := 0; i < clients; i++ {
			seq := i + 1
			p.Kernel().Spawn("burst", func(wp *sim.Proc) {
				spec, err := d.WorkspaceSpec(seq, 32)
				if err != nil {
					t.Errorf("spec: %v", err)
				}
				if id, _, err := d.Shop.Create(wp, spec); err != nil {
					t.Errorf("create %d: %v", seq, err)
				} else {
					ids = append(ids, id)
				}
				done++
			})
		}
		for done < clients {
			p.Sleep(time.Minute)
		}
		c.Stop()
		for _, id := range ids {
			if err := d.Shop.Destroy(p, id); err != nil {
				t.Errorf("collect %s: %v", id, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	st := c.Status()
	if st.ScaleUps == 0 {
		t.Fatalf("no scale-ups under a %d-deep backlog: %+v", clients, st)
	}
	if got := len(d.Shop.Plants()); got < 2 {
		t.Errorf("fleet still %d plants after scale-up", got)
	}
	if hub.Counter("fleet.scale_ups").Value() != int64(st.ScaleUps) {
		t.Errorf("fleet.scale_ups counter %d != status %d",
			hub.Counter("fleet.scale_ups").Value(), st.ScaleUps)
	}
}

// TestScaleDownWhenCalm: a sustained idle gate shrinks the fleet to
// the floor via the safe drain protocol, and no further.
func TestScaleDownWhenCalm(t *testing.T) {
	hub := telemetry.New()
	d, c := elastic(t, 2, 0, hub, fleet.Config{
		MinPlants:  1,
		MaxPlants:  2,
		Tick:       10 * time.Second,
		Cooldown:   time.Second,
		QuietTicks: 3,
	})
	c.Start(d.Kernel)

	err := d.Run(func(p *sim.Proc) error {
		p.Sleep(5 * time.Minute)
		c.Stop()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	st := c.Status()
	if st.ScaleDowns != 1 {
		t.Fatalf("scale-downs = %d, want exactly 1 (floor is MinPlants=1): %+v", st.ScaleDowns, st)
	}
	if got := len(d.Shop.Plants()); got != 1 {
		t.Errorf("fleet is %d plants, want 1", got)
	}
	// Victim selection is deterministic: empty plants tie on VM count,
	// and node00 wins by name.
	if !d.Shop.Retired("node00") {
		t.Error("node00 not retired")
	}
}

// TestScaleUpOnFailureDelta: sheds at a full admission gate fail fast
// and never queue, so the queue depth stays under ScaleUpDepth; the
// failure/shed delta alone brings a standby plant in on the next tick.
func TestScaleUpOnFailureDelta(t *testing.T) {
	hub := telemetry.New()
	cfg := fleet.Config{
		MinPlants:       1,
		MaxPlants:       2,
		Tick:            10 * time.Second,
		ScaleUpDepth:    4,
		ScaleUpFailures: 1,
	}
	d, c := elastic(t, 2, 1, hub, cfg)
	d.Shop.SetAdmission(shop.AdmissionConfig{MaxInflight: 1, MaxQueue: 1})
	c.Start(d.Kernel)

	const clients = 4
	done, shed := 0, 0
	err := d.Run(func(p *sim.Proc) error {
		// Between the controller's first two ticks, so the first one has
		// already read the counters.
		p.Sleep(time.Second)
		for i := 0; i < clients; i++ {
			seq := i + 1
			p.Kernel().Spawn("burst", func(wp *sim.Proc) {
				defer func() { done++ }()
				spec, err := d.WorkspaceSpec(seq, 32)
				if err != nil {
					t.Errorf("spec: %v", err)
					return
				}
				if _, _, err := d.Shop.Create(wp, spec); errors.Is(err, shop.ErrOverload) {
					shed++
				} else if err != nil {
					t.Errorf("create %d: %v", seq, err)
				}
			})
		}
		p.Sleep(8 * time.Second)
		if q := d.Shop.AdmissionQueueLen(); q >= cfg.ScaleUpDepth {
			t.Errorf("queue depth %d reached ScaleUpDepth %d: the depth trigger would fire", q, cfg.ScaleUpDepth)
		}
		if shed == 0 || c.Status().ScaleUps != 0 {
			t.Fatalf("before the next tick: %d shed, %+v; want sheds and no scale-up yet", shed, c.Status())
		}
		p.Sleep(2 * time.Second) // past the tick at 10 s
		if st := c.Status(); st.ScaleUps != 1 || st.Active != 2 {
			t.Errorf("after the tick: %+v, want the standby plant joined", st)
		}
		for done < clients {
			p.Sleep(time.Minute)
		}
		c.Stop()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestScaleUpWhileADrainWaits: a draining plant stays among the shop's
// plants until it retires, so the fleet cap counts it once. With one
// drain open — waiting on a VM its client still holds — and the queue
// backed up, the controller still admits a standby plant while fewer
// than MaxPlants are wired. Counting the drain a second time starved
// scale-up for as long as a drain waits.
func TestScaleUpWhileADrainWaits(t *testing.T) {
	hub := telemetry.New()
	const tick = 10 * time.Second
	d, c := elastic(t, 3, 1, hub, fleet.Config{
		MinPlants:       1,
		MaxPlants:       3,
		Tick:            tick,
		Cooldown:        tick,
		ScaleUpDepth:    2,
		ScaleUpFailures: -1,
		QuietTicks:      2,
	})
	d.Shop.SetAdmission(shop.AdmissionConfig{MaxInflight: 1})
	spec := func(seq int) *core.Spec {
		s, err := d.WorkspaceSpec(seq, 32)
		if err != nil {
			t.Fatalf("spec: %v", err)
		}
		return s
	}
	err := d.Run(func(p *sim.Proc) error {
		// One held VM on each active plant, so whichever plant the
		// controller drains stays draining until its VM is collected.
		var held []core.VMID
		for i, name := range []string{"node00", "node01"} {
			s := spec(i + 1)
			s.Requirements = `TARGET.Plant == "` + name + `"`
			id, _, err := d.Shop.Create(p, s)
			if err != nil {
				t.Fatalf("create on %s: %v", name, err)
			}
			held = append(held, id)
		}
		c.Start(p.Kernel())
		for c.Status().Draining == 0 {
			p.Sleep(tick)
		}
		const clients = 4
		done := 0
		for i := 0; i < clients; i++ {
			seq := 10 + i
			p.Kernel().Spawn("burst", func(wp *sim.Proc) {
				defer func() { done++ }()
				id, _, err := d.Shop.Create(wp, spec(seq))
				if err != nil {
					t.Errorf("create %d: %v", seq, err)
					return
				}
				if err := d.Shop.Destroy(wp, id); err != nil {
					t.Errorf("collect %s: %v", id, err)
				}
			})
		}
		for done < clients {
			p.Sleep(tick)
		}
		st := c.Status()
		c.Stop()
		if st.ScaleUps != 1 || st.Draining != 1 || st.Active != 3 {
			t.Errorf("after the burst: %+v, want the standby plant joined beside the open drain", st)
		}
		for _, id := range held {
			if err := d.Shop.Destroy(p, id); err != nil {
				t.Errorf("collect %s: %v", id, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Shop.Retired("node00") {
		t.Error("the drained plant did not retire once its VM was collected")
	}
}

// TestFloorCountsEveryOpenDrain: a drain the controller did not begin —
// a maintenance window's, waiting on a VM its client still holds —
// counts against MinPlants too, so a calm gate never shrinks the fleet
// below the floor of serving plants.
func TestFloorCountsEveryOpenDrain(t *testing.T) {
	hub := telemetry.New()
	const tick = 10 * time.Second
	cfg := fleet.Config{
		MinPlants:       2,
		MaxPlants:       3,
		Tick:            tick,
		Cooldown:        tick,
		ScaleUpFailures: -1,
		QuietTicks:      2,
	}
	d, c := elastic(t, 3, 0, hub, cfg)
	err := d.Run(func(p *sim.Proc) error {
		s, err := d.WorkspaceSpec(1, 32)
		if err != nil {
			t.Fatalf("spec: %v", err)
		}
		s.Requirements = `TARGET.Plant == "node00"`
		held, _, err := d.Shop.Create(p, s)
		if err != nil {
			t.Fatalf("create on node00: %v", err)
		}
		p.Kernel().Spawn("maintenance", func(mp *sim.Proc) {
			if err := d.Shop.DrainAndRetire(mp, "node00"); err != nil {
				t.Errorf("maintenance drain: %v", err)
			}
		})
		c.Start(p.Kernel())
		for i := 0; i < 30; i++ {
			p.Sleep(tick)
			serving := 0
			for _, h := range d.Shop.Plants() {
				if !d.Shop.Draining(h.Name()) {
					serving++
				}
			}
			if serving < cfg.MinPlants {
				t.Fatalf("at %v: %d serving plants, below MinPlants %d: %+v", p.Now(), serving, cfg.MinPlants, c.Status())
			}
		}
		st := c.Status()
		c.Stop()
		if st.ScaleDowns != 0 || st.Draining != 1 {
			t.Errorf("with the maintenance drain open: %+v, want no scale-down and the one drain counted", st)
		}
		return d.Shop.Destroy(p, held)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Shop.Retired("node00") {
		t.Error("the maintenance drain did not retire node00 once its VM was collected")
	}
}
