package fleet_test

import (
	"testing"
	"time"

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
// the pressure clears or the fleet cap is hit.
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
	done := 0
	err := d.Run(func(p *sim.Proc) error {
		for i := 0; i < clients; i++ {
			seq := i + 1
			p.Kernel().Spawn("burst", func(wp *sim.Proc) {
				spec, err := d.WorkspaceSpec(seq, 32)
				if err != nil {
					t.Errorf("spec: %v", err)
				}
				if _, _, err := d.Shop.Create(wp, spec); err != nil {
					t.Errorf("create %d: %v", seq, err)
				}
				done++
			})
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

// TestBrownoutFollowsSLOBurn: budget burn over the watched objective
// flips the fleet into brownout; recovery clears it (distinct enter
// and clear thresholds — the hysteresis band).
func TestBrownoutFollowsSLOBurn(t *testing.T) {
	hub := telemetry.New()
	hub.SLO = telemetry.NewSLOEngine(hub.M(), telemetry.Objective{
		Name: "create.success", Good: "fleet_test.good", Bad: "fleet_test.bad", MinRatio: 0.9,
	})
	d, c := elastic(t, 1, 0, hub, fleet.Config{
		MinPlants:         1,
		MaxPlants:         1,
		Tick:              10 * time.Second,
		BrownoutObjective: "create.success",
		BrownoutBurn:      2.0,
		BrownoutClear:     0.5,
	})
	c.Start(d.Kernel)

	good, bad := hub.Counter("fleet_test.good"), hub.Counter("fleet_test.bad")
	err := d.Run(func(p *sim.Proc) error {
		// Half the requests failing: burn = 0.5/0.1 = 5 ≥ 2 → brownout.
		good.Add(5)
		bad.Add(5)
		p.Sleep(30 * time.Second)
		if st := c.Status(); !st.InBrownout {
			t.Errorf("burn 5.0 did not enter brownout: %+v", st)
		}
		if !d.Plants[0].Brownout() {
			t.Error("plant not in brownout mode")
		}
		// Recovery: flood of successes drops burn to 0.05 ≤ 0.5 → clear.
		good.Add(990)
		p.Sleep(30 * time.Second)
		if st := c.Status(); st.InBrownout {
			t.Errorf("burn 0.05 did not clear brownout: %+v", st)
		}
		if d.Plants[0].Brownout() {
			t.Error("plant still in brownout mode after clear")
		}
		c.Stop()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Status().Brownouts; got != 1 {
		t.Errorf("brownout entries = %d, want 1", got)
	}
}
