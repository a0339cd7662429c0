package fleet_test

import (
	"errors"
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
