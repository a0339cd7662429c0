package shop

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/plant"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
)

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
