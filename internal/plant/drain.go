// Drain: the plant-side half of the elastic fleet.
//
// Draining is the graceful exit from the fleet: a draining plant stops
// bidding (its Estimate refuses, and its resource ad carries a
// Draining marker so shops filter it even on a stale ad), refuses new
// production orders with a transient error so the shop fails the
// creation over, and lets in-flight work finish. The shop-side drain
// protocol (shop/drain.go) migrates or awaits the hosted VMs and
// journals the retirement.
//
// A plant has no degraded mode for load shedding: its background work
// (the image cache's filler, the publish-back upload) is sim.Background, so
// it takes only what foreground transfers leave on the NFS server, and
// nothing on a pipe that carries one.
package plant

import (
	"fmt"

	"vmplants/internal/core"
)

// SetDraining marks (or unmarks) the plant as draining. A draining
// plant keeps serving queries, collects, migrations and in-flight
// creations; it only stops accepting new work.
func (pl *Plant) SetDraining(on bool) {
	pl.mu.Lock()
	pl.draining = on
	pl.mu.Unlock()
}

// Draining reports whether the plant is draining.
func (pl *Plant) Draining() bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.draining
}

// Retire marks the plant permanently retired. A retired plant is also
// draining (it never takes new work again); the flag is one-way.
func (pl *Plant) Retire() {
	pl.mu.Lock()
	pl.draining = true
	pl.retired = true
	pl.mu.Unlock()
}

// RetiredPlant reports whether the plant has been retired.
func (pl *Plant) RetiredPlant() bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.retired
}

// refuseIfDraining is the production-order gate: a creation dispatched
// to a plant that began draining after the bid round is a stale-bid
// race, and the transient error sends the shop to its next bidder.
func (pl *Plant) refuseIfDraining() error {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.draining {
		return fmt.Errorf("plant %s: %w: draining", pl.name, core.ErrTransient)
	}
	return nil
}
