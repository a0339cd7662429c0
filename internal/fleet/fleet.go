// Package fleet is the telemetry-driven autoscaler for a cell's plant
// fleet: a controller process that watches the shop's admission gate
// (queue depth and in-flight creations) and its failure and shed
// counters, and grows or shrinks the plant set in response.
//
// Growing provisions a new plant through a caller-supplied factory and
// wires it into the shop's rotation; shrinking runs the shop's safe
// drain protocol (shop.DrainAndRetire) against the emptiest plant.
// Both directions are damped: scale decisions respect a cooldown, and
// shrinking additionally demands a run of consecutive calm ticks —
// classic hysteresis, so a sawtooth load cannot flap the fleet.
package fleet

import (
	"fmt"
	"time"

	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
)

// Config tunes the controller. The zero value of any field selects the
// listed default.
type Config struct {
	// MinPlants/MaxPlants bound the fleet size (defaults 1 and 8).
	MinPlants int
	MaxPlants int
	// Tick is the control loop period (default 30s of virtual time).
	Tick time.Duration
	// Cooldown is the minimum virtual time between scaling actions in
	// either direction (default 2m).
	Cooldown time.Duration
	// ScaleUpDepth grows the fleet when admission queue depth (waiting
	// plus in-flight beyond one slot each) reaches it (default 4).
	ScaleUpDepth int
	// ScaleUpFailures grows the fleet when the shop's creation-failure
	// plus admission-shed count rose by at least this many since the
	// last tick (default 2, -1 disables). Capacity starvation does not
	// queue — an infeasible round fails fast — and a full admission gate
	// refuses without queueing either, so the depth trigger alone is
	// blind to both; failures and sheds are the starving fleet's
	// distress signals, and being deltas they cannot slip between two
	// tick samples the way a transient queue can.
	ScaleUpFailures int
	// QuietTicks is how many consecutive calm ticks must pass before a
	// shrink (default 4) — the hysteresis band.
	QuietTicks int
}

func (c Config) withDefaults() Config {
	if c.MinPlants <= 0 {
		c.MinPlants = 1
	}
	if c.MaxPlants <= 0 {
		c.MaxPlants = 8
	}
	if c.Tick <= 0 {
		c.Tick = 30 * time.Second
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Minute
	}
	if c.ScaleUpDepth <= 0 {
		c.ScaleUpDepth = 4
	}
	if c.ScaleUpFailures == 0 {
		c.ScaleUpFailures = 2
	}
	if c.QuietTicks <= 0 {
		c.QuietTicks = 4
	}
	return c
}

// Provisioner builds the next plant when the controller scales up. idx
// counts provisioned plants from 0; the returned handle must carry a
// name unique across the fleet's history (retired names stay dead).
type Provisioner func(p *sim.Proc, idx int) (shop.PlantHandle, error)

// Status is the controller's snapshot for tests and experiments.
type Status struct {
	Active     int `json:"active"`
	Draining   int `json:"draining"`
	ScaleUps   int `json:"scale_ups"`
	ScaleDowns int `json:"scale_downs"`
}

// Controller is one cell's autoscaler.
type Controller struct {
	cfg       Config
	shop      *shop.Shop
	hub       *telemetry.Hub
	provision Provisioner

	stopped   bool
	proc      *sim.Proc
	idx       int // next provision index
	lastScale time.Duration
	lastFails int64 // shop failures + sheds at the previous tick
	calm      int   // consecutive calm ticks
	draining  int   // drains this controller started, not yet finished

	scaleUps   int
	scaleDowns int

	mScaleUps   *telemetry.Counter
	mScaleDowns *telemetry.Counter
	gPlants     *telemetry.Gauge
}

// New builds a controller over the shop. hub supplies the shop's
// failure and shed counters and receives the controller's own metrics;
// provision is required for scale-up (nil pins the fleet at its current
// size).
func New(cfg Config, s *shop.Shop, hub *telemetry.Hub, provision Provisioner) *Controller {
	c := &Controller{
		cfg:       cfg.withDefaults(),
		shop:      s,
		hub:       hub,
		provision: provision,
	}
	c.mScaleUps = hub.Counter("fleet.scale_ups")
	c.mScaleDowns = hub.Counter("fleet.scale_downs")
	c.gPlants = hub.Gauge("fleet.plants")
	return c
}

// Start spawns the control loop. Like the scrubber, the loop runs
// until Stop — a simulation that must reach quiescence has to stop it.
func (c *Controller) Start(k *sim.Kernel) {
	c.proc = k.Spawn("fleet/controller", func(p *sim.Proc) {
		for {
			if c.stopped {
				return
			}
			c.tick(p)
			if c.stopped {
				return
			}
			p.Wait(c.cfg.Tick)
		}
	})
}

// Stop ends the control loop. Drains already in flight run to
// completion on their own procs.
func (c *Controller) Stop() {
	c.stopped = true
	if c.proc != nil {
		c.proc.WakeUp()
	}
}

// Status snapshots the controller.
func (c *Controller) Status() Status {
	return Status{
		Active:     len(c.shop.Plants()),
		Draining:   c.draining,
		ScaleUps:   c.scaleUps,
		ScaleDowns: c.scaleDowns,
	}
}

// tick is one control decision: read the signals, maybe scale.
func (c *Controller) tick(p *sim.Proc) {
	queued := c.shop.AdmissionQueueLen()
	inflight := c.shop.InflightCreates()
	depth := queued + inflight
	active := len(c.shop.Plants())
	c.gPlants.Set(int64(active))

	// Scale up: the gate is backing up, or creations started failing or
	// being shed (both fail fast without queueing, so depth alone would
	// miss them).
	fails := c.hub.Counter("shop.create_failures").Value() +
		c.hub.Counter("shop.shed_creates").Value()
	failDelta := fails - c.lastFails
	c.lastFails = fails
	pressure := queued >= c.cfg.ScaleUpDepth
	if !pressure && c.cfg.ScaleUpFailures > 0 {
		pressure = failDelta >= int64(c.cfg.ScaleUpFailures)
	}
	if pressure {
		c.calm = 0
		if active < c.cfg.MaxPlants && c.cooledDown(p) && c.provision != nil {
			c.scaleUp(p)
		}
		return
	}

	// Scale down: sustained calm on a fully idle gate, and only down to
	// the floor. The drain runs on its own proc — a tick must not block
	// for the hours a drain can wait on its VMs' clients.
	if depth == 0 {
		c.calm++
	} else {
		c.calm = 0
	}
	if c.calm >= c.cfg.QuietTicks && active-c.draining > c.cfg.MinPlants && c.cooledDown(p) {
		c.scaleDown(p)
	}
}

func (c *Controller) cooledDown(p *sim.Proc) bool {
	return c.lastScale == 0 || p.Now()-c.lastScale >= c.cfg.Cooldown
}

func (c *Controller) scaleUp(p *sim.Proc) {
	h, err := c.provision(p, c.idx)
	if err != nil {
		return
	}
	c.idx++
	if err := c.shop.AddPlant(h); err != nil {
		return
	}
	c.lastScale = p.Now()
	c.scaleUps++
	c.mScaleUps.Inc()
	c.calm = 0
}

// scaleDown picks the emptiest active plant and drains it on a
// dedicated proc: the drain waits until every VM on the plant is
// collected.
func (c *Controller) scaleDown(p *sim.Proc) {
	victim := c.victim()
	if victim == "" {
		return
	}
	c.lastScale = p.Now()
	c.scaleDowns++
	c.mScaleDowns.Inc()
	c.calm = 0
	c.draining++
	p.Kernel().Spawn(fmt.Sprintf("fleet/drain/%s", victim), func(dp *sim.Proc) {
		defer func() { c.draining-- }()
		_ = c.shop.DrainAndRetire(dp, victim)
	})
}

// victim selects the plant to retire: the fewest VMs routed to it in
// the shop's ledger (the shortest wait), name-ordered ties, skipping
// plants already draining.
func (c *Controller) victim() string {
	var best string
	bestVMs := 0
	for _, h := range c.shop.Plants() {
		name := h.Name()
		if c.shop.Draining(name) {
			continue
		}
		vms := c.shop.RoutedVMs(name)
		if best == "" || vms < bestVMs || (vms == bestVMs && name < best) {
			best, bestVMs = name, vms
		}
	}
	return best
}
