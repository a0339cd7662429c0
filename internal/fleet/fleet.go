// Package fleet is the telemetry-driven autoscaler for a cell's plant
// fleet: a controller process that watches the shop's admission gate
// (queue depth and in-flight creations), the SLO engine's error-budget
// burn, and the spread of the latest bidding round, and grows or
// shrinks the plant set in response.
//
// Growing provisions a new plant through a caller-supplied factory and
// wires it into the shop's rotation; shrinking runs the shop's safe
// drain protocol (shop.DrainAndRetire) against the emptiest plant.
// Both directions are damped: scale decisions respect a cooldown, and
// shrinking additionally demands a run of consecutive calm ticks —
// classic hysteresis, so a sawtooth load cannot flap the fleet.
//
// The controller also owns brownout: when the watched SLO objective's
// burn crosses the configured threshold, every plant is switched into
// its degraded mode (publish-back and background hydration pause)
// until the burn falls back below the clear threshold. Enter and clear
// thresholds are distinct — hysteresis again — so the fleet does not
// oscillate around one line.
package fleet

import (
	"fmt"
	"time"

	"vmplants/internal/core"
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
	// ScaleDownDepth permits shrinking only while total admission
	// pressure is at or below it (default 0: a fully idle gate).
	ScaleDownDepth int
	// QuietTicks is how many consecutive calm ticks must pass before a
	// shrink (default 4) — the hysteresis band.
	QuietTicks int
	// BidSpread, when positive, also grows the fleet whenever the last
	// bidding round's cheapest and dearest feasible bids differ by at
	// least this much: a wide spread means the cheap capacity is nearly
	// gone and arrivals are about to pay the expensive tail.
	BidSpread core.Cost
	// BrownoutObjective names the SLO objective whose burn drives
	// brownout ("" disables brownout control).
	BrownoutObjective string
	// BrownoutBurn enters brownout at or above this burn (default 1.0:
	// the error budget is spent); BrownoutClear leaves it at or below
	// (default half of BrownoutBurn).
	BrownoutBurn  float64
	BrownoutClear float64
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
	if c.BrownoutBurn <= 0 {
		c.BrownoutBurn = 1.0
	}
	if c.BrownoutClear <= 0 {
		c.BrownoutClear = c.BrownoutBurn / 2
	}
	return c
}

// Provisioner builds the next plant when the controller scales up. idx
// counts provisioned plants from 0; the returned handle must carry a
// name unique across the fleet's history (retired names stay dead).
type Provisioner func(p *sim.Proc, idx int) (shop.PlantHandle, error)

// brownouter is the optional handle capability the brownout switch
// uses (shop.LocalHandle implements it).
type brownouter interface {
	SetBrownout(on bool)
}

// Status is the controller's snapshot for tests and experiments.
type Status struct {
	Active     int  `json:"active"`
	Draining   int  `json:"draining"`
	ScaleUps   int  `json:"scale_ups"`
	ScaleDowns int  `json:"scale_downs"`
	Brownouts  int  `json:"brownouts"`
	InBrownout bool `json:"in_brownout"`
}

// Controller is one cell's autoscaler.
type Controller struct {
	cfg       Config
	shop      *shop.Shop
	hub       *telemetry.Hub
	provision Provisioner

	stopped    bool
	proc       *sim.Proc
	idx        int // next provision index
	lastScale  time.Duration
	lastFails  int64 // shop failures + sheds at the previous tick
	calm       int   // consecutive calm ticks
	inBrownout bool
	draining   int // drains this controller started, not yet finished

	scaleUps   int
	scaleDowns int
	brownouts  int

	mScaleUps   *telemetry.Counter
	mScaleDowns *telemetry.Counter
	mBrownouts  *telemetry.Counter
	gPlants     *telemetry.Gauge
}

// New builds a controller over the shop. hub supplies the SLO engine
// for brownout (and receives the controller's own metrics); provision
// is required for scale-up (nil pins the fleet at its current size).
func New(cfg Config, s *shop.Shop, hub *telemetry.Hub, provision Provisioner) *Controller {
	c := &Controller{
		cfg:       cfg.withDefaults(),
		shop:      s,
		hub:       hub,
		provision: provision,
	}
	c.mScaleUps = hub.Counter("fleet.scale_ups")
	c.mScaleDowns = hub.Counter("fleet.scale_downs")
	c.mBrownouts = hub.Counter("fleet.brownouts")
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

// Stop ends the control loop and lifts any brownout (parked hydrators
// must be released or they strand the kernel at quiescence). Drains
// already in flight run to completion on their own procs.
func (c *Controller) Stop() {
	c.stopped = true
	if c.inBrownout {
		c.setBrownout(false)
	}
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
		Brownouts:  c.brownouts,
		InBrownout: c.inBrownout,
	}
}

// tick is one control decision: read the signals, maybe toggle
// brownout, maybe scale.
func (c *Controller) tick(p *sim.Proc) {
	queued := c.shop.AdmissionQueueLen()
	inflight := c.shop.InflightCreates()
	depth := queued + inflight
	active := len(c.shop.Plants())
	c.gPlants.Set(int64(active))

	c.tickBrownout(p)

	// Scale up: the gate is backing up, creations started failing or
	// being shed (both fail fast without queueing, so depth alone would
	// miss them), or the last auction's bid spread says the cheap
	// capacity is exhausted.
	fails := c.hub.Counter("shop.create_failures").Value() +
		c.hub.Counter("shop.shed_creates").Value()
	failDelta := fails - c.lastFails
	c.lastFails = fails
	pressure := queued >= c.cfg.ScaleUpDepth
	if !pressure && c.cfg.ScaleUpFailures > 0 {
		pressure = failDelta >= int64(c.cfg.ScaleUpFailures)
	}
	if !pressure && c.cfg.BidSpread > 0 {
		pressure = c.lastBidSpread() >= c.cfg.BidSpread
	}
	if pressure {
		c.calm = 0
		if active+c.draining < c.cfg.MaxPlants && c.cooledDown(p) && c.provision != nil {
			c.scaleUp(p)
		}
		return
	}

	// Scale down: sustained calm, and only down to the floor. The drain
	// runs on its own proc — a tick must not block for the minutes an
	// evacuation can take.
	if depth <= c.cfg.ScaleDownDepth {
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

// lastBidSpread is the cheapest-to-dearest gap of the most recent
// bidding round with at least two feasible bids (0 when none).
func (c *Controller) lastBidSpread() core.Cost {
	round, ok := c.shop.LastContestedBid()
	if !ok {
		return 0
	}
	var min, max core.Cost
	first := true
	for _, cost := range round.Costs {
		if first {
			min, max = cost, cost
			first = false
			continue
		}
		if cost < min {
			min = cost
		}
		if cost > max {
			max = cost
		}
	}
	return max - min
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
// dedicated proc: migration can take minutes of virtual time.
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

// victim selects the plant to retire: the fewest hosted VMs (cheapest
// evacuation), name-ordered ties, skipping plants already draining.
func (c *Controller) victim() string {
	var best string
	bestVMs := 0
	for _, h := range c.shop.Plants() {
		name := h.Name()
		if c.shop.Draining(name) {
			continue
		}
		vms := 0 // a remote plant's count would cost a round trip
		if lh, ok := h.(*shop.LocalHandle); ok {
			vms = lh.Plant.ActiveVMs()
		}
		if best == "" || vms < bestVMs || (vms == bestVMs && name < best) {
			best, bestVMs = name, vms
		}
	}
	return best
}

// tickBrownout reads the watched objective's burn and flips the
// fleet-wide degraded mode across its hysteresis band.
func (c *Controller) tickBrownout(p *sim.Proc) {
	if c.cfg.BrownoutObjective == "" || c.hub == nil || c.hub.SLO == nil {
		return
	}
	var burn float64
	found := false
	for _, st := range c.hub.SLO.Evaluate(p.Now()) {
		if st.Name == c.cfg.BrownoutObjective {
			burn, found = st.Burn, true
			break
		}
	}
	if !found {
		return
	}
	if !c.inBrownout && burn >= c.cfg.BrownoutBurn {
		c.setBrownout(true)
		c.brownouts++
		c.mBrownouts.Inc()
	} else if c.inBrownout && burn <= c.cfg.BrownoutClear {
		c.setBrownout(false)
	}
}

// setBrownout flips every plant (draining ones included — their
// background work competes for the same disks).
func (c *Controller) setBrownout(on bool) {
	c.inBrownout = on
	for _, h := range c.shop.Plants() {
		if b, ok := h.(brownouter); ok {
			b.SetBrownout(on)
		}
	}
}
