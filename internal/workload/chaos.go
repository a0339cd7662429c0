package workload

import (
	"fmt"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/fault"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/stats"
	"vmplants/internal/telemetry"
)

// faultMix is a fault cocktail, armed as wildcard rules over every
// plant. Action failures are deliberately absent: a DAG action
// exhausting its error policy is the request's outcome on every plant,
// so it is not a fault the shop can route around.
type faultMix struct {
	// rpcDrop is the probability any shop→plant message is lost.
	rpcDrop float64
	// rpcDelayProb stalls a message by rpcDelay without losing it.
	rpcDelayProb float64
	rpcDelay     time.Duration
	// slowBidProb stalls a plant's estimate by slowBidDelay — past the
	// shop's bid timeout, so the round proceeds without it.
	slowBidProb  float64
	slowBidDelay time.Duration
	// cloneIO fails a clone's state copy, destroying the partial clone.
	cloneIO float64
	// crashInCreate crashes the winning plant mid-creation.
	crashInCreate float64
}

// chaosMix is the standard cocktail: every fault class at a rate high
// enough that a run of a few dozen requests hits each of them.
var chaosMix = faultMix{
	rpcDrop:       0.05,
	rpcDelayProb:  0.05,
	rpcDelay:      300 * time.Millisecond,
	slowBidProb:   0.08,
	slowBidDelay:  3 * time.Second,
	cloneIO:       0.05,
	crashInCreate: 0.04,
}

// arm installs the mix's non-zero rates on reg.
func (m faultMix) arm(reg *fault.Registry) {
	set := func(kind fault.Kind, op string, prob float64, delay time.Duration) {
		if prob <= 0 {
			return
		}
		reg.SetProb(fault.Wildcard, kind, op, prob)
		if delay > 0 {
			reg.SetDelay(fault.Wildcard, kind, op, delay)
		}
	}
	set(fault.RPCDrop, "", m.rpcDrop, 0)
	set(fault.RPCDelay, "", m.rpcDelayProb, m.rpcDelay)
	set(fault.SlowBid, "", m.slowBidProb, m.slowBidDelay)
	set(fault.CloneIO, "", m.cloneIO, 0)
	set(fault.PlantCrash, "create", m.crashInCreate, 0)
}

// bidTimeout bounds each bidding round (virtual time) wherever a
// scenario needs concurrent rounds to overlap or slow bidders skipped.
const bidTimeout = time.Second

type chaosParams struct{ requests int }

// chaosResult reports what a chaos run survived.
type chaosResult struct {
	transcript    // every per-request outcome and injection count
	Requests      int
	Succeeded     int
	ClientRetries int // request re-submissions after shop-level failure
	Failovers     int64
	DegradedBids  int64
	BreakerOpens  int64
	PlantCrashes  int64
	Recoveries    int64
	RoutesRecov   int // routes shop.Recover re-learned at the end
	Injections    map[string]int64
	Disruptions   int64 // injections that fail a call: drops, clone I/O, crashes, slow bids
	CreateSecs    stats.Summary
	OrphanVMs     int // VMs left on plants after every destroy
	LeakedNets    int // host-only network slots never released
}

// runChaos is the failure-recovery gate: a series of 64 MB creations
// through 8 plants under the default fault mix must absorb every fault.
// All requests eventually succeed (shop-side failover and circuit
// breaking plus bounded client retry), recovery rebuilds routing after
// the shop forgets it, and destroying everything leaves zero orphaned
// VMs and zero leaked host-only networks.
func runChaos(seed int64, par chaosParams) (*chaosResult, error) {
	const (
		memMB         = 64
		clientRetries = 8
	)
	hub := telemetry.New()
	d, reg, err := newFaultedSite(7919, Options{Seed: seed, Telemetry: hub})
	if err != nil {
		return nil, err
	}
	chaosMix.arm(reg)
	d.Shop.BidTimeout = bidTimeout
	d.Shop.Breaker = shop.BreakerConfig{Threshold: 3, Cooldown: 20 * time.Second}
	for _, h := range d.Handles {
		h.RestartAfter = 10 * time.Second // the supervisor's crash→restart delay
	}

	res := &chaosResult{Requests: par.requests}
	var created []core.VMID
	err = d.Run(func(p *sim.Proc) error {
		var secs []float64
		for i := 1; i <= par.requests; i++ {
			spec, err := d.WorkspaceSpec(i, memMB)
			if err != nil {
				return err
			}
			start := p.Now()
			// Transient wipeout (every bidder down at once): back off and
			// re-submit; supervisors restart crashed daemons meanwhile.
			id, _, retries, cerr := createRetrying(p, d.Shop, spec, clientRetries, backoff(p, 5*time.Second))
			res.ClientRetries += retries
			if cerr != nil {
				res.logf("req %d FAILED %v", i, cerr)
				continue
			}
			elapsed := (p.Now() - start).Seconds()
			secs = append(secs, elapsed)
			created = append(created, id)
			res.Succeeded++
			res.logf("req %d ok %s route=%s %.6fs", i, id, d.Shop.RouteOf(id), elapsed)
		}
		res.CreateSecs = stats.Summarize(secs)

		// Shop restart: soft routing state gone; Recover re-learns it
		// from plant inventories (restarting any still-crashed plant
		// daemon first, as an operator would).
		for _, pl := range d.Plants {
			pl.Recover(p)
		}
		d.Shop.ForgetRoutes()
		routes, unreachable := d.Shop.Recover(p)
		res.RoutesRecov = routes
		res.logf("recover routes=%d unreachable=%d", routes, len(unreachable))

		// Drain the site through the recovered routes; every VM must be
		// reachable and collectable. Destroys ride the same fault mix —
		// a dropped collect times out before reaching the plant and the
		// shop keeps the route, so re-asking is safe.
		for _, id := range created {
			retries, derr := retry(clientRetries, func() error { return d.Shop.Destroy(p, id) }, backoff(p, 2*time.Second))
			res.ClientRetries += retries
			if derr != nil {
				res.logf("destroy %s FAILED %v", id, derr)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res.OrphanVMs, res.LeakedNets = residue(d.Plants)
	res.Failovers = hub.Counter("shop.failovers").Value()
	res.DegradedBids = hub.Counter("shop.degraded_bid_rounds").Value()
	res.BreakerOpens = hub.Counter("shop.breaker_opens").Value()
	res.PlantCrashes = hub.Counter("plant.crashes").Value()
	res.Recoveries = hub.Counter("plant.recoveries").Value()
	res.Injections = reg.Counts()
	res.Disruptions = reg.Total(fault.RPCDrop) + reg.Total(fault.CloneIO) + reg.Total(fault.PlantCrash) + reg.Total(fault.SlowBid)

	res.lines = append(res.lines, reg.Summary()...)
	res.logf("failovers=%d degraded=%d breaker_opens=%d crashes=%d recoveries=%d orphans=%d leaks=%d",
		res.Failovers, res.DegradedBids, res.BreakerOpens, res.PlantCrashes, res.Recoveries, res.OrphanVMs, res.LeakedNets)
	return res, nil
}

// Violations lists the chaos invariants the run broke.
func (r *chaosResult) Violations() []string {
	var g gate
	g.check(r.Succeeded == r.Requests, "succeeded %d of %d requests", r.Succeeded, r.Requests)
	g.check(r.OrphanVMs == 0, "%d orphaned VMs after drain", r.OrphanVMs)
	g.check(r.LeakedNets == 0, "%d leaked host-only networks after drain", r.LeakedNets)
	g.check(r.RoutesRecov == r.Requests, "shop.Recover rebuilt %d routes, want %d", r.RoutesRecov, r.Requests)
	// The mix is hot enough that even the smoke run must actually have
	// exercised the machinery, or the experiment proves nothing.
	g.check(r.Disruptions > 0, "no faults injected; chaos run exercised nothing")
	return g
}

// Report renders the run as printable lines.
func (r *chaosResult) Report() []string {
	return append([]string{
		fmt.Sprintf("requests:            %d", r.Requests),
		fmt.Sprintf("succeeded:           %d (%.0f%%)", r.Succeeded, 100*float64(r.Succeeded)/float64(r.Requests)),
		fmt.Sprintf("client retries:      %d", r.ClientRetries),
		fmt.Sprintf("shop failovers:      %d", r.Failovers),
		fmt.Sprintf("degraded bid rounds: %d", r.DegradedBids),
		fmt.Sprintf("breaker opens:       %d", r.BreakerOpens),
		fmt.Sprintf("plant crashes:       %d (recoveries %d)", r.PlantCrashes, r.Recoveries),
		fmt.Sprintf("routes recovered:    %d", r.RoutesRecov),
		fmt.Sprintf("create latency:      %s", r.CreateSecs),
		fmt.Sprintf("orphaned VMs:        %d", r.OrphanVMs),
		fmt.Sprintf("leaked networks:     %d", r.LeakedNets),
	}, injectionReport(r.Injections)...)
}
