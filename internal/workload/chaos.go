package workload

import (
	"fmt"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/fault"
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
	// slowBidProb stalls a plant's estimate by slowBidDelay; the round
	// waits for it, so the creation is late by the stall.
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

type chaosParams struct{ requests int }

// chaosResult reports what a chaos run survived.
type chaosResult struct {
	transcript    // every per-request outcome and injection count
	Requests      int
	Succeeded     int
	ClientRetries int // request re-submissions after shop-level failure
	Failovers     int64
	PlantCrashes  int64
	Recoveries    int64
	restartRoutes int   // routes the killed shop's Restart brought back
	RoutesRecov   int64 // routes the drain re-learned on demand
	Injections    map[string]int64
	Disruptions   int64 // injections that fail a call: drops, clone I/O, crashes
	CreateSecs    stats.Summary
	OrphanVMs     int // VMs left on plants after every destroy
	LeakedNets    int // host-only network slots never released
}

// runChaos is the failure-recovery gate: a series of 64 MB creations
// through 8 plants under the default fault mix must absorb every fault.
// All requests eventually succeed (shop-side failover plus bounded
// client retry), the journal-less shop is killed and restarted with no
// route left, and destroying everything through routes re-learned on
// demand leaves zero orphaned VMs and zero leaked host-only networks.
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

		// Shop kill -9 and restart (restarting any still-crashed plant
		// daemon first, as an operator would). The shop keeps no
		// journal, so every route dies with it and the restart folds
		// none back.
		for _, pl := range d.Plants {
			pl.Recover(p)
		}
		d.Shop.Kill()
		st, err := d.Shop.Restart(p)
		if err != nil {
			return err
		}
		res.restartRoutes = st.Routes
		res.logf("restart routes=%d", st.Routes)

		// Drain the site; every VM must be reachable and collectable,
		// each destroy re-learning its VM's route by a plant sweep.
		// Destroys ride the same fault mix — a dropped collect times
		// out before reaching the plant and the shop keeps the route,
		// so re-asking is safe.
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
	res.PlantCrashes = hub.Counter("plant.crashes").Value()
	res.Recoveries = hub.Counter("plant.recoveries").Value()
	res.RoutesRecov = hub.Counter("shop.recovered_routes").Value()
	res.Injections = reg.Counts()
	res.Disruptions = reg.Total(fault.RPCDrop) + reg.Total(fault.CloneIO) + reg.Total(fault.PlantCrash)

	res.lines = append(res.lines, reg.Summary()...)
	res.logf("failovers=%d crashes=%d recoveries=%d orphans=%d leaks=%d",
		res.Failovers, res.PlantCrashes, res.Recoveries, res.OrphanVMs, res.LeakedNets)
	return res, nil
}

func (r *chaosResult) Checks() []Check {
	return []Check{
		equal(invariant("chaos.served", "requests served"), r.Succeeded, r.Requests),
		equal(invariant("chaos.orphans", "orphaned VMs after drain"), r.OrphanVMs, 0),
		equal(invariant("chaos.leaked-nets", "leaked host-only networks after drain"), r.LeakedNets, 0),
		equal(invariant("chaos.restart-routes", "routes the journal-less shop's restart brought back"), r.restartRoutes, 0),
		equal(invariant("chaos.relearned", "routes the drain re-learned"), r.RoutesRecov, int64(r.Requests)),
		// The mix is hot enough that even the smoke run must actually have
		// exercised the machinery, or the experiment proves nothing.
		atLeast(precondition("chaos.disrupted", "injections that failed a call"), r.Disruptions, 1),
	}
}

// Report renders the run as printable lines.
func (r *chaosResult) Report() []string {
	return append([]string{
		fmt.Sprintf("client retries:      %d", r.ClientRetries),
		fmt.Sprintf("shop failovers:      %d", r.Failovers),
		fmt.Sprintf("plant crashes:       %d (recoveries %d)", r.PlantCrashes, r.Recoveries),
		fmt.Sprintf("create latency:      %s", r.CreateSecs),
	}, injectionReport(r.Injections)...)
}
