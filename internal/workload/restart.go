package workload

import (
	"errors"
	"fmt"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/fault"
	"vmplants/internal/journal"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
)

type restartParams struct{ requests int }

// restartResult reports what a restart run proved.
type restartResult struct {
	transcript // every outcome
	Requests   int
	Succeeded  int
	// ShopKills / ShopRestarts count daemon deaths and revivals.
	ShopKills    int64
	ShopRestarts int64
	// Redriven / Reconciled / Deduped are the exactly-once machinery's
	// counters: intents re-driven from the journal, intents found
	// already built, and client retries answered from the dedupe index.
	Redriven   int64
	Reconciled int64
	Deduped    int64
	// Lost counts acknowledged creations whose VM cannot be found;
	// Duplicated counts VMs on plants beyond the acknowledged set. Both
	// must be zero.
	Lost       int
	Duplicated int
	// RoutesFinal is how many routes the final kill→restart rebuilt
	// purely from the journal.
	RoutesFinal int
	// QuarantineSurvived is whether the quarantined image stayed out of
	// service across the warehouse daemon restart.
	QuarantineSurvived bool
	PlantCrashes       int64
	PlantRecoveries    int64
	// TornTails counts records truncated during replays of any of the
	// three journals — shop, plants, warehouse — as the hub's
	// journal.torn_tails saw them (zero: kills land at sync boundaries,
	// so every log is always clean).
	TornTails int64
	// JournalRecords is the shop journal's final record count;
	// JournalAppends is the hub's journal.appends, over all three.
	JournalRecords int
	JournalAppends int64
}

// runRestart is the kill-9 gate for the journaled control plane: a
// series of 64 MB creations on 4 plants while shop daemons are killed
// at the worst possible instants — after the creation intent is durable
// but before dispatch, and after the plant built the VM but before the
// commit — plants crash and recover mid-run, and the warehouse daemon
// restarts with an image in quarantine. The run passes only if every
// creation is exactly-once (zero lost, zero duplicated), the route
// table comes back from the journal alone, and the quarantine survives
// the warehouse restart.
func runRestart(seed int64, par restartParams) (*restartResult, error) {
	const (
		memMB = 64
		// killEvery arms a shop kill before every killEvery-th request,
		// alternating between the "intent" and "commit" kill points.
		killEvery = 6
		// restartAfter is how long the supervisor waits before
		// restarting a killed shop daemon.
		restartAfter  = 5 * time.Second
		clientRetries = 8
	)
	hub := telemetry.New()
	d, reg, err := newFaultedSite(104729, Options{Plants: 4, Seed: seed, Telemetry: hub})
	if err != nil {
		return nil, err
	}

	// Journals: the shop's on its own dedicated log volume, each
	// plant's on its node's local disk, the warehouse's on the shared
	// warehouse volume (which backfills the already-published catalog).
	jnl := d.JournalShop()
	for i, pl := range d.Plants {
		pj := journal.Open(d.Testbed.Nodes[i].LocalDisk(), "journal/"+pl.Name())
		pj.SetTelemetry(hub)
		pl.SetJournal(pj)
	}
	wj := journal.Open(d.Testbed.Warehouse, "journal/warehouse")
	wj.SetTelemetry(hub)
	d.Warehouse.SetJournal(wj)

	res := &restartResult{Requests: par.requests}
	var acked []core.VMID // acknowledged creations, in request order
	err = d.Run(func(p *sim.Proc) error {
		crashPlantAt := par.requests / 2
		quarantineAt := 2 * par.requests / 3
		for i := 1; i <= par.requests; i++ {
			// Arm a kill-9 at the worst instants: odd kills die with the
			// intent durable but undispatched, even kills die with the VM
			// built but uncommitted.
			if i%killEvery == 0 {
				op := "intent"
				if (i/killEvery)%2 == 0 {
					op = "commit"
				}
				reg.Arm("shop", fault.DaemonKill, op, 1)
				res.logf("armed kill at %s before req %d", op, i)
			}
			if i == crashPlantAt {
				d.Plants[0].Crash()
				res.logf("plant %s crashed before req %d", d.Plants[0].Name(), i)
			}
			if i == quarantineAt {
				name := GoldenName(256, d.Opts.Backend)
				d.Warehouse.Quarantine(name, "scrub: checksum mismatch (injected)")
				st := d.Warehouse.Restart()
				res.QuarantineSurvived = d.Warehouse.IsQuarantined(name)
				res.logf("warehouse restart before req %d: restored=%d mismatch=%d survived=%v",
					i, st.QuarantineRestored, st.CatalogMismatch, res.QuarantineSurvived)
			}

			spec, err := d.WorkspaceSpec(i, memMB)
			if err != nil {
				return err
			}
			spec.RequestID = fmt.Sprintf("req-%04d", i)
			var restartErr error
			id, _, _, cerr := createRetrying(p, d.Shop, spec, clientRetries, func(_ int, cerr error) error {
				if !errors.Is(cerr, shop.ErrShopDown) {
					p.Sleep(2 * time.Second)
					return nil
				}
				// Supervisor: wait out the death, restart the daemon
				// from its journal, then re-submit under the same
				// request ID — the dedupe index absorbs the retry.
				p.Sleep(restartAfter)
				st, rerr := d.Shop.Restart(p)
				if rerr != nil {
					restartErr = rerr
					return rerr
				}
				res.logf("shop restart: replayed=%d routes=%d reconciled=%d redriven=%d aborted=%d",
					st.Replayed, st.Routes, st.Reconciled, st.Redriven, st.Aborted)
				return nil
			})
			if restartErr != nil {
				return restartErr
			}
			if cerr != nil {
				res.logf("req %d FAILED %v", i, cerr)
				continue
			}
			acked = append(acked, id)
			res.Succeeded++
			res.logf("req %d ok %s route=%s", i, id, d.Shop.RouteOf(id))
		}

		// The crashed plant's daemon comes back; its journal replay
		// cross-checks the host scan.
		for _, pl := range d.Plants {
			pl.Recover(p)
		}

		// Final kill→restart with nothing in flight: the route table must
		// come back purely from the journal, one route per live VM.
		d.Shop.Kill()
		st, rerr := d.Shop.Restart(p)
		if rerr != nil {
			return rerr
		}
		res.RoutesFinal = st.Routes
		res.logf("final restart: replayed=%d routes=%d", st.Replayed, st.Routes)

		// Exactly-once audit, half one: every acknowledged creation is
		// queryable through the restarted shop.
		for i, id := range acked {
			if _, qerr := d.Shop.Query(p, id); qerr != nil {
				res.Lost++
				res.logf("LOST %s (acked creation %d): %v", id, i+1, qerr)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Exactly-once audit, half two: the plants hold exactly one VM per
	// acknowledged request — no duplicates from re-driven intents, and
	// no two requests answered with the same VM.
	live, _ := residue(d.Plants)
	res.Duplicated = duplicates(acked, live)

	res.ShopKills = hub.Counter("shop.crashes").Value()
	res.ShopRestarts = hub.Counter("shop.restarts").Value()
	res.Redriven = hub.Counter("shop.redriven_creates").Value()
	res.Reconciled = hub.Counter("shop.reconciled_creates").Value()
	res.Deduped = hub.Counter("shop.deduped_creates").Value()
	res.PlantCrashes = hub.Counter("plant.crashes").Value()
	res.PlantRecoveries = hub.Counter("plant.recoveries").Value()
	res.TornTails = hub.Counter("journal.torn_tails").Value()
	res.JournalAppends = hub.Counter("journal.appends").Value()
	res.JournalRecords = len(jnl.Records())

	res.lines = append(res.lines, reg.Summary()...)
	res.logf("kills=%d restarts=%d redriven=%d reconciled=%d deduped=%d lost=%d dup=%d torn=%d records=%d",
		res.ShopKills, res.ShopRestarts, res.Redriven, res.Reconciled, res.Deduped,
		res.Lost, res.Duplicated, res.TornTails, res.JournalRecords)
	return res, nil
}

func (r *restartResult) Checks() []Check {
	return []Check{
		equal(invariant("restart.served", "requests served"), r.Succeeded, r.Requests),
		equal(invariant("restart.lost", "acknowledged creations lost"), r.Lost, 0),
		equal(invariant("restart.duplicated", "duplicated VMs"), r.Duplicated, 0),
		atLeast(precondition("restart.kills", "shop kills fired"), r.ShopKills, 1),
		atLeast(precondition("restart.redriven", "intents re-driven or reconciled"), r.Redriven+r.Reconciled, 1),
		equal(invariant("restart.quarantine", "quarantine survived the warehouse restart"), r.QuarantineSurvived, true),
		equal(invariant("restart.routes", "routes the final restart rebuilt"), r.RoutesFinal, r.Succeeded),
		equal(invariant("restart.torn-tails", "torn tails under sync-boundary kills"), r.TornTails, 0),
		holds(precondition("restart.plant-crash", "plant crashes/recoveries"), r.PlantCrashes > 0 && r.PlantRecoveries > 0,
			fmt.Sprintf("%d/%d", r.PlantCrashes, r.PlantRecoveries), "> 0/> 0"),
	}
}

// Report renders the run as printable lines.
func (r *restartResult) Report() []string {
	return []string{
		fmt.Sprintf("shop kills:          %d (restarts %d)", r.ShopKills, r.ShopRestarts),
		fmt.Sprintf("intents re-driven:   %d", r.Redriven),
		fmt.Sprintf("intents reconciled:  %d", r.Reconciled),
		fmt.Sprintf("retries deduped:     %d", r.Deduped),
		fmt.Sprintf("journal records:     %d (torn tails %d)", r.JournalRecords, r.TornTails),
	}
}
