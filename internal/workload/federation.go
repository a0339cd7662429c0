package workload

import (
	"errors"
	"fmt"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/fault"
	"vmplants/internal/journal"
	"vmplants/internal/plant"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
)

// The federation gate's geometry. Both vmbench series run it at this
// one size, so none of it is a parameter.
const (
	fedCells   = 3
	fedMaxVMs  = 6 // per-plant VM cap
	fedMemMB   = 64
	fedHotTen  = 7 // of every ten requests, how many aim at the first cell
	fedRetries = 10
	// fedRestartAfter is the supervisor's delay before restarting the
	// killed hot shop.
	fedRestartAfter = 5 * time.Second

	// Throughput phase: N cells of this many plants against one cell of
	// the same, on a stream that fills the federation once, each
	// workspace held this long before its client destroys it.
	fedPlantsPerCell = 6
	fedStream        = fedCells * fedPlantsPerCell * fedMaxVMs
	fedHold          = 15 * time.Second

	// Integrity phase: small cells, so the hot one must overflow and the
	// kill lands mid-forward; the wave fills the federation exactly.
	fedIntegrityPlantsPerCell = 2
	fedIntegrityRequests      = fedCells * fedIntegrityPlantsPerCell * fedMaxVMs
)

// cellLoad is one integrity-phase cell's share of the wave.
type cellLoad struct {
	Cell      string
	Targeted  int // requests clients aimed at this cell
	LiveVMs   int // VMs its plants host at the end
	Forwarded int // creations it re-auctioned to peers
}

// federationResult reports what a federation run proved.
type federationResult struct {
	transcript // every outcome of both phases
	Cells      int

	// Throughput phase.
	ThroughputRequests    int
	BaselineSucceeded     int
	FederatedSucceeded    int
	BaselineMakespanSecs  float64
	FederatedMakespanSecs float64
	// Speedup is federated goodput (served / makespan) over the
	// single-shop baseline's on the same offered stream with the same
	// client patience; the acceptance gate wants >= 2.5x for 3 cells.
	Speedup float64

	// Integrity phase.
	Requests  int
	Succeeded int

	// Forward-protocol counters (both phases, all cells).
	PeerBidRounds  int64
	Forwarded      int64
	ForwardFails   int64
	ServedForwards int64

	// Mid-run kill accounting.
	ShopKills    int64
	ShopRestarts int64
	Reconciled   int64
	Deduped      int64
	Lost         int
	Duplicated   int

	PerCell []cellLoad

	// Journals holds each integrity-phase cell's final shop-journal
	// records and Spans that phase's trace — the material vmbench dumps
	// as CI failure artifacts.
	Journals map[string][]journal.Record
	Spans    []telemetry.Span
}

// fedRecord is one request's client-observed outcome.
type fedRecord struct {
	Seq        int
	TargetCell int
	OK         bool
	VMID       core.VMID
	Plant      string
	Retries    int
	Err        string
}

// cellName names cell i ("cellA", "cellB", ...).
func cellName(i int) string { return fmt.Sprintf("cell%c", 'A'+i) }

// fedTargets assigns each request a target cell: fedHotTen of every ten
// requests go to cell 0, the rest round-robin over the others.
func fedTargets(n int) []int {
	targets := make([]int, n)
	cool := 0
	for i := range targets {
		if i%10 >= fedHotTen {
			targets[i] = 1 + cool%(fedCells-1)
			cool++
		}
	}
	return targets
}

// runFederatedWave drives the concurrent request wave against the given
// per-request shops, with client retries riding out full cells and shop
// downtime. With hold > 0 each client destroys its workspace after
// holding it, modelling a grid session stream. The wave proc starts the
// clients, and once all have finished notes the makespan and runs
// `after` on their records (post-wave audits that need a live proc);
// the kernel then runs to quiescence, so anything the caller started
// beside the wave must have been told to stop by then.
func runFederatedWave(k *sim.Kernel, d *Deployment, shops []*shop.Shop, targets []int, prefix string, hold time.Duration, after func(p *sim.Proc, recs []fedRecord)) (records []fedRecord, makespan time.Duration, err error) {
	n := len(targets)
	records = make([]fedRecord, n)
	done := 0
	err = k.Do(prefix+"-wave", func(main *sim.Proc) {
		for i := 0; i < n; i++ {
			i := i
			k.Spawn(fmt.Sprintf("%s-client-%03d", prefix, i), func(p *sim.Proc) {
				defer func() { done++; main.WakeUp() }()
				rec := &records[i]
				rec.Seq = i + 1
				rec.TargetCell = targets[i]
				spec, serr := d.WorkspaceSpec(i+1, fedMemMB)
				if serr != nil {
					rec.Err = serr.Error()
					return
				}
				spec.RequestID = fmt.Sprintf("%s-req-%04d", prefix, i+1)
				s := shops[targets[i]]
				id, ad, retries, cerr := createRetrying(p, s, spec, fedRetries, func(_ int, cerr error) error {
					// Transient (cluster momentarily full, peer round
					// exhausted): back off and re-bid. A dead shop takes
					// longer: the supervisor restarts the daemon; re-submit
					// under the same request ID once it should be back.
					wait := 2 * time.Second
					if errors.Is(cerr, shop.ErrShopDown) {
						wait += fedRestartAfter
					}
					p.Sleep(wait)
					return nil
				})
				if cerr != nil {
					rec.Err = cerr.Error()
					return
				}
				rec.OK, rec.VMID, rec.Retries = true, id, retries
				rec.Plant = ad.GetString(core.AttrPlant, "")
				if hold > 0 {
					p.Sleep(hold)
					// A workspace nobody could collect costs the stream only
					// the capacity it keeps holding.
					retry(fedRetries-1, func() error { return s.Destroy(p, id) }, backoff(p, 2*time.Second))
				}
			})
		}
		for done < n {
			main.Wait(24 * time.Hour)
		}
		makespan = main.Now()
		if after != nil {
			after(main, records)
		}
	})
	return records, makespan, err
}

// buildCells wires a federation of fresh cells on one kernel, each with
// its own testbed and every other cell's shop as a peer, in cell order.
// Journals attach only when withJournals is set (the integrity phase
// needs forwarded intents durable in both cells).
func buildCells(k *sim.Kernel, hub *telemetry.Hub, seed int64, plantsPerCell int, withJournals bool) ([]*Deployment, []*shop.Shop, []*journal.Journal, error) {
	cells := make([]*Deployment, fedCells)
	shops := make([]*shop.Shop, fedCells)
	jnls := make([]*journal.Journal, fedCells)
	for i := range cells {
		d, err := NewDeployment(Options{
			Kernel:      k,
			CellName:    cellName(i),
			Plants:      plantsPerCell,
			Seed:        seed + int64(i)*101,
			PlantConfig: fedPlantConfig,
			Telemetry:   hub,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		if withJournals {
			jnls[i] = d.JournalShop()
		}
		cells[i] = d
		shops[i] = d.Shop
	}
	for i, s := range shops {
		var peers []shop.PeerHandle
		for j, o := range shops {
			if j != i {
				peers = append(peers, shop.NewLocalPeerHandle(o))
			}
		}
		s.SetPeers(peers)
	}
	return cells, shops, jnls, nil
}

var fedPlantConfig = plant.Config{MaxVMs: fedMaxVMs, PublishBack: true}

// forwardCounters accumulates the forward-protocol counters of one
// phase's hub into the result.
func (r *federationResult) forwardCounters(hub *telemetry.Hub) {
	r.PeerBidRounds += hub.Counter("shop.peer_bid_rounds").Value()
	r.Forwarded += hub.Counter("shop.forwarded_creates").Value()
	r.ForwardFails += hub.Counter("shop.forward_failures").Value()
	r.ServedForwards += hub.Counter("shop.served_forwards").Value()
}

// runThroughputPhase measures the scale-out claim: the same stream
// through 1 shop × M plants, then through N shops × M plants.
func runThroughputPhase(seed int64, res *federationResult) error {
	const w = fedStream
	base, err := NewDeployment(Options{Plants: fedPlantsPerCell, Seed: seed, PlantConfig: fedPlantConfig})
	if err != nil {
		return err
	}
	baseRecs, baseSpan, err := runFederatedWave(base.Kernel, base, []*shop.Shop{base.Shop},
		make([]int, w), "base", fedHold, nil)
	if err != nil {
		return fmt.Errorf("federation baseline: %w", err)
	}

	hub := telemetry.New()
	k := sim.NewKernel()
	k.SetTelemetry(hub)
	cells, shops, _, err := buildCells(k, hub, seed+1, fedPlantsPerCell, false)
	if err != nil {
		return err
	}
	fedRecs, fedSpan, err := runFederatedWave(k, cells[0], shops,
		fedTargets(w), "scale", fedHold, nil)
	if err != nil {
		return fmt.Errorf("federation scale-out: %w", err)
	}

	for i := range baseRecs {
		if baseRecs[i].OK {
			res.BaselineSucceeded++
		}
		if fedRecs[i].OK {
			res.FederatedSucceeded++
		}
		res.logf("stream %d base ok=%v retries=%d | fed cell=%s ok=%v plant=%s retries=%d",
			i+1, baseRecs[i].OK, baseRecs[i].Retries,
			cellName(fedRecs[i].TargetCell), fedRecs[i].OK, fedRecs[i].Plant, fedRecs[i].Retries)
	}
	res.BaselineMakespanSecs = baseSpan.Seconds()
	res.FederatedMakespanSecs = fedSpan.Seconds()
	if res.BaselineMakespanSecs > 0 && res.FederatedMakespanSecs > 0 && res.BaselineSucceeded > 0 {
		baseTput := float64(res.BaselineSucceeded) / res.BaselineMakespanSecs
		fedTput := float64(res.FederatedSucceeded) / res.FederatedMakespanSecs
		res.Speedup = fedTput / baseTput
	}
	res.forwardCounters(hub)
	res.logf("throughput: base %d/%d in %.1fs, federated %d/%d in %.1fs, speedup %.3f",
		res.BaselineSucceeded, w, res.BaselineMakespanSecs,
		res.FederatedSucceeded, w, res.FederatedMakespanSecs, res.Speedup)
	return nil
}

// runIntegrityPhase drives the kill/reconcile wave and its exactly-once
// audit.
func runIntegrityPhase(seed int64, res *federationResult) error {
	hub := telemetry.New()
	reg := fault.NewRegistry(seed + 7919)
	reg.SetTelemetry(hub)
	k := sim.NewKernel()
	k.SetTelemetry(hub)
	cells, shops, jnls, err := buildCells(k, hub, seed+2, fedIntegrityPlantsPerCell, true)
	if err != nil {
		return err
	}
	for _, s := range shops {
		s.Faults = reg
	}
	targets := fedTargets(fedIntegrityRequests)

	// Die at the worst cross-cell instant: the peer has built the
	// forwarded VM, the origin has not committed the route.
	hot := shops[0]
	reg.Arm(hot.Name(), fault.DaemonKill, "forward", 1)

	var supLines []string
	supStop := false
	sup := k.Spawn("fed-supervisor", func(p *sim.Proc) {
		for !supStop {
			if hot.Down() {
				p.Sleep(fedRestartAfter)
				st, rerr := hot.Restart(p)
				if rerr != nil {
					p.Failf("federation: hot shop restart: %v", rerr)
				}
				supLines = append(supLines, fmt.Sprintf(
					"hot restart at %.1fs: replayed=%d routes=%d reconciled=%d redriven=%d unresolved=%d",
					p.Now().Seconds(), st.Replayed, st.Routes, st.Reconciled, st.Redriven, st.Unresolved))
				continue
			}
			p.Wait(time.Second)
		}
	})

	var lines []string
	fedRecs, _, err := runFederatedWave(k, cells[0], shops, targets, "fed", 0, func(p *sim.Proc, fedRecs []fedRecord) {
		// Exactly-once audit, half one: every acked creation is
		// queryable through the shop that acked it (local or forwarded).
		for i := range fedRecs {
			r := &fedRecs[i]
			if !r.OK {
				continue
			}
			res.Succeeded++
			if _, qerr := shops[r.TargetCell].Query(p, r.VMID); qerr != nil {
				res.Lost++
				lines = append(lines, fmt.Sprintf("LOST %s (req %d): %v", r.VMID, r.Seq, qerr))
			}
		}

		// Exactly-once audit, half two: the plants across every cell
		// host exactly one VM per acked request.
		var hosted []core.VMID
		for _, r := range fedRecs {
			if r.OK {
				hosted = append(hosted, remoteID(shops[r.TargetCell], r.VMID))
			}
		}
		live := 0
		for _, d := range cells {
			vms, _ := residue(d.Plants)
			live += vms
		}
		res.Duplicated = duplicates(hosted, live)

		// Shut the long-lived procs down so the kernel can quiesce.
		supStop = true
		sup.WakeUp()
	})

	if err != nil {
		return fmt.Errorf("federation integrity: %w", err)
	}

	for _, r := range fedRecs {
		if !r.OK {
			lines = append(lines, fmt.Sprintf("req %d FAILED %s", r.Seq, r.Err))
		}
	}

	res.forwardCounters(hub)
	res.ShopKills = hub.Counter("shop.crashes").Value()
	res.ShopRestarts = hub.Counter("shop.restarts").Value()
	res.Reconciled = hub.Counter("shop.reconciled_creates").Value()
	res.Deduped = hub.Counter("shop.deduped_creates").Value()

	for i, d := range cells {
		load := cellLoad{Cell: cellName(i)}
		for _, t := range targets {
			if t == i {
				load.Targeted++
			}
		}
		load.LiveVMs, _ = residue(d.Plants)
		load.Forwarded = len(d.Shop.Federation().Forwarded)
		res.PerCell = append(res.PerCell, load)
	}

	res.Journals = make(map[string][]journal.Record, fedCells)
	for i, jnl := range jnls {
		res.Journals[cellName(i)] = jnl.Records()
	}
	res.Spans = hub.Tracer.Spans()

	for _, r := range fedRecs {
		res.logf("req %d cell=%s ok=%v id=%s plant=%s retries=%d",
			r.Seq, cellName(r.TargetCell), r.OK, r.VMID, r.Plant, r.Retries)
	}
	res.lines = append(res.lines, supLines...)
	res.lines = append(res.lines, lines...)
	res.lines = append(res.lines, reg.Summary()...)
	return nil
}

// runFederation is the multi-shop control plane's gate, in two phases
// sharing one seed and one fingerprint.
//
// Throughput phase — the scale-out claim. A create–hold–destroy stream
// of workspace requests is driven once through a single shop fronting 6
// plants, then through 3 cells of 6 plants each (each cell its own
// testbed, so its own NFS server), with 70% of the requests aimed at
// the first cell. Clients on both sides get the same bounded patience,
// so the single shop sheds the load it cannot admit while the hot cell
// re-auctions its overflow to peers and serves the full stream; the
// goodput ratio must scale near-linearly with the added cells (>= 2.5x
// for 3 cells).
//
// Integrity phase — the exactly-once claim. A create-and-hold wave
// saturates a smaller federation whose hot shop is killed at the
// nastiest cross-cell instant: after a peer built the forwarded VM but
// before the origin committed the route. The supervisor restarts it
// from its journal, reconciliation probes the attempted peers, clients
// re-submit under the same RequestID — and the audit demands zero lost,
// zero duplicated creations across every cell.
func runFederation(seed int64) (*federationResult, error) {
	res := &federationResult{Cells: fedCells, ThroughputRequests: fedStream, Requests: fedIntegrityRequests}
	if err := runThroughputPhase(seed, res); err != nil {
		return nil, err
	}
	if err := runIntegrityPhase(seed, res); err != nil {
		return nil, err
	}
	res.logf("forwarded=%d fails=%d served=%d kills=%d restarts=%d reconciled=%d deduped=%d lost=%d dup=%d",
		res.Forwarded, res.ForwardFails, res.ServedForwards, res.ShopKills, res.ShopRestarts,
		res.Reconciled, res.Deduped, res.Lost, res.Duplicated)
	return res, nil
}

// Checks: the federation must serve the entire offered stream; the
// single shop is allowed to shed load (that is the point), but must
// serve something or the ratio is meaningless.
func (r *federationResult) Checks() []Check {
	return []Check{
		equal(invariant("federation.served", "federated stream served"), r.FederatedSucceeded, r.ThroughputRequests),
		atLeast(precondition("federation.baseline", "single-shop stream served"), r.BaselineSucceeded, 1),
		atLeast(claim("federation.speedup", "", "goodput speedup over one shop (×)"), r.Speedup, 2.5),
		equal(invariant("federation.integrity-served", "integrity wave served"), r.Succeeded, r.Requests),
		holds(precondition("federation.overflow", "hot-cell creations forwarded/served by peers"), r.Forwarded > 0 && r.ServedForwards > 0,
			fmt.Sprintf("%d/%d", r.Forwarded, r.ServedForwards), "> 0/> 0"),
		holds(precondition("federation.kill", "hot-shop kills/restarts"), r.ShopKills == 1 && r.ShopRestarts == 1,
			fmt.Sprintf("%d/%d", r.ShopKills, r.ShopRestarts), "1/1"),
		equal(invariant("federation.lost", "acknowledged creations lost"), r.Lost, 0),
		equal(invariant("federation.duplicated", "duplicated VMs"), r.Duplicated, 0),
		equal(invariant("federation.journals", "cell journals captured"), len(r.Journals), r.Cells),
	}
}

// Artifacts is each integrity-phase cell's shop journal and that
// phase's span set as a Chrome trace.
func (r *federationResult) Artifacts() []Artifact {
	var arts []Artifact
	for i := 0; i < r.Cells; i++ {
		arts = append(arts, journalJSONL("journal-"+cellName(i)+".jsonl", r.Journals[cellName(i)]))
	}
	return append(arts, chromeTrace("trace.json", r.Spans))
}

// remoteID resolves the VMID actually hosted on a plant: for a
// forwarded creation the origin acked its own ID while the serving
// cell's plant runs the peer-minted one.
func remoteID(s *shop.Shop, id core.VMID) core.VMID {
	if _, remote, ok := s.ForwardedTo(id); ok {
		return remote
	}
	return id
}

// Report renders the run as printable lines.
func (r *federationResult) Report() []string {
	out := []string{
		fmt.Sprintf("cells:                %d", r.Cells),
		fmt.Sprintf("stream:               %d requests (create-hold-destroy)", r.ThroughputRequests),
		fmt.Sprintf("  1 shop:             %d/%d served, makespan %.1fs", r.BaselineSucceeded, r.ThroughputRequests, r.BaselineMakespanSecs),
		fmt.Sprintf("  %d shops:            %d/%d served, makespan %.1fs", r.Cells, r.FederatedSucceeded, r.ThroughputRequests, r.FederatedMakespanSecs),
		fmt.Sprintf("peer bid rounds:      %d (forwarded %d, failed %d, served %d)",
			r.PeerBidRounds, r.Forwarded, r.ForwardFails, r.ServedForwards),
		fmt.Sprintf("hot-shop kills:       %d (restarts %d, reconciled %d, deduped %d)",
			r.ShopKills, r.ShopRestarts, r.Reconciled, r.Deduped),
	}
	for _, c := range r.PerCell {
		out = append(out, fmt.Sprintf("  %s: targeted %d, hosts %d VMs, forwarded %d",
			c.Cell, c.Targeted, c.LiveVMs, c.Forwarded))
	}
	return out
}
