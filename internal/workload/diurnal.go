package workload

import (
	"errors"
	"fmt"
	"math"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/cost"
	"vmplants/internal/fault"
	"vmplants/internal/fleet"
	"vmplants/internal/journal"
	"vmplants/internal/plant"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
)

// diurnalParams shape one diurnal run.
type diurnalParams struct {
	// days is the simulated horizon.
	days int
	// plants is the testbed size — every node that could ever host a
	// plant. standby of them start outside the shop's rotation as the
	// controller's provisioning pool.
	plants, standby int
	// baseRatePerHour is the day-average arrival rate.
	baseRatePerHour float64
	// holdMean is the mean VM lifetime before the client collects it
	// (exponentially distributed).
	holdMean time.Duration
	// flashCrowds schedules demand spikes: at each offset from the start
	// of the run, flashCrowdSize extra requests arrive within one minute.
	flashCrowds    []time.Duration
	flashCrowdSize int
	// maintenance schedules plant retirements: at each offset the
	// longest-serving active plant is drained and retired. The first
	// window carries a kill -9 of the shop daemon mid-drain.
	maintenance []time.Duration
	// admission bounds the shop's front door.
	admission shop.AdmissionConfig
	// fleet tunes the autoscaler.
	fleet fleet.Config
}

// diurnalPaper is the simulated week: flash crowds on day 1 20:00 and
// day 4 13:00, maintenance on day 2 04:00 and day 5 04:00.
var diurnalPaper = diurnalParams{
	days:            7,
	plants:          6,
	standby:         3,
	baseRatePerHour: 2,
	holdMean:        4 * time.Hour,
	flashCrowds:     []time.Duration{44 * time.Hour, 109 * time.Hour},
	flashCrowdSize:  14,
	maintenance:     []time.Duration{52 * time.Hour, 124 * time.Hour},
	admission: shop.AdmissionConfig{
		MaxInflight:     4,
		MaxQueue:        6,
		MaxWait:         10 * time.Minute,
		ServiceEstimate: 3 * time.Minute,
	},
	fleet: fleet.Config{
		MinPlants:       2,
		MaxPlants:       6,
		Tick:            5 * time.Minute,
		Cooldown:        30 * time.Minute,
		ScaleUpDepth:    3,
		ScaleUpFailures: 1,
		QuietTicks:      24,
	},
}

// diurnalSmoke compresses the run for CI: two days, a hotter request
// stream, one flash crowd and one maintenance window per day.
var diurnalSmoke = diurnalParams{
	days:            2,
	plants:          5,
	standby:         2,
	baseRatePerHour: 3,
	holdMean:        2 * time.Hour,
	flashCrowds:     []time.Duration{20 * time.Hour, 37 * time.Hour},
	flashCrowdSize:  10,
	maintenance:     []time.Duration{28 * time.Hour, 42 * time.Hour},
	admission: shop.AdmissionConfig{
		MaxInflight:     3,
		MaxQueue:        4,
		MaxWait:         10 * time.Minute,
		ServiceEstimate: 3 * time.Minute,
	},
	fleet: fleet.Config{
		MinPlants:       2,
		MaxPlants:       5,
		Tick:            2 * time.Minute,
		Cooldown:        10 * time.Minute,
		ScaleUpDepth:    2,
		ScaleUpFailures: 1,
		QuietTicks:      45,
	},
}

const (
	// diurnalAmplitude is the sine's swing as a fraction of the base
	// rate: peak at 14:00, trough at 02:00.
	diurnalAmplitude = 0.7
	// diurnalZipfS is the image-popularity exponent. Daytime ranks the
	// catalog small-first (interactive workspaces); night reverses it
	// (big batch images).
	diurnalZipfS = 1.3
	// diurnalRestartAfter is the supervisor's restart delay.
	diurnalRestartAfter = 30 * time.Second
	// diurnalRetries bounds per-request resubmissions; diurnalBackoff is
	// the base backoff, doubled per attempt.
	diurnalRetries = 10
	diurnalBackoff = 90 * time.Second
)

// diurnalResult is one run's outcome plus its audits.
type diurnalResult struct {
	transcript // every virtual-time observable
	Days       int
	Requests   int
	Succeeded  int
	// FailedFinal counts requests abandoned after every retry.
	FailedFinal int
	// Shed counts ErrOverload refusals; NonRetryableSheds counts sheds
	// that were not in the transient class (must be zero — a shed
	// request must always be safe to resubmit).
	Shed              int
	NonRetryableSheds int
	// DestroyFails counts collections abandoned after every retry.
	DestroyFails int

	ScaleUps   int
	ScaleDowns int
	Retired    int
	Migrated   int64

	ShopKills     int64
	ShopRestarts  int64
	ResumedDrains int

	// OrphanVMs counts VMs still hosted anywhere (any plant ever in the
	// fleet, retired ones included) after every client collected.
	OrphanVMs int
	// LeakedNets counts virtual networks still allocated after the last
	// VM was collected; LeakedExtentRefs is extent-store references
	// above the published-catalog baseline.
	LeakedNets       int
	LeakedExtentRefs int

	Objectives []telemetry.ObjectiveStatus
	SLOsHold   bool

	PeakPlants int

	// Journal is the shop's full write-ahead log and Spans the run's
	// span set — the failure artifacts a red CI job uploads.
	Journal []journal.Record
	Spans   []telemetry.Span
}

// Violations lists every acceptance-gate failure.
func (r *diurnalResult) Violations() []string {
	var g gate
	g.check(r.SLOsHold, "SLOs violated over the week")
	g.check(r.ScaleUps >= 2, "scale-ups = %d, want >= 2", r.ScaleUps)
	g.check(r.Retired >= 2, "drain/retires = %d, want >= 2", r.Retired)
	g.check(r.ShopKills >= 1, "no shop kill landed mid-drain")
	g.check(r.ShopRestarts >= 1, "killed shop never restarted")
	g.check(r.ResumedDrains >= 1, "interrupted drain never resumed")
	g.check(r.OrphanVMs == 0, "orphaned VMs = %d", r.OrphanVMs)
	g.check(r.LeakedNets == 0, "leaked virtual networks = %d", r.LeakedNets)
	g.check(r.LeakedExtentRefs == 0, "leaked extent refs = %d", r.LeakedExtentRefs)
	g.check(r.Shed > 0, "overload path never exercised (0 sheds)")
	g.check(r.NonRetryableSheds == 0, "non-retryable sheds = %d", r.NonRetryableSheds)
	g.check(r.FailedFinal == 0, "requests abandoned = %d", r.FailedFinal)
	g.check(r.DestroyFails == 0, "collections abandoned = %d", r.DestroyFails)
	return g
}

// Artifacts is the shop's write-ahead log and the run's span set as a
// Chrome trace.
func (r *diurnalResult) Artifacts() []Artifact {
	return []Artifact{journalJSONL("journal-shop.jsonl", r.Journal), chromeTrace("trace.json", r.Spans)}
}

// Report renders the run as printable lines.
func (r *diurnalResult) Report() []string {
	return append([]string{
		fmt.Sprintf("simulated days:     %d", r.Days),
		fmt.Sprintf("requests:           %d (succeeded %d, abandoned %d)", r.Requests, r.Succeeded, r.FailedFinal),
		fmt.Sprintf("shed at admission:  %d (non-retryable %d)", r.Shed, r.NonRetryableSheds),
		fmt.Sprintf("scale-ups:          %d (peak fleet %d plants)", r.ScaleUps, r.PeakPlants),
		fmt.Sprintf("drain/retires:      %d (controller %d, migrations %d)", r.Retired, r.ScaleDowns, r.Migrated),
		fmt.Sprintf("shop kills:         %d (restarts %d, drains resumed %d)", r.ShopKills, r.ShopRestarts, r.ResumedDrains),
		fmt.Sprintf("orphaned VMs:       %d", r.OrphanVMs),
		fmt.Sprintf("leaked nets:        %d", r.LeakedNets),
		fmt.Sprintf("leaked extent refs: %d", r.LeakedExtentRefs),
		fmt.Sprintf("collect failures:   %d", r.DestroyFails),
	}, objectiveReport(r.Objectives)...)
}

// rate is the diurnal arrival intensity at elapsed virtual time t, in
// arrivals per hour: the base rate swung by a 24-hour sine peaking at
// 14:00 and bottoming at 02:00.
func (par diurnalParams) rate(t time.Duration) float64 {
	hour := t.Hours()
	return par.baseRatePerHour * (1 + diurnalAmplitude*math.Sin(2*math.Pi*(hour-8)/24))
}

// daytime reports whether the sine is in its positive half at t — the
// interactive half of the popularity mixture.
func daytime(t time.Duration) bool {
	hour := math.Mod(t.Hours(), 24)
	return hour >= 8 && hour < 20
}

// runDiurnal is the elasticity stack's gate: a simulated week of load
// — Zipf-skewed image popularity riding a day/night sine, flash crowds,
// scheduled maintenance windows — against a shop with a bounded
// admission gate and a fleet controller that grows and shrinks the
// plant set. The discrete-event substrate compresses the week into
// seconds of wall clock. The run passes only if the standing SLOs hold
// over the whole week, the fleet actually flexed (scale-ups and
// drain/retires both happened, one retirement crossing a kill -9), no
// VM was orphaned, no virtual network or extent reference leaked, and
// every shed request was retryable.
func runDiurnal(seed int64, par diurnalParams) (*diurnalResult, error) {
	hub := telemetry.New()
	hub.Tracer = telemetry.NewTracer(1 << 16)
	d, reg, err := newFaultedSite(104729, Options{
		Plants:        par.plants,
		StandbyPlants: par.standby,
		Seed:          seed,
		Telemetry:     hub,
	})
	if err != nil {
		return nil, err
	}
	sizesMB := d.Opts.GoldenSizesMB // the image catalog, by memory size
	d.Shop.SetAdmission(par.admission)

	// Journal: the drain protocol's durability (and the mid-drain kill's
	// recovery) rides the shop's write-ahead log.
	jnl := d.JournalShop()
	installSLOs(hub)

	// The provisioning pool: standby plants first, then fresh plants on
	// nodes whose previous tenant retired (a maintenance window returns
	// its node to service under a new generation name — retirement is
	// forever for a plant name, not for the hardware).
	model, err := cost.ByName(d.Opts.CostModelName)
	if err != nil {
		return nil, err
	}
	allPlants := append([]*plant.Plant(nil), d.Plants...)
	tenant := make([]string, len(d.Testbed.Nodes)) // node index → current plant name
	for i, pl := range d.Plants {
		tenant[i] = pl.Name()
	}
	gen := make([]int, len(d.Testbed.Nodes))
	activeBase := par.plants - par.standby
	provision := func(p *sim.Proc, idx int) (shop.PlantHandle, error) {
		if idx < par.standby {
			return d.Handles[activeBase+idx], nil
		}
		for i, name := range tenant {
			if name != "" && !d.Shop.Retired(name) {
				continue
			}
			gen[i]++
			pname := fmt.Sprintf("%s-g%d", d.Testbed.Nodes[i].Name(), gen[i]+1)
			pl := plant.New(pname, d.Testbed.Nodes[i], d.Warehouse,
				plant.Config{CostModel: model, Telemetry: hub})
			allPlants = append(allPlants, pl)
			tenant[i] = pname
			return shop.NewLocalHandle(pl), nil
		}
		return nil, fmt.Errorf("diurnal: every node occupied")
	}
	c := fleet.New(par.fleet, d.Shop, hub, provision)

	baseExtentRefs := d.Warehouse.ExtentStatsNow().Refs

	res := &diurnalResult{Days: par.days}
	rng := sim.NewRNG(seed + 7919)
	horizon := time.Duration(par.days) * 24 * time.Hour
	rateMax := par.baseRatePerHour * (1 + diurnalAmplitude)
	pending := 0 // arrivals not yet settled (success held+collected, or failed)

	// One arrival: create with retry/backoff, hold, collect. Runs on its
	// own proc; hold is drawn by the caller to keep the RNG stream in
	// spawn order (deterministic) rather than completion order.
	arrival := func(seq, memMB int, hold time.Duration, label string) {
		d.Kernel.Spawn(fmt.Sprintf("%s-%04d", label, seq), func(ap *sim.Proc) {
			defer func() { pending-- }()
			spec, serr := d.WorkspaceSpec(seq, memMB)
			if serr != nil {
				res.FailedFinal++
				return
			}
			spec.RequestID = fmt.Sprintf("req-%05d", seq)
			shed := func(cerr error) {
				if errors.Is(cerr, shop.ErrOverload) {
					res.Shed++
					if !errors.Is(cerr, core.ErrTransient) {
						res.NonRetryableSheds++
					}
				}
			}
			// Back off harder each attempt; the shop's supervisor (the
			// maintenance proc) owns restarts, clients just wait out a
			// dead or overloaded daemon.
			id, _, _, cerr := createRetrying(ap, d.Shop, spec, diurnalRetries, func(try int, cerr error) error {
				shed(cerr)
				ap.Sleep(diurnalBackoff << uint(min(try, 3)))
				return nil
			})
			if cerr != nil {
				shed(cerr)
				res.FailedFinal++
				res.logf("req %05d FAILED t=%.0f %v", seq, ap.Now().Seconds(), cerr)
				return
			}
			res.Succeeded++
			res.logf("req %05d ok %s route=%s t=%.0f", seq, id, d.Shop.RouteOf(id), ap.Now().Seconds())
			ap.Sleep(hold)
			if _, derr := retry(diurnalRetries, func() error { return d.Shop.Destroy(ap, id) }, backoff(ap, diurnalBackoff)); derr != nil {
				res.DestroyFails++
				res.logf("req %05d COLLECT-FAILED %s", seq, id)
			}
		})
	}

	var runErr error // set by a maintenance proc whose supervisor duty failed
	err = d.Run(func(p *sim.Proc) error {
		c.Start(p.Kernel())

		// Maintenance windows: drain and retire the longest-serving
		// active plant at each scheduled offset. The first window carries
		// the chaos gate's kill -9: the daemon dies with the drain open,
		// the supervisor restarts it from the journal and resumes.
		for i, at := range par.maintenance {
			kill := i == 0
			p.Kernel().Spawn(fmt.Sprintf("maintenance-%d", i), func(mp *sim.Proc) {
				mp.Sleep(at)
				victim := ""
				for _, h := range d.Shop.Plants() {
					name := h.Name()
					if d.Shop.Draining(name) {
						continue
					}
					if victim == "" || name < victim {
						victim = name
					}
				}
				if victim == "" {
					return
				}
				if kill {
					reg.Arm(d.Shop.Name(), fault.DaemonKill, "drain", 1)
				}
				derr := d.Shop.DrainAndRetire(mp, victim)
				if errors.Is(derr, shop.ErrShopDown) {
					mp.Sleep(diurnalRestartAfter)
					st, rerr := d.Shop.Restart(mp)
					if rerr != nil {
						runErr = rerr
						return
					}
					res.logf("maintenance %d: shop restarted replayed=%d routes=%d open_drains=%v",
						i, st.Replayed, st.Routes, d.Shop.OpenDrains())
					if rerr := d.Shop.ResumeDrains(mp); rerr != nil {
						runErr = rerr
						return
					}
					res.ResumedDrains++
					derr = nil
				}
				if derr != nil {
					runErr = fmt.Errorf("maintenance drain of %s: %w", victim, derr)
					return
				}
				res.logf("maintenance %d: retired %s t=%.0f", i, victim, mp.Now().Seconds())
			})
		}

		// Flash crowds: a burst of extra arrivals inside one minute.
		seq := 0
		for i, at := range par.flashCrowds {
			offsets := make([]time.Duration, par.flashCrowdSize)
			holds := make([]time.Duration, par.flashCrowdSize)
			sizes := make([]int, par.flashCrowdSize)
			for j := range offsets {
				offsets[j] = time.Duration(rng.Uniform(0, 60)) * time.Second
				holds[j] = time.Duration(rng.Exp(par.holdMean.Seconds())) * time.Second
				sizes[j] = sizesMB[rng.Zipf(len(sizesMB), diurnalZipfS)]
			}
			base := par.days * 100000 // flash-crowd seqs outside the steady stream's range
			crowd := i
			p.Kernel().Spawn(fmt.Sprintf("flash-%d", i), func(fp *sim.Proc) {
				fp.Sleep(at)
				start := fp.Now()
				for j := range offsets {
					fp.Sleep(start + offsets[j] - fp.Now())
					pending++
					arrival(base+crowd*1000+j, sizes[j], holds[j], "flash")
				}
			})
		}

		// The steady stream: a non-homogeneous Poisson process by
		// thinning against the peak rate.
		for p.Now() < horizon {
			p.Sleep(time.Duration(rng.Exp(3600/rateMax)) * time.Second)
			if p.Now() >= horizon {
				break
			}
			if rng.Float64() >= par.rate(p.Now())/rateMax {
				continue
			}
			seq++
			ranked := append([]int(nil), sizesMB...)
			if !daytime(p.Now()) {
				for l, r := 0, len(ranked)-1; l < r; l, r = l+1, r-1 {
					ranked[l], ranked[r] = ranked[r], ranked[l]
				}
			}
			memMB := ranked[rng.Zipf(len(ranked), diurnalZipfS)]
			hold := time.Duration(rng.Exp(par.holdMean.Seconds())) * time.Second
			pending++
			arrival(seq, memMB, hold, "arrival")
			if n := len(d.Shop.Plants()); n > res.PeakPlants {
				res.PeakPlants = n
			}
		}
		res.Requests = seq + len(par.flashCrowds)*par.flashCrowdSize

		// Drain the tail: every arrival settles, every hold collects,
		// every open drain retires.
		for pending > 0 {
			p.Sleep(5 * time.Minute)
		}
		for len(d.Shop.OpenDrains()) > 0 || c.Status().Draining > 0 {
			p.Sleep(time.Minute)
		}
		c.Stop()
		return runErr
	})
	if err != nil {
		return nil, err
	}

	// Audit 1 — fleet flexing.
	st := c.Status()
	res.ScaleUps = st.ScaleUps
	res.ScaleDowns = st.ScaleDowns
	if n := len(d.Shop.Plants()); n > res.PeakPlants {
		res.PeakPlants = n
	}
	res.Retired = int(hub.Counter("shop.plant_retirements").Value())
	res.Migrated = hub.Counter("shop.drain_migrations").Value()
	res.ShopKills = hub.Counter("shop.crashes").Value()
	res.ShopRestarts = hub.Counter("shop.restarts").Value()

	// Audit 2 — nothing orphaned, nothing leaked. Every VM was
	// collected, so every plant that ever served (retired ones included)
	// must be empty, every virtual network released, and the extent
	// store back at the published-catalog baseline.
	res.OrphanVMs, res.LeakedNets = residue(allPlants)
	res.LeakedExtentRefs = d.Warehouse.ExtentStatsNow().Refs - baseExtentRefs

	// Audit 3 — the standing SLOs over the whole week.
	res.Objectives, res.SLOsHold = evaluateSLOs(hub, d.Kernel.Now(), &res.transcript)

	res.logf("requests=%d ok=%d failed=%d shed=%d scale_ups=%d scale_downs=%d retired=%d migrated=%d kills=%d restarts=%d resumed=%d orphans=%d leaked_nets=%d leaked_refs=%d end=%s",
		res.Requests, res.Succeeded, res.FailedFinal, res.Shed, res.ScaleUps, res.ScaleDowns,
		res.Retired, res.Migrated, res.ShopKills, res.ShopRestarts, res.ResumedDrains,
		res.OrphanVMs, res.LeakedNets, res.LeakedExtentRefs, d.Kernel.Now())
	res.Journal = jnl.Records()
	res.Spans = hub.T().Spans()
	return res, nil
}
