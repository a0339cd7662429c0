package workload

import (
	"fmt"
	"strings"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/fault"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
	"vmplants/internal/telemetry"
)

// corruption is the integrity attack's rates.
type corruption struct {
	// cloneRead is the corrupt-extent probability per verifying clone
	// read, i.e. per first open of an (image, integrity epoch) (the
	// acceptance floor is 0.01).
	cloneRead float64
	// scrubRead is the corrupt-extent probability per image per scrub
	// pass — bit rot the scrubber itself discovers.
	scrubRead float64
	// tornWrite corrupts a publication as it lands; the damage is latent
	// until the next verifying clone open or scrub read (high because
	// publications are rare, one per distinct configuration).
	tornWrite float64
}

var scrubCorruption = corruption{cloneRead: 0.05, scrubRead: 0.02, tornWrite: 0.15}

// scrubResult is the chaos-integrity measurement.
type scrubResult struct {
	// The transcript digests every observable; equal fingerprints
	// across same-seed reruns prove the whole detect/quarantine/repair
	// loop is deterministic.
	transcript
	Requests      int
	Succeeded     int
	Failed        int
	ClientRetries int

	VerifiedClones int64 // plant.verified_clones
	Injected       int64 // corrupt-extent + torn-write injections
	Detected       int64 // warehouse.corruptions_detected
	Quarantines    int64
	Repairs        int64
	RepairBytes    int64
	Retirements    int64 // scrub retirements of unrepairable images
	ScrubPasses    int64
	ScrubVerified  int64

	// End-of-run audit.
	InQuarantine int      // images still quarantined
	DirtyAtEnd   []string // images failing the final deep verify
	SeedsIntact  bool

	Injections map[string]int64
}

// Report renders the result as printable lines.
func (r *scrubResult) Report() []string {
	return []string{
		fmt.Sprintf("requests:          %d (%d client retries)", r.Requests, r.ClientRetries),
		fmt.Sprintf("quarantines:       %d (repairs %d, retired %d)", r.Quarantines, r.Repairs, r.Retirements),
		fmt.Sprintf("repair bytes:      %d", r.RepairBytes),
		fmt.Sprintf("scrub passes:      %d (%d clean verifications)", r.ScrubPasses, r.ScrubVerified),
	}
}

func (r *scrubResult) Checks() []Check {
	return []Check{
		equal(invariant("scrub.served", "requests that never succeeded"), r.Failed, 0),
		atLeast(precondition("scrub.injected", "corruptions injected"), r.Injected, 1),
		atLeast(claim("scrub.detected", "", "corruptions detected"), r.Detected, 1),
		atLeast(claim("scrub.quarantined", "", "quarantines"), r.Quarantines, 1),
		atLeast(claim("scrub.repaired", "", "repairs"), r.Repairs, 1),
		// A creation that resumed unverified state shows as a success
		// without a verified clone.
		atLeast(invariant("scrub.verified", "verified clones, one per success at least"), r.VerifiedClones, int64(r.Succeeded)),
		equal(invariant("scrub.quarantine-leak", "images still quarantined at the end"), r.InQuarantine, 0),
		// Corruption that failed the final deep verify was never detected.
		equal(invariant("scrub.silent", "images failing the final deep verify"), len(r.DirtyAtEnd), 0),
		equal(invariant("scrub.seeds", "seed images registered and in service"), r.SeedsIntact, true),
	}
}

// runScrub is the data-integrity gate: it proves the end-to-end
// integrity invariant under attack. The Zipf workspace stream runs
// while corrupt-extent faults scramble warehouse state on clone reads
// and scrub reads, and torn-write faults corrupt publications as they
// land. The system must never resume a creation from unverified state,
// must quarantine every detected corruption, and must heal itself:
// seeds from the replica device, derived images by DAG replay against
// their parent. The end-of-run audit — every image verifies clean,
// nothing left in quarantine, seeds intact — is the zero-silent-
// corruption proof: corrupted checksums persist until repaired, and
// repairs only follow detection, so a clean end state means nothing
// slipped through.
func runScrub(seed int64, par streamParams) (*scrubResult, error) {
	return scrubStream(seed, par, scrubCorruption)
}

// scrubStream replays the stream under the given corruption rates with
// the background scrubber healing the warehouse, then audits the end
// state.
func scrubStream(seed int64, par streamParams, attack corruption) (*scrubResult, error) {
	const (
		// scrubInterval is the background scrubber's cadence.
		scrubInterval = 30 * time.Second
		// clientRetries bounds re-submissions of a request that failed
		// while the matching images sat in quarantine; retryDelay must
		// exceed scrubInterval so a repair can land in between.
		clientRetries = 10
		retryDelay    = 45 * time.Second
	)
	hub := telemetry.New()
	d, reg, err := newFaultedSite(104729, par.options(seed, hub))
	if err != nil {
		return nil, err
	}
	seeds := d.Warehouse.List()
	par.budget(d.Warehouse)

	// The replica device: the site's second copy of the installer-laid
	// seed extents, and the repair source for seed corruption. Mirrored
	// before any fault rule arms, so the replica is clean by
	// construction.
	replica := storage.NewVolume("replica", storage.NewDevice("replica-disk", 40<<20, 2*time.Millisecond))
	d.Warehouse.SetReplica(replica)
	// The first verifying clone read is corrupted whenever the attack
	// corrupts clone reads at all, so every run has something to detect.
	if attack.cloneRead > 0 {
		reg.Arm("warehouse", fault.CorruptExtent, "clone", 1)
	}
	reg.SetProb("warehouse", fault.CorruptExtent, "clone", attack.cloneRead)
	reg.SetProb("warehouse", fault.CorruptExtent, "scrub", attack.scrubRead)
	reg.SetProb("warehouse", fault.TornWrite, "publish", attack.tornWrite)

	users := zipfUsers(seed, par.requests, par.users)
	res := &scrubResult{Requests: par.requests}
	scrubber := d.Warehouse.NewScrubber(scrubInterval)
	err = d.Run(func(p *sim.Proc) error {
		scrubber.Start(p.Kernel())
		for i, user := range users {
			spec, err := d.userEnvSpec(user+1, streamMemMB)
			if err != nil {
				return err
			}
			// The matching images may all sit in quarantine; back off
			// past a scrub interval so a repair can land.
			id, ad, retries, cerr := createRetrying(p, d.Shop, spec, clientRetries, backoff(p, retryDelay))
			res.ClientRetries += retries
			if cerr != nil {
				res.logf("req=%d user=%d FAILED %v", i+1, user, cerr)
				res.Failed++
				continue
			}
			res.logf("req=%d user=%d ok golden=%s tries=%d t=%.3f",
				i+1, user, ad.GetString(core.AttrGoldenImage, ""), retries+1, p.Now().Seconds())
			res.Succeeded++
			// The workspace session ends immediately so derived images
			// stay unreferenced (retirable) between requests.
			if derr := d.Shop.Destroy(p, id); derr != nil {
				return derr
			}
		}
		// Drain: off-critical-path publish-backs finish and the
		// background scrubber works through any remaining quarantine.
		p.Sleep(20 * scrubInterval)
		// Final synchronous passes: at least one, so a torn write still
		// latent from a late publish-back is detected and healed before
		// the audit; extras settle multi-pass repairs.
		d.Warehouse.ScrubPass(p)
		for i := 0; i < 4 && len(d.Warehouse.Quarantined()) > 0; i++ {
			d.Warehouse.ScrubPass(p)
		}
		scrubber.Stop()
		return nil
	})
	if err != nil {
		return nil, err
	}

	res.VerifiedClones = hub.Counter("plant.verified_clones").Value()
	res.Injected = reg.Total(fault.CorruptExtent) + reg.Total(fault.TornWrite)
	stats := d.Warehouse.ScrubStatsNow()
	res.Detected = stats.Corruptions
	res.Quarantines = stats.Quarantines
	res.Repairs = stats.Repairs
	res.RepairBytes = stats.RepairBytes
	res.Retirements = stats.Retirements
	res.ScrubPasses = stats.Passes
	res.ScrubVerified = stats.Verified
	res.InQuarantine = stats.InQuarantine
	res.DirtyAtEnd = d.Warehouse.DirtyImages()
	res.Injections = reg.Counts()
	res.SeedsIntact = seedsIntact(d.Warehouse, seeds)

	res.lines = append(res.lines, reg.Summary()...)
	res.logf("verified=%d detected=%d quarantines=%d repairs=%d repair_bytes=%d retired=%d passes=%d",
		res.VerifiedClones, res.Detected, res.Quarantines, res.Repairs, res.RepairBytes, res.Retirements, res.ScrubPasses)
	res.logf("end images=[%s] quarantine=[%s] dirty=[%s]",
		strings.Join(d.Warehouse.List(), " "),
		strings.Join(d.Warehouse.Quarantined(), " "),
		strings.Join(res.DirtyAtEnd, " "))
	return res, nil
}
