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
	// read, i.e. per clone-cache fill (the acceptance floor is 0.01).
	cloneRead float64
	// scrubRead is the corrupt-extent probability per image per scrub
	// pass — bit rot the scrubber itself discovers.
	scrubRead float64
	// tornWrite corrupts a publication as it lands; the damage is latent
	// until the next clone miss or scrub read (high because
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
		fmt.Sprintf("requests:          %d (%d failed, %d client retries)", r.Requests, r.Failed, r.ClientRetries),
		fmt.Sprintf("verified clones:   %d (every completed creation resumed from verified state)", r.VerifiedClones),
		fmt.Sprintf("corruptions:       %d injected, %d detected", r.Injected, r.Detected),
		fmt.Sprintf("quarantines:       %d (repairs %d, retired %d, still quarantined %d)",
			r.Quarantines, r.Repairs, r.Retirements, r.InQuarantine),
		fmt.Sprintf("repair bytes:      %d", r.RepairBytes),
		fmt.Sprintf("scrub passes:      %d (%d clean verifications)", r.ScrubPasses, r.ScrubVerified),
		fmt.Sprintf("end audit:         dirty=%d seeds intact=%v", len(r.DirtyAtEnd), r.SeedsIntact),
	}
}

// Violations lists the integrity invariants the run broke.
func (r *scrubResult) Violations() []string {
	var g gate
	g.check(r.Failed == 0, "%d of %d requests never succeeded", r.Failed, r.Requests)
	g.check(r.Injected > 0, "no corruption was injected; the run proves nothing")
	g.check(r.Detected > 0, "%d corruptions injected but none detected", r.Injected)
	g.check(r.Quarantines > 0, "corruption detected but nothing quarantined")
	g.check(r.Repairs > 0, "nothing was ever repaired")
	g.check(int64(r.Succeeded) <= r.VerifiedClones,
		"%d creations succeeded but only %d clones verified — a creation resumed unverified state", r.Succeeded, r.VerifiedClones)
	g.check(r.InQuarantine == 0, "%d images leaked in quarantine at end of run", r.InQuarantine)
	g.check(len(r.DirtyAtEnd) == 0,
		"silent corruption — %v failed the final deep verify without ever being detected", r.DirtyAtEnd)
	g.check(r.SeedsIntact, "a seed image was lost or left quarantined")
	return g
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
	// A small hot clone cache, so opens miss — and therefore verify —
	// often.
	d.Warehouse.SetCloneCacheSize(2)

	// The replica device: the site's second copy of the installer-laid
	// seed extents, and the repair source for seed corruption. Mirrored
	// before any fault rule arms, so the replica is clean by
	// construction.
	replica := storage.NewVolume("replica", storage.NewDevice("replica-disk", 40<<20, 2*time.Millisecond))
	d.Warehouse.SetReplica(replica)
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
