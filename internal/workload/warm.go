package workload

import (
	"fmt"
	"strings"

	"vmplants/internal/core"
	"vmplants/internal/plant"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
	"vmplants/internal/warehouse"
)

// streamParams size the Zipf workspace stream the warm and scrub
// scenarios share: 64 MB workspaces with publish-back on, so the image
// DAG grows derived checkpoints mid-run.
type streamParams struct {
	plants   int
	requests int
	// users is the catalog size the Zipf draw ranges over.
	users int
	// derivedBudgetMB is the warehouse byte budget beyond the seed
	// images, i.e. room for derived checkpoints — sized so the tail
	// users' images churn through utility-based retirement while the
	// popular users' stay resident.
	derivedBudgetMB int
}

const streamMemMB = 64

// options is the stream's deployment: publish-back at the plant's own
// default residual threshold.
func (par streamParams) options(seed int64, hub *telemetry.Hub) Options {
	return Options{
		Plants:        par.plants,
		Seed:          seed,
		GoldenSizesMB: []int{streamMemMB},
		Telemetry:     hub,
		PlantConfig:   plant.Config{PublishBack: true},
	}
}

// budget caps the warehouse at its seeded size plus the derived budget.
func (par streamParams) budget(wh *warehouse.Warehouse) int64 {
	capacity := wh.BytesUsed() + int64(par.derivedBudgetMB)<<20
	wh.SetCapacity(capacity)
	return capacity
}

// seedsIntact reports that every installer-seeded image is still
// published and in service.
func seedsIntact(wh *warehouse.Warehouse, seeds []string) bool {
	for _, s := range seeds {
		if _, ok := wh.Lookup(s); !ok || wh.IsQuarantined(s) {
			return false
		}
	}
	return true
}

// warmRecord is one request's outcome in the stream.
type warmRecord struct {
	Seq        int
	User       int // 0-based Zipf rank
	OK         bool
	CreateSecs float64
	Golden     string // image the creation cloned
	MatchedOps int
}

// warmResult is the full learning-loop measurement.
type warmResult struct {
	// The transcript digests every observable of the run; equal
	// fingerprints across same-seed reruns mean the loop (including
	// its off-critical-path publish processes) is deterministic.
	transcript
	Requests int
	Users    int
	Records  []warmRecord

	ColdMean    float64 // mean creation secs, first half of the stream
	WarmMean    float64 // mean creation secs, second half
	Improvement float64 // 1 - WarmMean/ColdMean

	PublishBacks  int64 // plant.publish_backs
	DerivedImages int   // derived images still published at the end
	Retirements   int64 // derived images evicted by capacity pressure
	BytesUsed     int64
	Capacity      int64
	SeedsIntact   bool // every installer-seeded image survived
	Failed        int

	// Extent dedup: the content-addressed store's end-of-run footprint.
	// SavedBytes is logical minus physical — what sharing byte-identical
	// extents across seed and derived publications kept off the volume.
	ExtentLogicalBytes  int64
	ExtentPhysicalBytes int64
	ExtentSavedBytes    int64
}

// Report renders the result as printable lines.
func (r *warmResult) Report() []string {
	return []string{
		fmt.Sprintf("requests: %d over %d users (Zipf), %d failed", r.Requests, r.Users, r.Failed),
		fmt.Sprintf("cold-half mean creation: %6.1f s", r.ColdMean),
		fmt.Sprintf("warm-half mean creation: %6.1f s", r.WarmMean),
		fmt.Sprintf("improvement:             %6.1f %%", 100*r.Improvement),
		fmt.Sprintf("publish-backs: %d, derived images: %d, retirements: %d",
			r.PublishBacks, r.DerivedImages, r.Retirements),
		fmt.Sprintf("warehouse bytes: %d of %d budget (seeds intact: %v)",
			r.BytesUsed, r.Capacity, r.SeedsIntact),
		fmt.Sprintf("extent store: %d MB logical → %d MB physical (%d MB deduplicated)",
			r.ExtentLogicalBytes>>20, r.ExtentPhysicalBytes>>20, r.ExtentSavedBytes>>20),
	}
}

// Violations lists the learning-loop invariants the run broke.
func (r *warmResult) Violations() []string {
	var g gate
	g.check(r.Failed == 0, "%d requests failed", r.Failed)
	g.check(r.Improvement >= 0.30, "improvement = %.1f%%, want >= 30%%", 100*r.Improvement)
	g.check(r.PublishBacks > 0 && r.DerivedImages > 0,
		"publish-backs = %d, derived images = %d", r.PublishBacks, r.DerivedImages)
	g.check(r.Retirements > 0, "capacity pressure retired nothing")
	g.check(r.BytesUsed <= r.Capacity, "bytes used %d exceed the %d budget", r.BytesUsed, r.Capacity)
	g.check(r.SeedsIntact, "a seed image was evicted")
	g.check(r.ExtentSavedBytes > 0, "no extent bytes saved (logical %d, physical %d) — content-addressed dedup is not engaging",
		r.ExtentLogicalBytes, r.ExtentPhysicalBytes)
	return g
}

// runWarm is the warehouse learning-loop gate: a Zipf-skewed stream of
// workspace requests (popular users recur) replayed through a fresh
// deployment with publish-back enabled. Early requests pay full
// residual configuration and checkpoint derived golden images back to
// the warehouse; later requests for the same configurations clone those
// checkpoints instead of reconfiguring, so the warm half of the stream
// must create VMs >= 30% faster than the cold half — within a byte
// budget sized to force utility-based retirement (observed, seeds
// intact). Each workspace is destroyed right after creation — the
// In-VIGO session ends — so derived images are unreferenced between
// requests and retirement always has candidates.
func runWarm(seed int64, par streamParams) (*warmResult, error) {
	hub := telemetry.New()
	d, err := NewDeployment(par.options(seed, hub))
	if err != nil {
		return nil, err
	}
	seeds := d.Warehouse.List()
	// Every user's first login lands in the cold half, so the warm half
	// measures what the now-populated warehouse buys.
	users := zipfUsers(seed, par.requests, par.users)

	res := &warmResult{Requests: par.requests, Users: par.users, Capacity: par.budget(d.Warehouse)}
	err = d.Run(func(p *sim.Proc) error {
		for i, user := range users {
			// Same user ⇒ same personalization DAG, so a repeat can
			// fully match that user's derived checkpoint.
			spec, err := d.userEnvSpec(user+1, streamMemMB)
			if err != nil {
				return err
			}
			start := p.Now()
			id, ad, err := d.Shop.Create(p, spec)
			rec := warmRecord{Seq: i + 1, User: user, CreateSecs: (p.Now() - start).Seconds()}
			if err == nil {
				rec.OK = true
				rec.Golden = ad.GetString(core.AttrGoldenImage, "")
				rec.MatchedOps = int(ad.GetInt(core.AttrMatchedOps, 0))
				// The workspace session ends: collect the VM so the
				// images it referenced become retirable again.
				if derr := d.Shop.Destroy(p, id); derr != nil {
					return derr
				}
			}
			res.Records = append(res.Records, rec)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	half := len(res.Records) / 2
	res.ColdMean = meanCreateSecs(res.Records[:half])
	res.WarmMean = meanCreateSecs(res.Records[half:])
	if res.ColdMean > 0 {
		res.Improvement = 1 - res.WarmMean/res.ColdMean
	}
	for _, r := range res.Records {
		if !r.OK {
			res.Failed++
		}
	}
	res.PublishBacks = hub.Counter("plant.publish_backs").Value()
	res.DerivedImages = d.Warehouse.DerivedCount()
	res.Retirements = d.Warehouse.Retirements()
	res.BytesUsed = d.Warehouse.BytesUsed()
	ext := d.Warehouse.ExtentStatsNow()
	res.ExtentLogicalBytes = ext.LogicalBytes
	res.ExtentPhysicalBytes = ext.PhysicalBytes
	res.ExtentSavedBytes = ext.SavedBytes()
	res.SeedsIntact = seedsIntact(d.Warehouse, seeds)

	for _, r := range res.Records {
		res.logf("req=%d user=%d ok=%v secs=%.6f golden=%s matched=%d",
			r.Seq, r.User, r.OK, r.CreateSecs, r.Golden, r.MatchedOps)
	}
	res.logf("end images=[%s] bytes=%d retirements=%d publishes=%d",
		strings.Join(d.Warehouse.List(), " "), res.BytesUsed, res.Retirements, res.PublishBacks)
	return res, nil
}

func meanCreateSecs(recs []warmRecord) float64 {
	var sum float64
	n := 0
	for _, r := range recs {
		if r.OK {
			sum += r.CreateSecs
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
