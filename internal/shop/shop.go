// Package shop implements the VMShop service (paper §3.1): the single
// logical point of contact where clients create, query and destroy
// virtual machines. The shop discovers plants, collects cost bids for
// each creation request, selects the cheapest plant (random among
// ties, as in the paper's walk-through), and routes queries and
// collections to the plant hosting each VM.
//
// Per the paper, an active VM's classad "is not part of the state that
// needs to be maintained by VMShop"; the shop keeps only a soft routing
// cache and can rebuild it by querying plants, which Recover exercises.
package shop

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/fault"
	"vmplants/internal/journal"
	"vmplants/internal/proto"
	"vmplants/internal/shop/ledger"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
)

// Shop is one VMShop instance.
type Shop struct {
	name   string
	plants []PlantHandle // wired at New, never changed after
	rng    *sim.RNG

	// nextID is atomic so concurrent Create calls (e.g. from the RPC
	// server's per-connection handlers) never mint duplicate VMIDs.
	nextID atomic.Uint64
	cache  map[core.VMID]*classad.Ad // optional last-known ads, served when the plant cannot answer; see keep

	// peers are the other cells of the federation (SetPeers); when a
	// creation cannot be served locally it is re-auctioned among them.
	peers []PeerHandle

	// CacheAds keeps each VM's last ad (paper: "VMShop may, however,
	// cache classad information"), served only when the plant cannot
	// answer: by decision a routed query still asks the plant, as only it
	// knows the VM's UptimeSecs and state.
	CacheAds bool

	// Faults injects shop-level chaos: fault.DaemonKill at the shop's
	// own name as site, with ops "intent" (after the intent record is
	// durable, before dispatch), "commit" (after the plant succeeded,
	// before the commit record lands) and "forward" (after a peer cell
	// built a forwarded creation, before the forward record lands;
	// federation.go). The warehouse's kill points, "publish:k" and
	// "retire:k" at site "warehouse", fire through the registry
	// Warehouse.SetFaults wires (warehouse/extentstore.go). nil disables
	// injection.
	Faults *fault.Registry

	// Durable state (durability.go). jnl is the event journal; down
	// marks a killed daemon.
	jnl  *journal.Journal
	down bool

	// mu guards the ledger, the bid audit log and the in-flight creation
	// count: out-of-kernel observers (debug endpoints, tests) read them
	// while creations write.
	mu sync.Mutex
	// led is everything the shop knows that a restart must know again —
	// routes, open and committed creations, the RequestID dedupe index.
	// Its only writer is record/apply (durability.go); Restart rebuilds
	// it by folding the journal.
	led      *ledger.Ledger
	bids     telemetry.Ring[BidRecord] // the last bidLogRounds rounds
	inflight map[string]int            // plant name → creations dispatched, not yet done

	// admission/gate is the bounded front door (overload.go).
	admission AdmissionConfig
	gate      *sim.Resource

	// Telemetry instruments (nil-safe no-ops when unset).
	tel             *telemetry.Hub
	mCreates        *telemetry.Counter
	mCreateFails    *telemetry.Counter
	mBidRounds      *telemetry.Counter
	mFailovers      *telemetry.Counter
	mRecoveredRts   *telemetry.Counter
	hCreateSecs     *telemetry.Histogram
	gInflight       *telemetry.Gauge
	mCrashes        *telemetry.Counter
	mRestarts       *telemetry.Counter
	mDedups         *telemetry.Counter
	mRedrives       *telemetry.Counter
	mReconciled     *telemetry.Counter
	mPeerBidRounds  *telemetry.Counter
	mForwards       *telemetry.Counter
	mForwardFails   *telemetry.Counter
	mServedForwards *telemetry.Counter
	mShedCreates    *telemetry.Counter
	gAdmissionQueue *telemetry.Gauge
	hAdmissionWait  *telemetry.Histogram
}

// bidLogRounds is how many bidding rounds the audit log keeps: a daemon
// serves creations for its whole life, and each round holds a map.
const bidLogRounds = 128

// BidRecord is one bidding round's outcome.
type BidRecord struct {
	VMID   core.VMID
	Costs  map[string]core.Cost // plant name → bid (feasible ones only)
	Winner string
}

// New creates a shop over the given plants. The seed drives random
// tie-breaking deterministically.
func New(name string, plants []PlantHandle, seed int64) *Shop {
	return &Shop{
		name:     name,
		plants:   plants,
		rng:      sim.NewRNG(seed),
		led:      ledger.New(name),
		bids:     telemetry.NewRing[BidRecord](bidLogRounds),
		cache:    make(map[core.VMID]*classad.Ad),
		inflight: make(map[string]int),
	}
}

// Name returns the shop name.
func (s *Shop) Name() string { return s.name }

// Bids returns a defensive copy of the audit log of the most recent
// bidding rounds, oldest first, taken under the shop's mutex.
func (s *Shop) Bids() []BidRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]BidRecord, s.bids.Len())
	for i := range out {
		out[i] = s.bids.At(i)
	}
	return out
}

// logBid appends one bidding round to the audit log, evicting the
// oldest past bidLogRounds.
func (s *Shop) logBid(rec BidRecord) {
	s.mu.Lock()
	s.bids.Push(rec)
	s.mu.Unlock()
}

// SetTelemetry wires the shop's spans ("shop.create", "shop.bid") and
// metrics ("shop.creations", "shop.create_failures", "shop.bid_rounds",
// "shop.create_secs"). Passing nil detaches them.
func (s *Shop) SetTelemetry(h *telemetry.Hub) {
	s.tel = h
	s.mCreates = h.Counter("shop.creations")
	s.mCreateFails = h.Counter("shop.create_failures")
	s.mBidRounds = h.Counter("shop.bid_rounds")
	s.mFailovers = h.Counter("shop.failovers")
	s.mRecoveredRts = h.Counter("shop.recovered_routes")
	s.hCreateSecs = h.Histogram("shop.create_secs")
	s.gInflight = h.Gauge("shop.inflight_creates")
	s.mCrashes = h.Counter("shop.crashes")
	s.mRestarts = h.Counter("shop.restarts")
	s.mDedups = h.Counter("shop.deduped_creates")
	s.mRedrives = h.Counter("shop.redriven_creates")
	s.mReconciled = h.Counter("shop.reconciled_creates")
	s.mPeerBidRounds = h.Counter("shop.peer_bid_rounds")
	s.mForwards = h.Counter("shop.forwarded_creates")
	s.mForwardFails = h.Counter("shop.forward_failures")
	s.mServedForwards = h.Counter("shop.served_forwards")
	s.mShedCreates = h.Counter("shop.shed_creates")
	s.gAdmissionQueue = h.Gauge("shop.admission_queue")
	s.hAdmissionWait = h.Histogram("shop.admission_wait_secs")
}

// mintID assigns the next VMID (paper: "a VMShop-assigned unique
// identifier for the virtual machine (VMID)"). Safe under concurrent
// Create calls.
func (s *Shop) mintID() core.VMID {
	return core.VMID(fmt.Sprintf("vm-%s-%d", s.name, s.nextID.Add(1)))
}

// Create runs one full creation: validate, collect bids, pick the
// winner, dispatch, and return the VMID with the classad. With a
// journal attached (SetJournal) the creation is exactly-once across
// daemon deaths: an intent record is synced before dispatch, a commit
// record before the answer, and a resubmitted RequestID is answered
// from the journal instead of built twice.
func (s *Shop) Create(p *sim.Proc, spec *core.Spec) (core.VMID, *classad.Ad, error) {
	if err := spec.Validate(); err != nil {
		return "", nil, err
	}
	if s.down {
		return "", nil, ErrShopDown
	}
	// Bounded front door: queue, or shed with the retryable ErrOverload
	// when the gate's queue is full.
	release, err := s.admit(p)
	if err != nil {
		return "", nil, err
	}
	defer release()
	if s.down {
		// The daemon died while this request queued at the gate.
		return "", nil, ErrShopDown
	}
	id, ad, done, err := s.beginCreation(p, spec)
	if done {
		return id, ad, err
	}
	ad, err = s.createAs(p, id, spec)
	if err != nil {
		return "", nil, err
	}
	return id, ad, nil
}

// createAs drives the bid/dispatch/failover machinery for an
// already-minted (and, when journaling, intent-journaled) VMID — the
// path shared by Create and restart-time intent re-driving.
func (s *Shop) createAs(p *sim.Proc, id core.VMID, spec *core.Spec) (_ *classad.Ad, err error) {
	start := p.Now()
	// The creation span roots a new trace — or joins the caller's (e.g.
	// a shop-daemon request that arrived with a trace context stamped on
	// the proc). Everything the creation touches downstream — bids,
	// plant dispatch, RPCs — parents under it via the proc's context.
	sp := s.tel.T().StartCtx(p, "shop.create", p.Trace()).
		Set("shop", s.name).
		Set("vmid", string(id))
	prevTrace := p.SetTrace(sp.Context())
	defer func() {
		p.SetTrace(prevTrace)
		sp.EndErr(p, err)
		if err != nil {
			s.mCreateFails.Inc()
		} else {
			s.mCreates.Inc()
			s.hCreateSecs.Observe((p.Now() - start).Seconds())
		}
	}()
	// A copy: without filters the candidates in place.
	candidates := slices.Clone(s.plants)
	rec := BidRecord{VMID: id, Costs: make(map[string]core.Cost)}

	reqAd, err := requestAd(spec)
	if err != nil {
		return nil, s.aborted(p, id, fmt.Errorf("shop %s: bad Requirements: %w", s.name, err))
	}
	failure := "every feasible plant failed to create the VM"
	for len(candidates) > 0 {
		// Bidding round: ask each candidate plant for an estimate.
		s.mBidRounds.Inc()
		bidSp := sp.Child(p, "shop.bid").
			SetInt("candidates", int64(len(candidates)))
		feasible := s.collectBids(p, candidates, spec, reqAd, bidSp)
		bidSp.SetInt("feasible", int64(len(feasible))).End(p)
		for _, b := range feasible {
			rec.Costs[b.h.Name()] = b.c
		}
		if len(feasible) == 0 {
			failure = "no plant can satisfy the request"
			break
		}
		// Dispatch to the cheapest bidder; on a transient failure
		// (unreachable plant, crash or I/O error mid-creation — the
		// loser's partial clone is already destroyed plant-side), fail
		// over to the next-cheapest bid from the same round.
		first := true
		for len(feasible) > 0 {
			winner := s.pickWinner(feasible)
			if !first {
				s.mFailovers.Inc()
				sp.Set("failover", winner.Name())
			}
			first = false
			retire := s.noteDispatch(winner.Name())
			ad, err := winner.Create(p, id, spec)
			retire()
			if err == nil {
				// Chaos point: the daemon can die here, after the plant
				// built the VM but before the commit record lands — the
				// window Restart's reconcile sweep repairs.
				if s.killIf("commit") {
					return nil, ErrShopDown
				}
				s.record(p, true, commitRecord(id, winner.Name()))
				rec.Winner = winner.Name()
				s.logBid(rec)
				s.keep(id, ad)
				sp.Set("winner", winner.Name())
				return ad, nil
			}
			if !errors.Is(err, ErrPlantDown) && !errors.Is(err, core.ErrTransient) {
				// A plant-internal creation failure (e.g. a configuration
				// action whose error policy aborted) is the request's
				// outcome, reported to the client: it would fail the same
				// way on every plant. Only transient failures fail over.
				s.logBid(rec)
				return nil, s.aborted(p, id, fmt.Errorf("shop %s: plant %s: %w", s.name, winner.Name(), err))
			}
			feasible = withoutBid(feasible, winner)
			candidates = without(candidates, winner)
		}
		// Every bidder of this round failed transiently; re-bid among
		// whoever is left (plants that bid infeasible or could not be
		// reached for an estimate).
	}
	s.logBid(rec)
	// No local plant can take the request, or every one that could
	// failed transiently. Hierarchical bidding: before giving up,
	// re-auction it among the peer cells (client-originated requests
	// only — a forwarded request never hops twice).
	if fad, handled, ferr := s.tryForward(p, id, spec); handled {
		return fad, ferr
	}
	// Safe to abort: every transient failure path destroyed its partial
	// clone plant-side, so no VM exists anywhere under this VMID.
	return nil, s.aborted(p, id, fmt.Errorf("shop %s: %s", s.name, failure))
}

// bidder is what the auction needs of a handle — a plant's or a peer
// cell's: the same rounds run over both.
type bidder interface {
	comparable
	Name() string
}

// bid is one feasible answer from a bidding round.
type bid[H bidder] struct {
	h H
	c core.Cost
	// slots is a plant's advertised admission cap (CloneSlots); 0 when
	// the bidder doesn't advertise one.
	slots int
}

// lowest is the cheapest cost among a round's (non-empty) bids.
func lowest[H bidder](bids []bid[H]) core.Cost {
	best := bids[0].c
	for _, b := range bids[1:] {
		if b.c < best {
			best = b.c
		}
	}
	return best
}

// cheapest selects the cheapest of the bids open accepts (nil accepts
// every bid), ties broken uniformly at random ("The VMShop picks one
// plant at random", §3.4) — one RNG draw per call, tie or not. It picks
// in place: it counts the ties, draws, and walks to the drawn one.
func cheapest[H bidder](rng *sim.RNG, bids []bid[H], open func(bid[H]) bool) H {
	var best core.Cost
	ties := 0
	for _, b := range bids {
		switch {
		case open != nil && !open(b):
		case ties == 0 || b.c < best:
			best, ties = b.c, 1
		case b.c == best:
			ties++
		}
	}
	k := rng.Intn(ties)
	for i := 0; ; i++ {
		if b := bids[i]; (open == nil || open(b)) && b.c == best {
			if k--; k < 0 {
				return b.h
			}
		}
	}
}

// pickWinner selects the cheapest plant bid. Under the batched
// pipeline, bids from plants whose advertised clone slots are all
// occupied by this shop's own in-flight orders are set aside first —
// unless that sets every bid aside, in which case queuing somewhere
// beats failing. Bids that don't advertise CloneSlots are never set
// aside, and with nothing in flight none is, so a serial creation draws
// from exactly the same candidates as before.
func (s *Shop) pickWinner(feasible []bid[PlantHandle]) PlantHandle {
	s.mu.Lock()
	defer s.mu.Unlock()
	open := func(b bid[PlantHandle]) bool {
		return b.slots <= 0 || s.inflight[b.h.Name()] < b.slots
	}
	if !slices.ContainsFunc(feasible, open) {
		open = nil
	}
	return cheapest(s.rng, feasible, open)
}

func withoutBid[H bidder](bs []bid[H], drop H) []bid[H] {
	out := bs[:0]
	for _, b := range bs {
		if b.h != drop {
			out = append(out, b)
		}
	}
	return out
}

// collectBids runs one bidding round over the given plants and returns
// the feasible bids. It asks each plant in turn and waits as long as
// each takes, as the shop daemon does over TCP: a slow bidder delays the
// round by its stall, and an unreachable one costs its transport's call
// timeout and is left out of the round.
func (s *Shop) collectBids(p *sim.Proc, round []PlantHandle, spec *core.Spec, reqAd *classad.Ad, bidSp *telemetry.Span) []bid[PlantHandle] {
	prev := p.SetTrace(bidSp.Context())
	defer p.SetTrace(prev)
	feasible := make([]bid[PlantHandle], 0, len(round))
	for _, h := range round {
		c, ad, err := h.Estimate(p, spec)
		if err != nil || !c.OK() {
			continue
		}
		// Classad matchmaking (Raman et al.): the request's
		// Requirements must accept the plant's resource ad, and the
		// plant's policy Requirements must accept the request.
		if ad != nil && !classad.Match(reqAd, ad) {
			continue
		}
		slots := 0
		if ad != nil {
			slots = int(ad.GetInt("CloneSlots", 0))
		}
		feasible = append(feasible, bid[PlantHandle]{h, c, slots})
	}
	return feasible
}

func without(hs []PlantHandle, drop PlantHandle) []PlantHandle {
	out := hs[:0]
	for _, h := range hs {
		if h != drop {
			out = append(out, h)
		}
	}
	return out
}

// vmServer is what a route resolves to — the operations PlantHandle and
// PeerHandle share, so a routed call need not care which kind serves it.
type vmServer interface {
	Name() string
	Query(p *sim.Proc, id core.VMID) (*classad.Ad, bool, error)
	Collect(p *sim.Proc, id core.VMID) (bool, error)
	Publish(p *sim.Proc, id core.VMID, image string) error
	Lifecycle(p *sim.Proc, id core.VMID, op string) error
}

// served is a resolved route: the wired handle serving a VM and the ID
// it knows the VM by (a peer cell mints its own).
type served struct {
	vmServer
	id   core.VMID
	peer bool
}

// plantByName finds the plant handle wired under a name. The ledger
// holds names; this is how a name becomes a handle again.
func (s *Shop) plantByName(name string) PlantHandle { return byName(s.plants, name) }

// byName finds the plant or peer handle wired under a name (the zero
// handle, nil, when none is).
func byName[H bidder](hs []H, name string) (none H) {
	for _, h := range hs {
		if h.Name() == name {
			return h
		}
	}
	return none
}

// lookup resolves the VM's ledger route to the handle wired under the
// name it holds. A route naming a plant or peer that is not wired
// resolves to nothing.
func (s *Shop) lookup(id core.VMID) (served, bool) {
	s.mu.Lock()
	rt, ok := s.led.Route(id)
	s.mu.Unlock()
	switch {
	case !ok:
	case rt.Peer != "":
		if h := s.peerByName(rt.Peer); h != nil {
			return served{h, rt.Remote, true}, true
		}
	default:
		if h := s.plantByName(rt.Plant); h != nil {
			return served{h, id, false}, true
		}
	}
	return served{}, false
}

// resolve is lookup for a call that needs the VM served: with no usable
// route the shop sweeps its plants, re-learning the soft state, before
// it admits not knowing the VM. A killed shop resolves nothing.
func (s *Shop) resolve(p *sim.Proc, id core.VMID) (served, error) {
	if s.down {
		return served{}, ErrShopDown
	}
	if sv, ok := s.lookup(id); ok {
		return sv, nil
	}
	if _, h := s.recover(p, id); h != nil {
		return served{h, id, false}, nil
	}
	return served{}, fmt.Errorf("shop %s: %w %s: no plant knows it", s.name, ErrUnknownVM, id)
}

// Query returns an active VM's classad, from the plant — or the peer
// cell — its route names. A missing or stale plant route triggers
// recovery: the shop asks every plant, rebuilding its soft state.
func (s *Shop) Query(p *sim.Proc, id core.VMID) (*classad.Ad, error) {
	if s.down {
		return nil, ErrShopDown
	}
	sv, routed := s.lookup(id)
	if routed {
		ad, found, err := sv.Query(p, sv.id)
		if err == nil && found {
			return s.keep(id, ad), nil
		}
		if err == nil {
			// Whoever the route names no longer holds the VM: it was
			// collected, since a VM stays on the plant that built it. The
			// eviction is soft state: applied, never journaled. The sweep
			// below then finds nothing; it finds a live VM only when its
			// route is missing, as after a journal-less restart.
			s.apply(evictRecord(id))
			delete(s.cache, id)
		}
	}
	// A VM served by a peer cell is on none of this cell's plants;
	// anything else unreachable or stale is worth the recovery sweep.
	if !sv.peer {
		if ad, h := s.recover(p, id); h != nil {
			return ad, nil
		}
	}
	// Serve a stale cached ad if we have one and the server is down.
	if s.CacheAds {
		if ad, ok := s.cache[id]; ok {
			return ad, nil
		}
	}
	if sv.peer {
		return nil, fmt.Errorf("shop %s: peer %s serving VM %s is unreachable", s.name, sv.Name(), id)
	}
	return nil, fmt.Errorf("shop %s: %w %s: no plant knows it", s.name, ErrUnknownVM, id)
}

// recover re-learns the route to a VM the shop has no (valid) route to
// from the plant a sweep finds it on (paper §3.1: an active VM's
// classad "is not part of the state that needs to be maintained by
// VMShop"). It is how every route a restart could not fold back from
// the journal returns: on demand, one VM at a time. A plant that is
// down answers no sweep, so its VMs' routes are never invented; they
// come back once it does. The re-learned route is journaled buffered,
// not synced: it is soft state — losing it to a crash only costs
// another sweep.
func (s *Shop) recover(p *sim.Proc, id core.VMID) (*classad.Ad, PlantHandle) {
	ad, h := s.sweep(p, id)
	if h == nil {
		return nil, nil
	}
	s.record(p, false, routeRecord(id, h.Name()))
	s.mRecoveredRts.Inc()
	return s.keep(id, ad), h
}

// keep freezes an ad the shop hands out and, with CacheAds, caches it:
// the cache and every reader share the one snapshot, and a later answer
// replaces it rather than editing it.
func (s *Shop) keep(id core.VMID, ad *classad.Ad) *classad.Ad {
	ad.Freeze()
	if s.CacheAds {
		s.cache[id] = ad
	}
	return ad
}

// sweep asks the plants, in wiring order, for a VM and returns its
// classad and the first plant that hosts it (nil when none answers that
// it does). recover and the restart reconcile both probe through it.
func (s *Shop) sweep(p *sim.Proc, id core.VMID) (*classad.Ad, PlantHandle) {
	for _, h := range s.plants {
		if ad, found, err := h.Query(p, id); err == nil && found {
			return ad, h
		}
	}
	return nil, nil
}

// Destroy collects a VM, on its plant or in the peer cell serving it.
// With a journal attached, a route-drop record makes the departure
// durable, so a restarted shop neither routes to nor re-drives a VM the
// client already destroyed.
func (s *Shop) Destroy(p *sim.Proc, id core.VMID) error {
	sv, err := s.resolve(p, id)
	if err != nil {
		return err
	}
	found, err := sv.Collect(p, sv.id)
	if err != nil {
		return err
	}
	delete(s.cache, id)
	s.record(p, true, journal.Record{Kind: journal.RouteDrop, Key: string(id)})
	switch {
	case found:
		return nil
	case sv.peer:
		return fmt.Errorf("shop %s: %w %s: no longer exists on peer %s", s.name, ErrUnknownVM, id, sv.Name())
	default:
		return fmt.Errorf("shop %s: %w %s: no longer exists", s.name, ErrUnknownVM, id)
	}
}

// Publish checkpoints an active VM into the warehouse as a new golden
// image, routed to the hosting plant — or to the peer cell serving a
// forwarded creation (the image lands in that cell's warehouse and
// does not reach this one).
func (s *Shop) Publish(p *sim.Proc, id core.VMID, image string) error {
	sv, err := s.resolve(p, id)
	if err != nil {
		return err
	}
	return sv.Publish(p, sv.id, image)
}

// Suspend parks an active VM (checkpoint to disk, host memory freed).
func (s *Shop) Suspend(p *sim.Proc, id core.VMID) error {
	return s.lifecycle(p, id, proto.LifecycleSuspend)
}

// Resume brings a suspended VM back to running.
func (s *Shop) Resume(p *sim.Proc, id core.VMID) error {
	return s.lifecycle(p, id, proto.LifecycleResume)
}

func (s *Shop) lifecycle(p *sim.Proc, id core.VMID, op string) error {
	sv, err := s.resolve(p, id)
	if err != nil {
		return err
	}
	err = sv.Lifecycle(p, sv.id, op)
	if ad, ok := s.cache[id]; ok && err == nil { // served should the plant stop answering
		s.cache[id] = ad.With(core.AttrState, classad.Str(LifecycleState(op)))
	}
	return err
}

// LifecycleState is the state a lifecycle op leaves a VM in.
func LifecycleState(op string) string {
	if op == proto.LifecycleResume {
		return core.StateRunning.String()
	}
	return "suspended"
}

// requestAd renders a creation request as a classad for matchmaking
// against plant resource ads.
func requestAd(spec *core.Spec) (*classad.Ad, error) {
	ad := classad.New().Grow(7).
		SetString("Name", spec.Name).
		SetString("Arch", spec.Hardware.Arch).
		SetInt("MemoryMB", int64(spec.Hardware.MemoryMB)).
		SetInt("DiskMB", int64(spec.Hardware.DiskMB)).
		SetString("Domain", spec.Domain).
		SetString("Backend", spec.Backend)
	if spec.Requirements != "" {
		if err := ad.SetExprString("Requirements", spec.Requirements); err != nil {
			return nil, err
		}
	}
	return ad, nil
}

// RouteOf reports which plant the shop believes hosts the VM ("" when
// unknown) — used by tests and the experiment harness. A forwarded
// creation reports "peer:<cell>".
func (s *Shop) RouteOf(id core.VMID) string {
	sv, ok := s.lookup(id)
	switch {
	case !ok:
		return ""
	case sv.peer:
		return "peer:" + sv.Name()
	default:
		return sv.Name()
	}
}
