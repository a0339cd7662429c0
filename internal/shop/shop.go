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
	"sync"
	"sync/atomic"
	"time"

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
	plants []PlantHandle
	rng    *sim.RNG

	// nextID is atomic so concurrent Create calls (e.g. from the RPC
	// server's per-connection handlers) never mint duplicate VMIDs.
	nextID atomic.Uint64
	cache  map[core.VMID]*classad.Ad // optional classad cache (speeds queries)

	// peers are the other cells of the federation (SetPeers); when a
	// creation cannot be served locally it is re-auctioned among them.
	peers []PeerHandle

	// CacheAds enables classad caching (paper: "VMShop may, however,
	// cache classad information … to speed up queries").
	CacheAds bool

	// BidTimeout bounds how long a bidding round waits for any single
	// plant's estimate, in virtual time. When positive, bids are
	// collected concurrently and the round closes at the deadline with
	// whatever bids arrived (quorum ≥ 1: a round with no responses at
	// all keeps waiting for the first). 0 — the default — keeps the
	// legacy sequential round that waits for every plant.
	BidTimeout time.Duration

	// Breaker configures the per-plant circuit breakers; the zero value
	// disables them (legacy behavior).
	Breaker  BreakerConfig
	breakers map[string]*breaker

	// Faults injects shop-level chaos: fault.DaemonKill at site "shop"
	// with ops "intent" (after the intent record is durable, before
	// dispatch) and "commit" (after the plant succeeded, before the
	// commit record lands). nil disables injection.
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
	// routes, open and committed creations, the RequestID dedupe index,
	// draining and retired plants. Its only writer is record/apply
	// (durability.go); Restart rebuilds it by folding the journal.
	led      *ledger.Ledger
	bids     []BidRecord    // audit log for experiments
	inflight map[string]int // plant name → creations dispatched, not yet done

	// admission/gate is the bounded front door (overload.go).
	admission AdmissionConfig
	gate      *sim.Resource

	// Telemetry instruments (nil-safe no-ops when unset).
	tel             *telemetry.Hub
	flight          *telemetry.FlightRecorder
	mCreates        *telemetry.Counter
	mCreateFails    *telemetry.Counter
	mBidRounds      *telemetry.Counter
	mDegradedRounds *telemetry.Counter
	mFailovers      *telemetry.Counter
	mBreakerOpens   *telemetry.Counter
	mRecoveredRts   *telemetry.Counter
	gMissingBids    *telemetry.Gauge
	gOpenBreakers   *telemetry.Gauge
	hCreateSecs     *telemetry.Histogram
	gBatchQueue     *telemetry.Gauge
	gInflight       *telemetry.Gauge
	hBatchWait      *telemetry.Histogram
	mCrashes        *telemetry.Counter
	mRestarts       *telemetry.Counter
	mDedups         *telemetry.Counter
	mRedrives       *telemetry.Counter
	mReconciled     *telemetry.Counter
	mPeerBidRounds  *telemetry.Counter
	mForwards       *telemetry.Counter
	mForwardFails   *telemetry.Counter
	mServedForwards *telemetry.Counter
	mStaleBids      *telemetry.Counter
	mShedCreates    *telemetry.Counter
	mDrains         *telemetry.Counter
	mRetires        *telemetry.Counter
	mMigratedVMs    *telemetry.Counter
	gAdmissionQueue *telemetry.Gauge
	hAdmissionWait  *telemetry.Histogram
}

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
		cache:    make(map[core.VMID]*classad.Ad),
		breakers: make(map[string]*breaker),
		inflight: make(map[string]int),
	}
}

// Name returns the shop name.
func (s *Shop) Name() string { return s.name }

// Plants returns the managed plant handles.
func (s *Shop) Plants() []PlantHandle { return append([]PlantHandle(nil), s.plants...) }

// Bids returns a defensive copy of the audit log of bidding rounds,
// taken under the shop's mutex.
func (s *Shop) Bids() []BidRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]BidRecord(nil), s.bids...)
}

// LastContestedBid returns the most recent bidding round with at least
// two feasible bids — what the fleet controller's bid-spread signal
// reads every tick. The log is scanned in place under the mutex; only
// the one record leaves it.
func (s *Shop) LastContestedBid() (BidRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.bids) - 1; i >= 0; i-- {
		if len(s.bids[i].Costs) >= 2 {
			return s.bids[i], true
		}
	}
	return BidRecord{}, false
}

// logBid appends one bidding round to the audit log.
func (s *Shop) logBid(rec BidRecord) {
	s.mu.Lock()
	s.bids = append(s.bids, rec)
	s.mu.Unlock()
}

// SetTelemetry wires the shop's spans ("shop.create", "shop.bid") and
// metrics ("shop.creations", "shop.create_failures", "shop.bid_rounds",
// "shop.create_secs"). Passing nil detaches them.
func (s *Shop) SetTelemetry(h *telemetry.Hub) {
	s.tel = h
	s.flight = h.F()
	s.mCreates = h.Counter("shop.creations")
	s.mCreateFails = h.Counter("shop.create_failures")
	s.mBidRounds = h.Counter("shop.bid_rounds")
	s.mDegradedRounds = h.Counter("shop.degraded_bid_rounds")
	s.mFailovers = h.Counter("shop.failovers")
	s.mBreakerOpens = h.Counter("shop.breaker_opens")
	s.mRecoveredRts = h.Counter("shop.recovered_routes")
	s.gMissingBids = h.Gauge("shop.missing_bids")
	s.gOpenBreakers = h.Gauge("shop.open_breakers")
	s.hCreateSecs = h.Histogram("shop.create_secs")
	s.gBatchQueue = h.Gauge("shop.batch_queue_depth")
	s.gInflight = h.Gauge("shop.inflight_creates")
	s.hBatchWait = h.Histogram("shop.batch_wait_secs")
	s.mCrashes = h.Counter("shop.crashes")
	s.mRestarts = h.Counter("shop.restarts")
	s.mDedups = h.Counter("shop.deduped_creates")
	s.mRedrives = h.Counter("shop.redriven_creates")
	s.mReconciled = h.Counter("shop.reconciled_creates")
	s.mPeerBidRounds = h.Counter("shop.peer_bid_rounds")
	s.mForwards = h.Counter("shop.forwarded_creates")
	s.mForwardFails = h.Counter("shop.forward_failures")
	s.mServedForwards = h.Counter("shop.served_forwards")
	s.mStaleBids = h.Counter("shop.stale_bids")
	s.mShedCreates = h.Counter("shop.shed_creates")
	s.mDrains = h.Counter("shop.plant_drains")
	s.mRetires = h.Counter("shop.plant_retirements")
	s.mMigratedVMs = h.Counter("shop.drain_migrations")
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
	// when the gate's bounds say this request cannot be served in time.
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
	s.flight.Record(p, string(id), telemetry.EvSubmitted, spec.Name)
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
	// Draining and retired plants never enter the round: a drain must
	// not be handed new work, and replay guarantees a retired plant is
	// invisible to every post-restart re-drive.
	candidates := s.eligiblePlants()
	rec := BidRecord{VMID: id, Costs: make(map[string]core.Cost)}

	reqAd, err := requestAd(spec)
	if err != nil {
		return nil, s.aborted(p, id, fmt.Errorf("shop %s: bad Requirements: %w", s.name, err))
	}
	failure := "every feasible plant failed to create the VM"
	for len(candidates) > 0 {
		round := breakerGate(s, p.Now(), candidates, plantKey)
		// Bidding round: ask each plant in the round for an estimate.
		s.mBidRounds.Inc()
		bidSp := sp.Child(p, "shop.bid").
			SetInt("candidates", int64(len(round)))
		feasible := s.collectBids(p, round, spec, reqAd, &rec, bidSp)
		bidSp.SetInt("feasible", int64(len(feasible))).End(p)
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
			// Stale-bid recheck: the winner bid at round start, but may
			// have begun draining — or died — since. Skip it without
			// paying a dispatch (and without counting a failover: nothing
			// was dispatched) and re-pick from the rest of the round.
			if !s.dispatchOK(winner) {
				s.mStaleBids.Inc()
				s.noteFailure(p.Now(), winner.Name())
				feasible = withoutBid(feasible, winner)
				candidates = without(candidates, winner)
				continue
			}
			if !first {
				s.mFailovers.Inc()
				sp.Set("failover", winner.Name())
				s.flight.Record(p, string(id), telemetry.EvRetried, winner.Name())
			}
			first = false
			s.flight.Record(p, string(id), telemetry.EvBidWon, winner.Name())
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
				s.noteSuccess(winner.Name())
				rec.Winner = winner.Name()
				s.logBid(rec)
				if s.CacheAds {
					s.cache[id] = ad.Clone()
				}
				sp.Set("winner", winner.Name())
				s.flight.Record(p, string(id), telemetry.EvCreated, winner.Name())
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
			s.noteFailure(p.Now(), winner.Name())
			feasible = withoutBid(feasible, winner)
			candidates = without(candidates, winner)
		}
		// Every bidder of this round failed transiently; re-bid among
		// whoever is left (plants that bid infeasible, were skipped by
		// their breaker, or missed the round's deadline).
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

// plantKey is a plant's breaker key: its name. Peers use peerKey.
func plantKey(name string) string { return name }

// breakerGate is the front of every bidding round: bidders whose breaker
// is open are skipped — unless that would empty the round, in which
// case all are probed anyway: availability beats protection once
// nothing else is left.
func breakerGate[H bidder](s *Shop, now time.Duration, hs []H, key func(string) string) []H {
	if s.Breaker.Threshold <= 0 {
		return hs
	}
	var allowed []H
	for _, h := range hs {
		if s.breakerFor(key(h.Name())).allow(now) {
			allowed = append(allowed, h)
		}
	}
	if len(allowed) == 0 {
		return hs
	}
	return allowed
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

// cheapest selects the cheapest bid, ties broken uniformly at random
// ("The VMShop picks one plant at random", §3.4) — one RNG draw per
// call, tie or not.
func cheapest[H bidder](rng *sim.RNG, bids []bid[H]) H {
	best := lowest(bids)
	var winners []H
	for _, b := range bids {
		if b.c == best {
			winners = append(winners, b.h)
		}
	}
	return winners[rng.Intn(len(winners))]
}

// pickWinner selects the cheapest plant bid. Under the batched
// pipeline, bids from plants whose advertised clone slots are all
// occupied by this shop's own in-flight orders are set aside first —
// unless that empties the set, in which case queuing somewhere beats
// failing. With nothing in flight the filter passes everything, so a
// serial creation draws from exactly the same candidates as before.
func (s *Shop) pickWinner(feasible []bid[PlantHandle]) PlantHandle {
	if open := s.admissible(feasible); len(open) > 0 {
		return cheapest(s.rng, open)
	}
	return cheapest(s.rng, feasible)
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
// the feasible bids. With no BidTimeout it asks each plant in turn and
// waits as long as each takes — the legacy round. With a timeout it
// asks all plants concurrently and closes the round at the deadline
// with whatever arrived; responses past the deadline are discarded, a
// round that would otherwise close empty-handed extends until its
// first response (quorum ≥ 1), and plants that missed the deadline are
// charged a breaker failure.
func (s *Shop) collectBids(p *sim.Proc, round []PlantHandle, spec *core.Spec, reqAd *classad.Ad, rec *BidRecord, bidSp *telemetry.Span) []bid[PlantHandle] {
	type answer struct {
		h   PlantHandle
		c   core.Cost
		ad  *classad.Ad
		err error
	}
	var answers []answer
	if s.BidTimeout <= 0 {
		prev := p.SetTrace(bidSp.Context())
		for _, h := range round {
			c, plantAd, err := h.Estimate(p, spec)
			answers = append(answers, answer{h, c, plantAd, err})
		}
		p.SetTrace(prev)
	} else {
		st := struct {
			open    bool
			pending int
			got     []answer
		}{open: true, pending: len(round)}
		client := p
		// Captured outside the closures: bid procs are separate processes,
		// so each installs the bid span's context on itself before asking,
		// keeping estimate spans (and estimate RPC envelopes) parented
		// under this round rather than orphaned.
		bidCtx := bidSp.Context()
		for _, h := range round {
			h := h
			p.Kernel().Spawn("bid/"+h.Name(), func(bp *sim.Proc) {
				bp.SetTrace(bidCtx)
				c, plantAd, err := h.Estimate(bp, spec)
				if !st.open {
					return // the round closed without us; bid discarded
				}
				st.pending--
				st.got = append(st.got, answer{h, c, plantAd, err})
				client.WakeUp()
			})
		}
		deadline := p.Now() + s.BidTimeout
		for st.pending > 0 {
			if len(st.got) > 0 && p.Now() >= deadline {
				break
			}
			wait := deadline - p.Now()
			if wait <= 0 {
				// Past the deadline with nothing in hand: extend in
				// timeout-sized grace periods until the first response.
				wait = s.BidTimeout
			}
			p.Wait(wait)
		}
		st.open = false
		answers = st.got
		if st.pending > 0 {
			// Degraded round: proceed on partial bids; laggards count
			// as transport failures toward their breakers.
			s.mDegradedRounds.Inc()
			bidSp.SetInt("missing", int64(st.pending))
			answered := make(map[string]bool, len(answers))
			for _, a := range answers {
				answered[a.h.Name()] = true
			}
			for _, h := range round {
				if !answered[h.Name()] {
					s.noteFailure(p.Now(), h.Name())
				}
			}
		}
		s.gMissingBids.Set(int64(st.pending))
	}

	var feasible []bid[PlantHandle]
	for _, a := range answers {
		if a.err != nil {
			s.noteFailure(p.Now(), a.h.Name())
			continue
		}
		s.noteSuccess(a.h.Name())
		if !a.c.OK() {
			continue
		}
		// Classad matchmaking (Raman et al.): the request's
		// Requirements must accept the plant's resource ad, and the
		// plant's policy Requirements must accept the request.
		if a.ad != nil && !classad.Match(reqAd, a.ad) {
			continue
		}
		slots := 0
		if a.ad != nil {
			slots = int(a.ad.GetInt("CloneSlots", 0))
		}
		rec.Costs[a.h.Name()] = a.c
		feasible = append(feasible, bid[PlantHandle]{a.h, a.c, slots})
	}
	return feasible
}

// Recover rebuilds the shop's soft routing state by asking every plant
// for its VM inventory (paper §3.1: an active VM's classad "is not part
// of the state that needs to be maintained by VMShop" — it can always
// be re-learned). All existing plant routes are dropped first, so routes
// to unreachable plants disappear rather than being fabricated: the shop
// honestly reports not knowing those VMs until the plant returns and a
// later Recover — or a per-query recovery sweep — re-learns them. It
// returns the number of routes learned and the names of the plants it
// could not reach.
func (s *Shop) Recover(p *sim.Proc) (routes int, unreachable []string) {
	sp := s.tel.T().Start(p, "shop.recover").Set("shop", s.name)
	defer func() {
		sp.SetInt("routes", int64(routes)).
			SetInt("unreachable", int64(len(unreachable))).
			End(p)
	}()
	s.forgetPlantRoutes()
	for _, h := range s.plants {
		ids, err := h.List(p)
		if err != nil {
			unreachable = append(unreachable, h.Name())
			s.noteFailure(p.Now(), h.Name())
			continue
		}
		s.noteSuccess(h.Name())
		for _, id := range ids {
			s.record(p, false, routeRecord(id, h.Name()))
			routes++
		}
	}
	s.mRecoveredRts.Add(int64(routes))
	return routes, unreachable
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

// lookup resolves the VM's ledger route to the handle wired under the
// name it holds. A route naming a plant or peer that is not wired (any
// more — a retired plant, say) resolves to nothing.
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
			if s.CacheAds {
				s.cache[id] = ad.Clone()
			}
			return ad, nil
		}
		if err == nil {
			// Whoever the route names no longer holds the VM: it was
			// collected — or migrated to another plant, where the sweep
			// below finds it. The eviction is soft state: applied, never
			// journaled.
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
			return ad.Clone(), nil
		}
	}
	if sv.peer {
		return nil, fmt.Errorf("shop %s: peer %s serving VM %s is unreachable", s.name, sv.Name(), id)
	}
	return nil, fmt.Errorf("shop %s: %w %s: no plant knows it", s.name, ErrUnknownVM, id)
}

// recover sweeps all plants for a VM the shop has no (valid) route to.
// The re-learned route is journaled buffered, not synced: it is soft
// state — losing it to a crash only costs another sweep.
func (s *Shop) recover(p *sim.Proc, id core.VMID) (*classad.Ad, PlantHandle) {
	for _, h := range s.plants {
		ad, found, err := h.Query(p, id)
		if err != nil || !found {
			continue
		}
		s.record(p, false, routeRecord(id, h.Name()))
		if s.CacheAds {
			s.cache[id] = ad.Clone()
		}
		return ad, h
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
// reaches this one through catalog gossip).
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
	return sv.Lifecycle(p, sv.id, op)
}

// ForgetRoutes drops the shop's soft routing state, simulating a shop
// restart; subsequent queries must recover from the plants.
func (s *Shop) ForgetRoutes() {
	s.forgetPlantRoutes()
	s.cache = make(map[core.VMID]*classad.Ad)
}

// forgetPlantRoutes evicts every plant route — soft state, so nothing
// is journaled. Cross-cell routes and the creation ledger are not the
// plants' to re-teach, and stay.
func (s *Shop) forgetPlantRoutes() {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []core.VMID
	s.led.Routes(func(id core.VMID, rt ledger.Route) {
		if rt.Peer == "" {
			ids = append(ids, id)
		}
	})
	for _, id := range ids {
		s.led.Apply(evictRecord(id))
	}
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
