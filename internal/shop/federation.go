// Federated shops: the hierarchical half of the bidding machinery.
//
// A shop that cannot serve a creation locally — every plant infeasible,
// unreachable, or transiently failing — re-auctions the request among
// its peer shops exactly the way it auctions among plants: collect cost
// estimates, pick the cheapest (ties at random), fail over to the next
// bidder when the winner turns out to be unreachable. A forwarded
// request carries an Origin cell and a deterministic forwarding token
// as its RequestID, so the hop is exactly-once: the peer journals the
// intent under the token and a cross-cell retry (client resubmission,
// RPC retransmit, or crash-restart re-drive) is answered from the
// peer's dedupe index instead of building a second VM. Forwarded
// requests are never forwarded again (one-hop hierarchy), so a
// saturated federation degrades to per-cell failures rather than
// creations bouncing between cells.
package shop

import (
	"errors"
	"fmt"
	"sort"

	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/journal"
	"vmplants/internal/shop/ledger"
	"vmplants/internal/sim"
)

// PeerHandle is one shop's view of a peer shop in another cell: the
// forward-create protocol plus the routed operations a cell serves for
// VMs it created on a peer's behalf. Implementations exist for
// in-process peers under the simulation kernel (LocalPeerHandle) and
// for remote shop daemons over TCP (service.RemotePeer).
type PeerHandle interface {
	// Name identifies the peer cell.
	Name() string
	// Estimate returns the peer's aggregate bid for serving the spec —
	// the cheapest feasible bid of its own plant round — or
	// core.Infeasible when no plant there can take it.
	Estimate(p *sim.Proc, spec *core.Spec) (core.Cost, error)
	// Create builds the VM in the peer's cell; the spec must carry
	// Origin and the forwarding-token RequestID. Returns the
	// peer-minted VMID.
	Create(p *sim.Proc, spec *core.Spec) (core.VMID, *classad.Ad, error)
	// LookupForward asks, without creating anything, whether the peer
	// committed a creation under the given forwarding token — the
	// restart-time reconcile probe. found=false is authoritative: the
	// peer holds no VM for the token.
	LookupForward(p *sim.Proc, token string) (remote core.VMID, found bool, err error)
	// Query fetches a forwarded VM's classad from the peer.
	Query(p *sim.Proc, id core.VMID) (*classad.Ad, bool, error)
	// Collect destroys a forwarded VM in the peer's cell.
	Collect(p *sim.Proc, id core.VMID) (found bool, err error)
	// Publish checkpoints a forwarded VM into the peer cell's warehouse.
	Publish(p *sim.Proc, id core.VMID, image string) error
	// Lifecycle suspends or resumes a forwarded VM.
	Lifecycle(p *sim.Proc, id core.VMID, op string) error
}

// ErrPeerDown marks an unreachable peer shop (daemon dead or transport
// failure) — the transient class of peer errors, so the peer auction
// fails over instead of reporting it to the client.
var ErrPeerDown = errors.New("shop: peer shop unreachable")

// SetPeers wires the shop's peer cells for hierarchical bidding.
func (s *Shop) SetPeers(peers []PeerHandle) {
	s.peers = append([]PeerHandle(nil), peers...)
}

// peerByName finds a wired peer handle (nil when the cell is not wired
// into this incarnation).
func (s *Shop) peerByName(name string) PeerHandle { return byName(s.peers, name) }

// ForwardToken derives the idempotency token a forwarded creation
// carries. It is a pure function of the origin cell and the origin-side
// VMID — a restart-time re-drive reuses the original VMID, so its
// re-forward dedupes against the peer's journal.
func ForwardToken(origin string, id core.VMID) string {
	return fmt.Sprintf("fwd-%s-%s", origin, id)
}

// tryForward runs the peer auction for a creation the local plants
// could not serve. handled=true means forwarding decided the outcome
// (success, a permanent peer-side failure already journaled as an
// abort, or a daemon kill at the forward chaos point); handled=false
// means no peer could take it and the caller should abort locally.
func (s *Shop) tryForward(p *sim.Proc, id core.VMID, spec *core.Spec) (ad *classad.Ad, handled bool, err error) {
	if spec.Origin != "" || len(s.peers) == 0 || s.down {
		return nil, false, nil
	}
	fwd := *spec
	fwd.Origin = s.name
	fwd.RequestID = ForwardToken(s.name, id)

	sp := s.tel.T().StartCtx(p, "shop.forward", p.Trace()).
		Set("shop", s.name).
		Set("vmid", string(id))
	defer func() { sp.EndErr(p, err) }()

	// Peer bidding round, asked in turn like a plant round.
	s.mPeerBidRounds.Inc()
	var feasible []bid[PeerHandle]
	for _, h := range s.peers {
		if c, eerr := h.Estimate(p, &fwd); eerr == nil && c.OK() {
			feasible = append(feasible, bid[PeerHandle]{h: h, c: c})
		}
	}
	sp.SetInt("peers", int64(len(s.peers))).SetInt("feasible", int64(len(feasible)))

	for len(feasible) > 0 {
		win := cheapest(s.rng, feasible, nil)
		// Write-ahead: the attempt record must be durable before the
		// peer can build anything, or a crash here would strand a VM in
		// a cell the restart has no reason to ask — it names every cell
		// that may hold the VM.
		s.record(p, true, journal.Record{
			Kind: journal.CreationForward, Key: string(id),
			Fields: map[string]string{"phase": "attempt", "peer": win.Name()},
		})
		remote, ad, cerr := win.Create(p, &fwd)
		if cerr == nil {
			// Chaos point: the origin daemon can die here — the peer
			// holds a committed VM, but the forward record never lands.
			// Restart's re-drive re-forwards under the same token and
			// the peer's dedupe answers with this same VM.
			if s.killIf("forward") {
				return nil, true, ErrShopDown
			}
			// Synced before the client hears the answer; applying it
			// installs the cross-cell route later calls follow.
			s.record(p, true, forwardCommitRecord(id, win.Name(), remote))
			s.mForwards.Inc()
			s.keep(id, ad)
			sp.Set("peer", win.Name()).Set("remote", string(remote))
			return ad, true, nil
		}
		if !errors.Is(cerr, ErrPeerDown) && !errors.Is(cerr, core.ErrTransient) {
			// A permanent peer-side creation failure is the request's
			// outcome: the spec would fail the same way in any cell.
			s.mForwardFails.Inc()
			return nil, true, s.aborted(p, id, fmt.Errorf("shop %s: peer %s: %w", s.name, win.Name(), cerr))
		}
		feasible = withoutBid(feasible, win)
	}
	s.mForwardFails.Inc()
	return nil, false, nil
}

// EstimateForward is the peer-facing half of hierarchical bidding: the
// shop runs one bidding round over its own plants and answers with the
// cheapest feasible bid, or core.Infeasible when no local plant can
// take the request. Nothing is journaled — an estimate has no effects.
func (s *Shop) EstimateForward(p *sim.Proc, spec *core.Spec) (core.Cost, error) {
	if s.down {
		return core.Infeasible, ErrShopDown
	}
	if err := spec.Validate(); err != nil {
		return core.Infeasible, err
	}
	reqAd, err := requestAd(spec)
	if err != nil {
		return core.Infeasible, err
	}
	sp := s.tel.T().StartCtx(p, "shop.estimate_forward", p.Trace()).Set("shop", s.name)
	feasible := s.collectBids(p, s.plants, spec, reqAd, sp)
	sp.SetInt("feasible", int64(len(feasible))).End(p)
	if len(feasible) == 0 {
		return core.Infeasible, nil
	}
	return lowest(feasible), nil
}

// ForwardCreate serves a creation on behalf of a peer cell. The spec
// must carry an Origin (set by the forwarding shop) — a request that
// already hopped once is refused rather than re-forwarded. The
// forwarding token rides in spec.RequestID, so the peer-side journal
// dedupes cross-cell retries through the ordinary beginCreation path,
// and the intent record lands with an origin field for cross-cell
// reconciliation.
func (s *Shop) ForwardCreate(p *sim.Proc, spec *core.Spec) (core.VMID, *classad.Ad, error) {
	if err := spec.Validate(); err != nil {
		return "", nil, err
	}
	if spec.Origin == "" {
		return "", nil, fmt.Errorf("shop %s: forward-create without an origin cell", s.name)
	}
	if spec.Origin == s.name {
		return "", nil, fmt.Errorf("shop %s: refusing forward-create from itself", s.name)
	}
	if s.down {
		return "", nil, ErrShopDown
	}
	// Forwarded creations pass the same admission gate as local ones —
	// capacity is capacity. A shed forward is transient, so the origin
	// cell fails it over to its next bidder.
	release, err := s.admit(p)
	if err != nil {
		return "", nil, err
	}
	defer release()
	if s.down {
		return "", nil, ErrShopDown
	}
	s.mServedForwards.Inc()
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

// ForwardedTo reports where a forwarded creation went ("" when the VM
// is not a forwarded one).
func (s *Shop) ForwardedTo(id core.VMID) (peer string, remote core.VMID, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rt, ok := s.led.Route(id)
	if !ok || rt.Peer == "" {
		return "", "", false
	}
	return rt.Peer, rt.Remote, true
}

// ForwardedRoute is one cross-cell route, for status reporting.
type ForwardedRoute struct {
	LocalID  string `json:"local_id"`
	Peer     string `json:"peer"`
	RemoteID string `json:"remote_id"`
}

// FederationStatus is a snapshot of the shop's federation state, served
// by the daemon's /debug/federation endpoint and vmctl.
type FederationStatus struct {
	Shop      string           `json:"shop"`
	Peers     []string         `json:"peers"`
	Forwarded []ForwardedRoute `json:"forwarded"`
}

// Federation snapshots the shop's peer wiring and cross-cell routes.
func (s *Shop) Federation() FederationStatus {
	st := FederationStatus{Shop: s.name}
	for _, h := range s.peers {
		st.Peers = append(st.Peers, h.Name())
	}
	sort.Strings(st.Peers)
	s.mu.Lock()
	s.led.Routes(func(id core.VMID, rt ledger.Route) {
		if rt.Peer != "" {
			st.Forwarded = append(st.Forwarded, ForwardedRoute{
				LocalID: string(id), Peer: rt.Peer, RemoteID: string(rt.Remote),
			})
		}
	})
	s.mu.Unlock()
	sort.Slice(st.Forwarded, func(i, j int) bool { return st.Forwarded[i].LocalID < st.Forwarded[j].LocalID })
	return st
}

// ShopEnd is a shop's end of the protocol as another cell — or a
// client on the wire — meets it, with no transport in front: each
// operation run on the shop and its outcome put into one of the
// protocol's classes. A killed shop is daemon down (ErrPeerDown), a VM it does not
// serve is not found (ErrUnknownVM from the shop: found=false where the
// result can say so), shed or momentarily infeasible work is transient
// (core.ErrTransient), and any other error is the shop's own failure.
// LocalPeerHandle and the shop daemon's handler
// (service.NewShopHandler) are the two transports in front of it.
type ShopEnd struct {
	Shop *Shop
}

// Name is the shop's: its cell.
func (e ShopEnd) Name() string { return e.Shop.name }

// down maps the shop's killed state onto the transport error class, so
// the caller's failover machinery treats a death mid-call the same as an
// unreachable peer.
func (e ShopEnd) down(err error) error {
	if errors.Is(err, ErrShopDown) {
		return fmt.Errorf("%w: %s: daemon not running", ErrPeerDown, e.Shop.name)
	}
	return err
}

// Estimate is the peer-facing half of hierarchical bidding: the shop's
// aggregate bid, its cheapest feasible plant's. It carries no resource
// ad.
func (e ShopEnd) Estimate(p *sim.Proc, spec *core.Spec) (core.Cost, *classad.Ad, error) {
	c, err := e.Shop.EstimateForward(p, spec)
	return c, nil, e.down(err)
}

// Create is a client's creation: the shop mints the VMID, whatever it
// is handed.
func (e ShopEnd) Create(p *sim.Proc, _ core.VMID, spec *core.Spec) (core.VMID, *classad.Ad, error) {
	id, ad, err := e.Shop.Create(p, spec)
	return id, ad, e.down(err)
}

// Forward is a peer cell's creation, forwarded here.
func (e ShopEnd) Forward(p *sim.Proc, spec *core.Spec) (core.VMID, *classad.Ad, error) {
	id, ad, err := e.Shop.ForwardCreate(p, spec)
	return id, ad, e.down(err)
}

// LookupForward asks, without creating anything, whether the shop
// committed a creation under the forwarding token.
func (e ShopEnd) LookupForward(p *sim.Proc, token string) (core.VMID, bool, error) {
	remote, found, err := e.Shop.ForwardLookup(p, token)
	return remote, found, e.down(err)
}

// Query fetches the classad of a VM the shop serves.
func (e ShopEnd) Query(p *sim.Proc, id core.VMID) (*classad.Ad, bool, error) {
	ad, err := e.Shop.Query(p, id)
	found, err := Found(e.down(err))
	return ad, found, err
}

// Collect destroys a VM the shop serves.
func (e ShopEnd) Collect(p *sim.Proc, id core.VMID) (bool, error) {
	return Found(e.down(e.Shop.Destroy(p, id)))
}

// Publish checkpoints a VM the shop serves into its cell's warehouse.
func (e ShopEnd) Publish(p *sim.Proc, id core.VMID, image string) error {
	return e.down(e.Shop.Publish(p, id, image))
}

// Lifecycle suspends or resumes a VM the shop serves.
func (e ShopEnd) Lifecycle(p *sim.Proc, id core.VMID, op string) error {
	return e.down(e.Shop.lifecycle(p, id, op))
}

// LocalPeerHandle is the simulated transport in front of an in-process
// peer's ShopEnd under the same kernel: it charges a cross-cell message
// latency, and a peer whose daemon is down costs the caller one call
// timeout, as service.RemotePeer's does over TCP.
// It decides no outcome itself.
type LocalPeerHandle struct {
	ShopEnd
}

// NewLocalPeerHandle wraps a peer shop.
func NewLocalPeerHandle(target *Shop) *LocalPeerHandle {
	return &LocalPeerHandle{ShopEnd{target}}
}

func (h *LocalPeerHandle) roundTrip(p *sim.Proc) error {
	if h.Shop.Down() {
		callTimeout(p)
		return fmt.Errorf("%w: %s: daemon not running", ErrPeerDown, h.Shop.Name())
	}
	p.Sleep(sim.Seconds(2 * peerMsgLatency))
	return nil
}

// Estimate implements PeerHandle.
func (h *LocalPeerHandle) Estimate(p *sim.Proc, spec *core.Spec) (core.Cost, error) {
	if err := h.roundTrip(p); err != nil {
		return core.Infeasible, err
	}
	c, _, err := h.ShopEnd.Estimate(p, spec)
	return c, err
}

// Create implements PeerHandle.
func (h *LocalPeerHandle) Create(p *sim.Proc, spec *core.Spec) (core.VMID, *classad.Ad, error) {
	if err := h.roundTrip(p); err != nil {
		return "", nil, err
	}
	return h.ShopEnd.Forward(p, spec)
}

// LookupForward implements PeerHandle.
func (h *LocalPeerHandle) LookupForward(p *sim.Proc, token string) (core.VMID, bool, error) {
	if err := h.roundTrip(p); err != nil {
		return "", false, err
	}
	return h.ShopEnd.LookupForward(p, token)
}

// Query implements PeerHandle.
func (h *LocalPeerHandle) Query(p *sim.Proc, id core.VMID) (*classad.Ad, bool, error) {
	if err := h.roundTrip(p); err != nil {
		return nil, false, err
	}
	return h.ShopEnd.Query(p, id)
}

// Collect implements PeerHandle.
func (h *LocalPeerHandle) Collect(p *sim.Proc, id core.VMID) (bool, error) {
	if err := h.roundTrip(p); err != nil {
		return false, err
	}
	return h.ShopEnd.Collect(p, id)
}

// Publish implements PeerHandle.
func (h *LocalPeerHandle) Publish(p *sim.Proc, id core.VMID, image string) error {
	if err := h.roundTrip(p); err != nil {
		return err
	}
	return h.ShopEnd.Publish(p, id, image)
}

// Lifecycle implements PeerHandle.
func (h *LocalPeerHandle) Lifecycle(p *sim.Proc, id core.VMID, op string) error {
	if err := h.roundTrip(p); err != nil {
		return err
	}
	return h.ShopEnd.Lifecycle(p, id, op)
}
