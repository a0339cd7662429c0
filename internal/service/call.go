package service

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/proto"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
)

// DefaultRetry is the retry policy a client of a daemon uses unless
// configured otherwise.
var DefaultRetry = proto.RetryPolicy{Attempts: 3, BaseBackoff: 50 * time.Millisecond, MaxBackoff: time.Second, Jitter: 0.2}

// RemotePlant is a shop.PlantHandle reaching a plant daemon over TCP —
// and the call side of the protocol, written once: each operation
// builds its request, sends it, checks the reply's kind and unpacks it
// into the shape the shop's handle interfaces use. RemotePeer and
// ShopClient reach a shop daemon through the same methods.
//
// It talks on one connection, dialed at the first call and kept between
// calls: the shop's kernel runs one process at a time and proto.Client
// serializes callers anyway, so one connection per daemon is the whole
// pool. Keeping it changes nothing about what is sent when. Before each
// call the idle connection is checked (proto.Client.Stale): one the
// daemon has closed — it restarted since the last call — is replaced by
// a fresh dial before the request is written, which is not a
// retransmission. A call that fails in flight drops the connection and
// returns the error it always did; mutating requests are still sent at
// most once, idempotent ones retried by the client's own policy. An
// error response is an answer: the connection stays. A crashed daemon
// surfaces as ErrPlantDown rather than wedging the shop.
type RemotePlant struct {
	PlantName string
	Addr      string
	Timeout   time.Duration
	// Retry bounds retransmission of idempotent calls
	// (estimate/query/list/ping); the zero value selects DefaultRetry, 3
	// attempts with 50 ms base backoff. Set Attempts to 1 to disable.
	Retry proto.RetryPolicy
	// Telemetry instruments the connection's RPCs; nil disables.
	Telemetry *telemetry.Hub

	// down is the class an unreachable or not-running daemon is
	// reported as; nil means shop.ErrPlantDown.
	down error
	// unchecked skips the idle-connection check before each call. A
	// ShopClient sets it: the check's five allocations are 1.4 % of a
	// query's whole path, and a client that finds its shop gone has
	// nothing to fail over to anyway — it reports the error.
	unchecked bool
	mu        sync.Mutex
	c         *proto.Client
}

// Name implements shop.PlantHandle.
func (rp *RemotePlant) Name() string { return rp.PlantName }

// Close releases the handle's connection; a later call dials again.
func (rp *RemotePlant) Close() {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if rp.c != nil {
		rp.c.Close()
		rp.c = nil
	}
}

// errUnreachable marks a daemon no connection could be made to.
var errUnreachable = errors.New("service: daemon unreachable")

// connect makes sure the handle holds a connection that can carry a
// call, dialing when there is none or the daemon has closed the one
// there was. The caller holds rp.mu.
func (rp *RemotePlant) connect() error {
	if rp.c != nil && !rp.unchecked && rp.c.Stale() {
		rp.c.Close()
		rp.c = nil
	}
	if rp.c != nil {
		return nil
	}
	timeout := rp.Timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	c, err := proto.Dial(rp.Addr, timeout)
	if err != nil {
		return fmt.Errorf("%w: %v", errUnreachable, err)
	}
	c.Retry = rp.Retry
	if c.Retry.Attempts == 0 {
		c.Retry = DefaultRetry
	}
	c.SetTelemetry(rp.Telemetry)
	rp.c = c
	return nil
}

// roundTrip sends m on the handle's connection.
func (rp *RemotePlant) roundTrip(m *proto.Message) (*proto.Message, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	if err := rp.connect(); err != nil {
		return nil, err
	}
	resp, err := rp.c.Call(m)
	if err != nil {
		// An error response is an answer; anything else broke the
		// connection. (remote lives in here so that a call that
		// succeeds does not allocate it.)
		var remote *proto.RemoteError
		if !errors.As(err, &remote) {
			rp.c.Close()
			rp.c = nil
		}
	}
	return resp, err
}

// call performs one RPC and returns a reply of the kind asked for. p,
// when non-nil, supplies the trace context stamped onto the envelope so
// the daemon's server-side spans join the caller's creation tree.
//
// A failed call is given the outcome class the daemon's error code
// carries — the inverse of failure on the serve side — so the shop's
// recovery machinery (re-bid, failover, breakers, route eviction) acts
// on a remote failure as it does on the same failure in-process. A call
// that broke in flight has no class: nobody knows what the daemon did.
func (rp *RemotePlant) call(p *sim.Proc, m *proto.Message, want proto.Kind) (*proto.Message, error) {
	if p != nil {
		sc := p.Trace()
		m.TraceID, m.ParentSpan = sc.TraceID, sc.Span
	}
	resp, err := rp.roundTrip(m)
	if err == nil {
		if resp.Kind != want {
			return nil, fmt.Errorf("service: %s answered with a %s", m.Kind, resp.Kind)
		}
		return resp, nil
	}
	down := rp.down
	if down == nil {
		down = shop.ErrPlantDown
	}
	var remote *proto.RemoteError
	switch {
	case errors.Is(err, errUnreachable):
		return nil, fmt.Errorf("%w: %w", down, err)
	case !errors.As(err, &remote):
	case remote.Code == proto.CodeUnavailable:
		return nil, fmt.Errorf("%w: %w", down, err)
	case remote.Code == proto.CodeNotFound:
		return nil, fmt.Errorf("%w: %w", shop.ErrUnknownVM, err)
	case remote.Code == proto.CodeNoResources:
		return nil, fmt.Errorf("%w: %w", core.ErrTransient, err)
	}
	return nil, err
}

// ping probes the daemon's liveness and returns the name it answers to.
func (rp *RemotePlant) ping() (string, error) {
	resp, err := rp.call(nil, &proto.Message{Kind: proto.KindPingRequest, Ping: &proto.PingRequest{}}, proto.KindPingResponse)
	if err != nil {
		return "", err
	}
	return resp.Pong.Service, nil
}

// Ping probes the remote daemon's liveness.
func (rp *RemotePlant) Ping() error {
	_, err := rp.ping()
	return err
}

// Estimate implements shop.PlantHandle.
func (rp *RemotePlant) Estimate(p *sim.Proc, spec *core.Spec) (core.Cost, *classad.Ad, error) {
	resp, err := rp.call(p, &proto.Message{Kind: proto.KindEstimateRequest,
		Estimate: &proto.EstimateRequest{Create: proto.FromSpec(spec, "")}}, proto.KindEstimateResponse)
	if err != nil {
		return core.Infeasible, nil, err
	}
	return core.Cost(resp.Bid.Cost), resp.Bid.Ad, nil
}

// create builds a VM: under the given ID on a plant, under one the shop
// mints when id is empty.
func (rp *RemotePlant) create(p *sim.Proc, id core.VMID, spec *core.Spec) (core.VMID, *classad.Ad, error) {
	cr := proto.FromSpec(spec, "")
	cr.VMID = string(id)
	resp, err := rp.call(p, &proto.Message{Kind: proto.KindCreateRequest, Create: cr}, proto.KindCreateResponse)
	if err != nil {
		return "", nil, err
	}
	return core.VMID(resp.Created.VMID), resp.Created.Ad, nil
}

// Create implements shop.PlantHandle.
func (rp *RemotePlant) Create(p *sim.Proc, id core.VMID, spec *core.Spec) (*classad.Ad, error) {
	_, ad, err := rp.create(p, id, spec)
	return ad, err
}

// Query implements shop.PlantHandle.
func (rp *RemotePlant) Query(p *sim.Proc, id core.VMID) (*classad.Ad, bool, error) {
	resp, err := rp.call(p, &proto.Message{Kind: proto.KindQueryRequest,
		Query: &proto.QueryRequest{VMID: string(id)}}, proto.KindQueryResponse)
	if err != nil {
		_, err = shop.Found(err)
		return nil, false, err
	}
	return resp.Queried.Ad, resp.Queried.Found, nil
}

// Collect implements shop.PlantHandle.
func (rp *RemotePlant) Collect(p *sim.Proc, id core.VMID) (bool, error) {
	resp, err := rp.call(p, &proto.Message{Kind: proto.KindDestroyRequest,
		Destroy: &proto.DestroyRequest{VMID: string(id)}}, proto.KindDestroyResponse)
	if err != nil {
		return shop.Found(err)
	}
	return resp.Destroyed.Destroyed, nil
}

// Publish implements shop.PlantHandle.
func (rp *RemotePlant) Publish(p *sim.Proc, id core.VMID, image string) error {
	_, err := rp.call(p, &proto.Message{Kind: proto.KindPublishRequest,
		Publish: &proto.PublishRequest{VMID: string(id), Image: image}}, proto.KindPublishResponse)
	return err
}

// lifecycle suspends or resumes an active VM and returns the state it
// is in afterwards.
func (rp *RemotePlant) lifecycle(p *sim.Proc, id core.VMID, op string) (string, error) {
	resp, err := rp.call(p, &proto.Message{Kind: proto.KindLifecycleRequest,
		Lifecycle: &proto.LifecycleRequest{VMID: string(id), Op: op}}, proto.KindLifecycleResponse)
	if err != nil {
		return "", err
	}
	return resp.Lifecycled.State, nil
}

// Lifecycle implements shop.PlantHandle.
func (rp *RemotePlant) Lifecycle(p *sim.Proc, id core.VMID, op string) error {
	_, err := rp.lifecycle(p, id, op)
	return err
}

// List implements shop.PlantHandle.
func (rp *RemotePlant) List(p *sim.Proc) ([]core.VMID, error) {
	resp, err := rp.call(p, &proto.Message{Kind: proto.KindListRequest, List: &proto.ListRequest{}}, proto.KindListResponse)
	if err != nil {
		return nil, err
	}
	out := make([]core.VMID, len(resp.Listed.VMIDs))
	for i, id := range resp.Listed.VMIDs {
		out[i] = core.VMID(id)
	}
	return out, nil
}

// RemotePeer is a shop.PeerHandle reaching a peer shop daemon in
// another cell over TCP. A shop daemon speaks the plant's protocol —
// query, destroy, publish and lifecycle are RemotePlant's, on the same
// kind of connection — so what is written here is what differs: a bid
// without a resource ad, creation by forward-create, and a dead cell
// surfacing as ErrPeerDown.
type RemotePeer struct {
	remote
}

// remote lets RemotePeer embed RemotePlant without exporting the field.
type remote = RemotePlant

// NewRemotePeer returns the handle for the peer cell name at addr.
func NewRemotePeer(name, addr string, timeout time.Duration, tel *telemetry.Hub) *RemotePeer {
	return &RemotePeer{remote{PlantName: name, Addr: addr, Timeout: timeout, Telemetry: tel, down: shop.ErrPeerDown}}
}

// Estimate implements shop.PeerHandle.
func (rp *RemotePeer) Estimate(p *sim.Proc, spec *core.Spec) (core.Cost, error) {
	c, _, err := rp.remote.Estimate(p, spec)
	return c, err
}

// forward sends one forward-create request: a forwarded creation, or
// the probe for one.
func (rp *RemotePeer) forward(p *sim.Proc, fwd *proto.ForwardCreateRequest) (*proto.ForwardCreateResponse, error) {
	resp, err := rp.call(p, &proto.Message{Kind: proto.KindForwardCreateRequest, ForwardCreate: fwd}, proto.KindForwardCreateResponse)
	if err != nil {
		return nil, err
	}
	return resp.ForwardCreated, nil
}

// Create implements shop.PeerHandle.
func (rp *RemotePeer) Create(p *sim.Proc, spec *core.Spec) (core.VMID, *classad.Ad, error) {
	resp, err := rp.forward(p, &proto.ForwardCreateRequest{Origin: spec.Origin, Create: proto.FromSpec(spec, "")})
	if err != nil {
		return "", nil, err
	}
	return core.VMID(resp.VMID), resp.Ad, nil
}

// LookupForward implements shop.PeerHandle.
func (rp *RemotePeer) LookupForward(p *sim.Proc, token string) (core.VMID, bool, error) {
	resp, err := rp.forward(p, &proto.ForwardCreateRequest{Probe: true, Token: token})
	if err != nil {
		return "", false, err
	}
	return core.VMID(resp.VMID), resp.Found, nil
}
