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
// retransmission. Every call is one attempt, as an in-process call is:
// one that fails in flight drops the connection and returns its error,
// and the shop's own recovery (leaving the plant out of the round, the
// route sweep) decides what happens next. An error response is an
// answer: the connection stays. A crashed daemon surfaces as
// ErrPlantDown rather than wedging the shop.
type RemotePlant struct {
	PlantName string
	Addr      string
	Timeout   time.Duration
	// Telemetry instruments the connection's RPCs; nil disables.
	Telemetry *telemetry.Hub

	// down is the class an unreachable or not-running daemon is
	// reported as; nil means shop.ErrPlantDown.
	down error
	mu   sync.Mutex
	c    *proto.Client
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
	if rp.c != nil && rp.c.Stale() {
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
	c.SetTelemetry(rp.Telemetry)
	rp.c = c
	return nil
}

// roundTrip sends m on the handle's connection. A forward-create that
// broke in flight is sent once more, on a fresh connection (see
// RemotePeer.Create); every other request is sent once.
func (rp *RemotePlant) roundTrip(m *proto.Message) (*proto.Message, error) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	resend := m.Kind == proto.KindForwardCreateRequest && !m.ForwardCreate.Probe
	for {
		if err := rp.connect(); err != nil {
			return nil, err
		}
		resp, err := rp.c.Call(m)
		if err == nil {
			return resp, nil
		}
		// An error response is an answer; anything else broke the
		// connection. (remote lives in here so that a call that
		// succeeds does not allocate it.)
		var remote *proto.RemoteError
		if errors.As(err, &remote) {
			return nil, err
		}
		rp.c.Close()
		rp.c = nil
		if !resend {
			return nil, err
		}
		resend = false
	}
}

// call performs one RPC and returns a reply of the kind asked for. p,
// when non-nil, supplies the trace context stamped onto the envelope so
// the daemon's server-side spans join the caller's creation tree.
//
// A failed call is given the outcome class the daemon's error code
// carries — the inverse of failure on the serve side — so the shop's
// recovery machinery (re-bid, failover, route eviction) acts on a
// remote failure as it does on the same failure in-process. A call that
// broke in flight has no class: nobody knows what the daemon did.
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
	req := new(proto.Envelope[proto.PingRequest])
	req.Kind, req.Ping = proto.KindPingRequest, &req.Body
	resp, err := rp.call(nil, &req.Message, proto.KindPingResponse)
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
	req := new(struct { // the create-request an estimate carries shares its allocation
		proto.Envelope[proto.EstimateRequest]
		create proto.CreateRequest
	})
	req.create = *proto.FromSpec(spec, "")
	req.Kind, req.Estimate, req.Body.Create = proto.KindEstimateRequest, &req.Body, &req.create
	resp, err := rp.call(p, &req.Message, proto.KindEstimateResponse)
	if err != nil {
		return core.Infeasible, nil, err
	}
	return core.Cost(resp.Bid.Cost), resp.Bid.Ad, nil
}

// create builds a VM: under the given ID on a plant, under one the shop
// mints when id is empty.
func (rp *RemotePlant) create(p *sim.Proc, id core.VMID, spec *core.Spec) (core.VMID, *classad.Ad, error) {
	req := &proto.Envelope[proto.CreateRequest]{Body: *proto.FromSpec(spec, "")}
	req.Kind, req.Create = proto.KindCreateRequest, &req.Body
	req.Body.VMID = string(id)
	resp, err := rp.call(p, &req.Message, proto.KindCreateResponse)
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
	req := &proto.Envelope[proto.QueryRequest]{Body: proto.QueryRequest{VMID: string(id)}}
	req.Kind, req.Query = proto.KindQueryRequest, &req.Body
	resp, err := rp.call(p, &req.Message, proto.KindQueryResponse)
	if err != nil {
		_, err = shop.Found(err)
		return nil, false, err
	}
	return resp.Queried.Ad, resp.Queried.Found, nil
}

// Collect implements shop.PlantHandle.
func (rp *RemotePlant) Collect(p *sim.Proc, id core.VMID) (bool, error) {
	req := &proto.Envelope[proto.DestroyRequest]{Body: proto.DestroyRequest{VMID: string(id)}}
	req.Kind, req.Destroy = proto.KindDestroyRequest, &req.Body
	resp, err := rp.call(p, &req.Message, proto.KindDestroyResponse)
	if err != nil {
		return shop.Found(err)
	}
	return resp.Destroyed.Destroyed, nil
}

// Publish implements shop.PlantHandle.
func (rp *RemotePlant) Publish(p *sim.Proc, id core.VMID, image string) error {
	req := &proto.Envelope[proto.PublishRequest]{Body: proto.PublishRequest{VMID: string(id), Image: image}}
	req.Kind, req.Publish = proto.KindPublishRequest, &req.Body
	_, err := rp.call(p, &req.Message, proto.KindPublishResponse)
	return err
}

// lifecycle suspends or resumes an active VM and returns the state it
// is in afterwards.
func (rp *RemotePlant) lifecycle(p *sim.Proc, id core.VMID, op string) (string, error) {
	req := &proto.Envelope[proto.LifecycleRequest]{Body: proto.LifecycleRequest{VMID: string(id), Op: op}}
	req.Kind, req.Lifecycle = proto.KindLifecycleRequest, &req.Body
	resp, err := rp.call(p, &req.Message, proto.KindLifecycleResponse)
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
func (rp *RemotePeer) forward(p *sim.Proc, fwd proto.ForwardCreateRequest) (*proto.ForwardCreateResponse, error) {
	req := &proto.Envelope[proto.ForwardCreateRequest]{Body: fwd}
	req.Kind, req.ForwardCreate = proto.KindForwardCreateRequest, &req.Body
	resp, err := rp.call(p, &req.Message, proto.KindForwardCreateResponse)
	if err != nil {
		return nil, err
	}
	return resp.ForwardCreated, nil
}

// Create implements shop.PeerHandle. A forward-create is the one
// request sent twice: when the call breaks in flight the peer may hold
// the VM, and no recovery in the shop asks again, so roundTrip sends it
// once more on a fresh connection. The peer answers the duplicate from
// its dedupe index under the request's forwarding token. An unreachable
// peer and an error response are answers, and the LookupForward probe
// is not resent: the restart reconcile treats its error as unresolved.
func (rp *RemotePeer) Create(p *sim.Proc, spec *core.Spec) (core.VMID, *classad.Ad, error) {
	resp, err := rp.forward(p, proto.ForwardCreateRequest{Origin: spec.Origin, Create: proto.FromSpec(spec, "")})
	if err != nil {
		return "", nil, err
	}
	return core.VMID(resp.VMID), resp.Ad, nil
}

// LookupForward implements shop.PeerHandle.
func (rp *RemotePeer) LookupForward(p *sim.Proc, token string) (core.VMID, bool, error) {
	resp, err := rp.forward(p, proto.ForwardCreateRequest{Probe: true, Token: token})
	if err != nil {
		return "", false, err
	}
	return core.VMID(resp.VMID), resp.Found, nil
}
