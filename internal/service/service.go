// Package service glues the core library to the wire protocol for the
// standalone daemons (cmd/vmplantd, cmd/vmshopd): a runner that
// serializes simulation executions behind network handlers, the
// plant-side and shop-side proto.Handler implementations, and a
// shop.PlantHandle that reaches a remote plant over TCP.
//
// The daemons expose the genuine VMPlants protocol over real sockets;
// beneath each daemon the hardware substrate is the same calibrated
// discrete-event simulation the experiments use, so a "create" returns
// immediately in wall time while reporting its virtual creation latency
// in the classad (CreateSecs/CloneSecs).
package service

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/plant"
	"vmplants/internal/proto"
	"vmplants/internal/registry"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
	"vmplants/internal/warehouse"
)

// Runner serializes operations on one simulation kernel so concurrent
// network requests never run the kernel re-entrantly.
type Runner struct {
	mu sync.Mutex
	k  *sim.Kernel
}

// NewRunner wraps a kernel.
func NewRunner(k *sim.Kernel) *Runner { return &Runner{k: k} }

// Do executes fn as a simulation process and drives the kernel to
// quiescence, under the runner's lock.
func (r *Runner) Do(name string, fn func(p *sim.Proc)) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.k.Spawn(name, fn)
	res := r.k.Run(0)
	if len(res.Stranded) != 0 {
		return fmt.Errorf("service: stranded processes: %v", res.Stranded)
	}
	return nil
}

// Now reports the kernel's virtual time under the lock.
func (r *Runner) Now() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.k.Now()
}

// DoCtx is Do with a trace context installed on the spawned process
// before fn runs, so spans the server-side work starts parent under the
// remote caller's trace (the context arrives on the request envelope).
func (r *Runner) DoCtx(name string, sc telemetry.SpanContext, fn func(p *sim.Proc)) error {
	return r.Do(name, func(p *sim.Proc) {
		p.SetTrace(sc)
		fn(p)
	})
}

// traceOf extracts the trace context a request envelope carries (the
// zero context when the caller is untraced).
func traceOf(req *proto.Message) telemetry.SpanContext {
	return telemetry.SpanContext{TraceID: req.TraceID, Span: req.ParentSpan}
}

// NewPlantHandler returns the proto.Handler serving a plant's four
// operations (Figure 2: Create, Collect, Query, Estimate cost).
func NewPlantHandler(r *Runner, pl *plant.Plant) proto.Handler {
	return func(req *proto.Message) *proto.Message {
		// A crashed plant daemon answers nothing until it recovers; the
		// unavailable code maps to ErrPlantDown on the shop side.
		if pl.Down() {
			return proto.Errorf(req.Seq, proto.CodeUnavailable, "plant %s: daemon not running", pl.Name())
		}
		sc := traceOf(req)
		switch req.Kind {
		case proto.KindPingRequest:
			return &proto.Message{Kind: proto.KindPingResponse,
				Pong: &proto.PingResponse{Service: pl.Name()}}

		case proto.KindListRequest:
			ids := pl.VMIDs()
			out := make([]string, len(ids))
			for i, id := range ids {
				out[i] = string(id)
			}
			return &proto.Message{Kind: proto.KindListResponse,
				Listed: &proto.ListResponse{Plant: pl.Name(), VMIDs: out}}

		case proto.KindEstimateRequest:
			spec, err := req.Estimate.Create.Spec()
			if err != nil {
				return proto.Errorf(req.Seq, proto.CodeBadRequest, "%v", err)
			}
			var c core.Cost
			if err := r.DoCtx("estimate", sc, func(p *sim.Proc) { c = pl.Estimate(p, spec) }); err != nil {
				return proto.Errorf(req.Seq, proto.CodeInternal, "%v", err)
			}
			return &proto.Message{Kind: proto.KindEstimateResponse,
				Bid: &proto.EstimateResponse{Plant: pl.Name(), Cost: float64(c), Ad: pl.ResourceAd()}}

		case proto.KindCreateRequest:
			spec, err := req.Create.Spec()
			if err != nil {
				return proto.Errorf(req.Seq, proto.CodeBadRequest, "%v", err)
			}
			id := core.VMID(req.Create.VMID)
			if id == "" {
				return proto.Errorf(req.Seq, proto.CodeBadRequest, "plant create requires a shop-assigned vmid")
			}
			var ad *classad.Ad
			var cerr error
			if err := r.DoCtx("create", sc, func(p *sim.Proc) { ad, cerr = pl.Create(p, id, spec) }); err != nil {
				return proto.Errorf(req.Seq, proto.CodeInternal, "%v", err)
			}
			if cerr != nil {
				return proto.Errorf(req.Seq, proto.CodeNoResources, "%v", cerr)
			}
			return &proto.Message{Kind: proto.KindCreateResponse,
				Created: &proto.CreateResponse{VMID: string(id), Ad: ad}}

		case proto.KindQueryRequest:
			var ad *classad.Ad
			var found bool
			if err := r.DoCtx("query", sc, func(p *sim.Proc) { ad, found = pl.Query(p, core.VMID(req.Query.VMID)) }); err != nil {
				return proto.Errorf(req.Seq, proto.CodeInternal, "%v", err)
			}
			return &proto.Message{Kind: proto.KindQueryResponse,
				Queried: &proto.QueryResponse{VMID: req.Query.VMID, Found: found, Ad: ad}}

		case proto.KindDestroyRequest:
			var derr error
			id := core.VMID(req.Destroy.VMID)
			if err := r.DoCtx("destroy", sc, func(p *sim.Proc) { derr = pl.Collect(p, id) }); err != nil {
				return proto.Errorf(req.Seq, proto.CodeInternal, "%v", err)
			}
			destroyed := derr == nil
			return &proto.Message{Kind: proto.KindDestroyResponse,
				Destroyed: &proto.DestroyResponse{VMID: req.Destroy.VMID, Destroyed: destroyed}}

		case proto.KindPublishRequest:
			var perr error
			id := core.VMID(req.Publish.VMID)
			if err := r.DoCtx("publish", sc, func(p *sim.Proc) { perr = pl.PublishImage(p, id, req.Publish.Image) }); err != nil {
				return proto.Errorf(req.Seq, proto.CodeInternal, "%v", err)
			}
			if perr != nil {
				return proto.Errorf(req.Seq, proto.CodeNotFound, "%v", perr)
			}
			return &proto.Message{Kind: proto.KindPublishResponse,
				Published: &proto.PublishResponse{VMID: req.Publish.VMID, Image: req.Publish.Image}}

		case proto.KindLifecycleRequest:
			var lerr error
			id := core.VMID(req.Lifecycle.VMID)
			state := "suspended"
			if err := r.DoCtx("lifecycle", sc, func(p *sim.Proc) {
				switch req.Lifecycle.Op {
				case proto.LifecycleSuspend:
					lerr = pl.SuspendVM(p, id)
				case proto.LifecycleResume:
					lerr = pl.ResumeVM(p, id)
					state = "running"
				default:
					lerr = fmt.Errorf("unknown lifecycle op %q", req.Lifecycle.Op)
				}
			}); err != nil {
				return proto.Errorf(req.Seq, proto.CodeInternal, "%v", err)
			}
			if lerr != nil {
				return proto.Errorf(req.Seq, proto.CodeNotFound, "%v", lerr)
			}
			return &proto.Message{Kind: proto.KindLifecycleResponse,
				Lifecycled: &proto.LifecycleResponse{VMID: req.Lifecycle.VMID, State: state}}

		case proto.KindPublishImageRequest:
			// Learning-loop publish-back from a remote plant: the derived
			// image arrives as its descriptor XML and is rebuilt over the
			// named parent seed image in this daemon's warehouse.
			desc, performed, err := warehouse.ParseDescriptor([]byte(req.PublishImage.Descriptor))
			if err != nil {
				return proto.Errorf(req.Seq, proto.CodeBadRequest, "%v", err)
			}
			if req.PublishImage.Image != "" && req.PublishImage.Image != desc.Name {
				return proto.Errorf(req.Seq, proto.CodeBadRequest,
					"publish-image name %q does not match descriptor %q", req.PublishImage.Image, desc.Name)
			}
			wh := pl.Warehouse()
			parent, ok := wh.Lookup(req.PublishImage.Parent)
			if !ok {
				return proto.Errorf(req.Seq, proto.CodeNotFound, "no parent image %q", req.PublishImage.Parent)
			}
			im, err := warehouse.BuildDerived(desc.Name, parent, performed)
			if err != nil {
				return proto.Errorf(req.Seq, proto.CodeBadRequest, "%v", err)
			}
			var perr error
			if err := r.DoCtx("publish-image", sc, func(p *sim.Proc) {
				// The derived state streams to the warehouse volume over
				// the daemon host's NFS path before registration.
				pl.Node().Warehouse().Charge(p, im.CheckpointBytes(), pl.Node().Jitter())
				perr = wh.PublishDerived(im, p.Now())
			}); err != nil {
				return proto.Errorf(req.Seq, proto.CodeInternal, "%v", err)
			}
			resp := &proto.PublishImageResponse{Image: desc.Name, Accepted: perr == nil}
			if perr != nil {
				resp.Reason = perr.Error()
			}
			return &proto.Message{Kind: proto.KindPublishImageResponse, ImagePublished: resp}
		}
		return proto.Errorf(req.Seq, proto.CodeBadRequest, "plant does not serve %q", req.Kind)
	}
}

// RemotePlant is a shop.PlantHandle reaching a plant daemon over TCP on
// one connection, dialed at the first call and kept between calls. A
// crashed plant still surfaces as ErrPlantDown rather than wedging the
// shop: see peerConn.
type RemotePlant struct {
	PlantName string
	Addr      string
	Timeout   time.Duration
	// Retry bounds retransmission of idempotent calls
	// (estimate/query/list/ping); the zero value selects a default of
	// 3 attempts with 50 ms base backoff. Set Attempts to 1 to disable.
	Retry proto.RetryPolicy
	// Telemetry instruments the connection's RPCs; nil disables.
	Telemetry *telemetry.Hub

	conn peerConn
}

// Name implements shop.PlantHandle.
func (rp *RemotePlant) Name() string { return rp.PlantName }

// Close releases the handle's connection; a later call dials again.
func (rp *RemotePlant) Close() { rp.conn.close() }

// DefaultRetry is the retry policy remote plant handles use unless
// configured otherwise.
var DefaultRetry = proto.RetryPolicy{Attempts: 3, BaseBackoff: 50 * time.Millisecond, MaxBackoff: time.Second, Jitter: 0.2}

// peerConn is a remote handle's connection to its daemon — a plant's or
// a peer shop's. The shop's kernel runs one process at a time and
// proto.Client serializes callers anyway, so one connection per peer is
// the whole pool.
//
// Keeping it changes nothing about what is sent when. Before each call
// the idle connection is checked (proto.Client.Stale): one the daemon
// has closed — it restarted since the last call — is replaced by a
// fresh dial before the request is written, which is not a
// retransmission. A call that fails in flight drops the connection and
// returns the error it always did; mutating requests are still sent at
// most once, idempotent ones retried by the client's own policy. An
// error response is an answer: the connection stays.
type peerConn struct {
	mu sync.Mutex
	c  *proto.Client
}

func (pc *peerConn) close() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.c != nil {
		pc.c.Close()
		pc.c = nil
	}
}

// call performs one RPC. p, when non-nil, supplies the trace context
// stamped onto the envelope so the daemon's server-side spans join the
// caller's creation tree. down is the sentinel (shop.ErrPlantDown,
// shop.ErrPeerDown) an unreachable daemon is reported as.
func (pc *peerConn) call(p *sim.Proc, m *proto.Message, addr string, timeout time.Duration, retry proto.RetryPolicy, tel *telemetry.Hub, down error) (*proto.Message, error) {
	if p != nil {
		sc := p.Trace()
		m.TraceID, m.ParentSpan = sc.TraceID, sc.Span
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.c != nil && pc.c.Stale() {
		pc.c.Close()
		pc.c = nil
	}
	if pc.c == nil {
		if timeout == 0 {
			timeout = 30 * time.Second
		}
		c, err := proto.Dial(addr, timeout)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", down, err)
		}
		c.Retry = retry
		if c.Retry.Attempts == 0 {
			c.Retry = DefaultRetry
		}
		c.SetTelemetry(tel)
		pc.c = c
	}
	resp, err := pc.c.Call(m)
	if err != nil {
		var remote *proto.RemoteError
		if !errors.As(err, &remote) {
			pc.c.Close()
			pc.c = nil
			return nil, err
		}
		// An unavailable answer is a crashed daemon: let the shop's
		// recovery machinery (re-bid, failover, breakers) take over.
		if remote.Code == proto.CodeUnavailable {
			return nil, fmt.Errorf("%w: %v", down, err)
		}
		return nil, err
	}
	return resp, nil
}

func (rp *RemotePlant) call(p *sim.Proc, m *proto.Message) (*proto.Message, error) {
	return rp.conn.call(p, m, rp.Addr, rp.Timeout, rp.Retry, rp.Telemetry, shop.ErrPlantDown)
}

// List implements shop.PlantHandle.
func (rp *RemotePlant) List(p *sim.Proc) ([]core.VMID, error) {
	resp, err := rp.call(p, &proto.Message{Kind: proto.KindListRequest, List: &proto.ListRequest{}})
	if err != nil {
		return nil, err
	}
	out := make([]core.VMID, len(resp.Listed.VMIDs))
	for i, id := range resp.Listed.VMIDs {
		out[i] = core.VMID(id)
	}
	return out, nil
}

// Ping probes the remote daemon's liveness.
func (rp *RemotePlant) Ping() error {
	_, err := rp.call(nil, &proto.Message{Kind: proto.KindPingRequest, Ping: &proto.PingRequest{}})
	return err
}

// Estimate implements shop.PlantHandle.
func (rp *RemotePlant) Estimate(p *sim.Proc, spec *core.Spec) (core.Cost, *classad.Ad, error) {
	resp, err := rp.call(p, &proto.Message{Kind: proto.KindEstimateRequest,
		Estimate: &proto.EstimateRequest{Create: proto.FromSpec(spec, "")}})
	if err != nil {
		return core.Infeasible, nil, err
	}
	return core.Cost(resp.Bid.Cost), resp.Bid.Ad, nil
}

// Create implements shop.PlantHandle.
func (rp *RemotePlant) Create(p *sim.Proc, id core.VMID, spec *core.Spec) (*classad.Ad, error) {
	cr := proto.FromSpec(spec, "")
	cr.VMID = string(id)
	resp, err := rp.call(p, &proto.Message{Kind: proto.KindCreateRequest, Create: cr})
	if err != nil {
		return nil, err
	}
	return resp.Created.Ad, nil
}

// Query implements shop.PlantHandle.
func (rp *RemotePlant) Query(p *sim.Proc, id core.VMID) (*classad.Ad, bool, error) {
	resp, err := rp.call(p, &proto.Message{Kind: proto.KindQueryRequest,
		Query: &proto.QueryRequest{VMID: string(id)}})
	if err != nil {
		return nil, false, err
	}
	return resp.Queried.Ad, resp.Queried.Found, nil
}

// Collect implements shop.PlantHandle.
func (rp *RemotePlant) Collect(p *sim.Proc, id core.VMID) (bool, error) {
	resp, err := rp.call(p, &proto.Message{Kind: proto.KindDestroyRequest,
		Destroy: &proto.DestroyRequest{VMID: string(id)}})
	if err != nil {
		return false, err
	}
	return resp.Destroyed.Destroyed, nil
}

// Publish implements shop.PlantHandle.
func (rp *RemotePlant) Publish(p *sim.Proc, id core.VMID, image string) error {
	_, err := rp.call(p, &proto.Message{Kind: proto.KindPublishRequest,
		Publish: &proto.PublishRequest{VMID: string(id), Image: image}})
	return err
}

// PublishDerived pushes a derived golden image (as its descriptor XML,
// sharing the named parent's extents) to the remote daemon's
// warehouse — the learning loop's publish-back RPC. It returns whether
// the warehouse accepted the image and, when refused, why.
func (rp *RemotePlant) PublishDerived(image, parent, descriptorXML string) (bool, string, error) {
	resp, err := rp.call(nil, &proto.Message{Kind: proto.KindPublishImageRequest,
		PublishImage: &proto.PublishImageRequest{Image: image, Parent: parent, Descriptor: descriptorXML}})
	if err != nil {
		return false, "", err
	}
	return resp.ImagePublished.Accepted, resp.ImagePublished.Reason, nil
}

// Lifecycle implements shop.PlantHandle.
func (rp *RemotePlant) Lifecycle(p *sim.Proc, id core.VMID, op string) error {
	_, err := rp.call(p, &proto.Message{Kind: proto.KindLifecycleRequest,
		Lifecycle: &proto.LifecycleRequest{VMID: string(id), Op: op}})
	return err
}

// RemotePeer is a shop.PeerHandle reaching a peer shop daemon in
// another cell over TCP. Like RemotePlant it keeps one connection, and
// a dead cell surfaces as ErrPeerDown; when a registry is wired, the
// peer's "vmshop" lease is checked first so a withdrawn or lapsed cell
// fails fast without touching the connection.
type RemotePeer struct {
	PeerName string
	Addr     string
	Timeout  time.Duration
	// Registry, when set, gates every call on a live vmshop lease.
	Registry *registry.Registry
	// Retry bounds retransmission of idempotent calls; the zero value
	// selects DefaultRetry.
	Retry     proto.RetryPolicy
	Telemetry *telemetry.Hub

	conn peerConn
}

// Name implements shop.PeerHandle.
func (rp *RemotePeer) Name() string { return rp.PeerName }

// Close releases the handle's connection; a later call dials again.
func (rp *RemotePeer) Close() { rp.conn.close() }

func (rp *RemotePeer) call(p *sim.Proc, m *proto.Message) (*proto.Message, error) {
	if rp.Registry != nil {
		if _, err := rp.Registry.Bind(Service, rp.PeerName); err != nil {
			return nil, fmt.Errorf("%w: %s: no live registry lease", shop.ErrPeerDown, rp.PeerName)
		}
	}
	return rp.conn.call(p, m, rp.Addr, rp.Timeout, rp.Retry, rp.Telemetry, shop.ErrPeerDown)
}

// Estimate implements shop.PeerHandle.
func (rp *RemotePeer) Estimate(p *sim.Proc, spec *core.Spec) (core.Cost, error) {
	resp, err := rp.call(p, &proto.Message{Kind: proto.KindEstimateRequest,
		Estimate: &proto.EstimateRequest{Create: proto.FromSpec(spec, "")}})
	if err != nil {
		return core.Infeasible, err
	}
	return core.Cost(resp.Bid.Cost), nil
}

// Create implements shop.PeerHandle.
func (rp *RemotePeer) Create(p *sim.Proc, spec *core.Spec) (core.VMID, *classad.Ad, error) {
	resp, err := rp.call(p, &proto.Message{Kind: proto.KindForwardCreateRequest,
		ForwardCreate: &proto.ForwardCreateRequest{Origin: spec.Origin, Create: proto.FromSpec(spec, "")}})
	if err != nil {
		return "", nil, err
	}
	return core.VMID(resp.ForwardCreated.VMID), resp.ForwardCreated.Ad, nil
}

// LookupForward implements shop.PeerHandle.
func (rp *RemotePeer) LookupForward(p *sim.Proc, token string) (core.VMID, bool, error) {
	resp, err := rp.call(p, &proto.Message{Kind: proto.KindForwardCreateRequest,
		ForwardCreate: &proto.ForwardCreateRequest{Probe: true, Token: token}})
	if err != nil {
		return "", false, err
	}
	return core.VMID(resp.ForwardCreated.VMID), resp.ForwardCreated.Found, nil
}

// Query implements shop.PeerHandle.
func (rp *RemotePeer) Query(p *sim.Proc, id core.VMID) (*classad.Ad, bool, error) {
	resp, err := rp.call(p, &proto.Message{Kind: proto.KindQueryRequest,
		Query: &proto.QueryRequest{VMID: string(id)}})
	if err != nil {
		var remote *proto.RemoteError
		if errors.As(err, &remote) {
			return nil, false, nil // peer reachable, VM unknown there
		}
		return nil, false, err
	}
	return resp.Queried.Ad, resp.Queried.Found, nil
}

// Collect implements shop.PeerHandle.
func (rp *RemotePeer) Collect(p *sim.Proc, id core.VMID) (bool, error) {
	resp, err := rp.call(p, &proto.Message{Kind: proto.KindDestroyRequest,
		Destroy: &proto.DestroyRequest{VMID: string(id)}})
	if err != nil {
		var remote *proto.RemoteError
		if errors.As(err, &remote) {
			return false, nil
		}
		return false, err
	}
	return resp.Destroyed.Destroyed, nil
}

// Publish implements shop.PeerHandle.
func (rp *RemotePeer) Publish(p *sim.Proc, id core.VMID, image string) error {
	_, err := rp.call(p, &proto.Message{Kind: proto.KindPublishRequest,
		Publish: &proto.PublishRequest{VMID: string(id), Image: image}})
	return err
}

// Lifecycle implements shop.PeerHandle.
func (rp *RemotePeer) Lifecycle(p *sim.Proc, id core.VMID, op string) error {
	_, err := rp.call(p, &proto.Message{Kind: proto.KindLifecycleRequest,
		Lifecycle: &proto.LifecycleRequest{VMID: string(id), Op: op}})
	return err
}

// Service is the registry service type shop daemons publish under.
const Service = "vmshop"

// PublishShop announces a shop daemon (one federation cell) in the
// service registry so peer cells can discover and bind to it.
func PublishShop(reg *registry.Registry, name, addr string, meta map[string]string, ttl time.Duration) error {
	return reg.Publish(registry.Binding{Service: Service, Name: name, Addr: addr, Meta: meta}, ttl)
}

// DiscoverPeers resolves every live vmshop binding except self to a
// remote peer handle.
func DiscoverPeers(reg *registry.Registry, self string, timeout time.Duration) []shop.PeerHandle {
	var out []shop.PeerHandle
	for _, b := range reg.Discover(Service) {
		if b.Name == self {
			continue
		}
		out = append(out, &RemotePeer{PeerName: b.Name, Addr: b.Addr, Registry: reg, Timeout: timeout})
	}
	return out
}

// PublishPlant announces a plant daemon in the service registry
// (Figure 1's "Publish" arrow), so shops can discover it instead of
// being configured with a static list.
func PublishPlant(reg *registry.Registry, name, addr string, ttl time.Duration) error {
	return reg.Publish(registry.Binding{Service: "vmplant", Name: name, Addr: addr}, ttl)
}

// DiscoverPlants resolves every live vmplant binding in the registry to
// a remote handle (Figure 1's "Discover"/"Bind" arrows).
func DiscoverPlants(reg *registry.Registry, timeout time.Duration) []shop.PlantHandle {
	var out []shop.PlantHandle
	for _, b := range reg.Discover("vmplant") {
		out = append(out, &RemotePlant{PlantName: b.Name, Addr: b.Addr, Timeout: timeout})
	}
	return out
}

// NewShopHandler returns the proto.Handler serving clients through a
// shop (create without vmid, query, destroy, publish).
func NewShopHandler(r *Runner, s *shop.Shop) proto.Handler {
	return func(req *proto.Message) *proto.Message {
		sc := traceOf(req)
		switch req.Kind {
		case proto.KindPingRequest:
			return &proto.Message{Kind: proto.KindPingResponse,
				Pong: &proto.PingResponse{Service: s.Name()}}

		case proto.KindCreateRequest:
			spec, err := req.Create.Spec()
			if err != nil {
				return proto.Errorf(req.Seq, proto.CodeBadRequest, "%v", err)
			}
			var id core.VMID
			var ad *classad.Ad
			var cerr error
			if err := r.DoCtx("shop-create", sc, func(p *sim.Proc) { id, ad, cerr = s.Create(p, spec) }); err != nil {
				return proto.Errorf(req.Seq, proto.CodeInternal, "%v", err)
			}
			if cerr != nil {
				return proto.Errorf(req.Seq, proto.CodeNoResources, "%v", cerr)
			}
			return &proto.Message{Kind: proto.KindCreateResponse,
				Created: &proto.CreateResponse{VMID: string(id), Ad: ad}}

		case proto.KindBatchCreateRequest:
			specs := make([]*core.Spec, len(req.BatchCreate.Items))
			for i := range req.BatchCreate.Items {
				spec, err := req.BatchCreate.Items[i].Spec()
				if err != nil {
					return proto.Errorf(req.Seq, proto.CodeBadRequest, "item %d: %v", i, err)
				}
				specs[i] = spec
			}
			var results []shop.BatchResult
			if err := r.DoCtx("shop-batch-create", sc, func(p *sim.Proc) { results = s.CreateMany(p, specs) }); err != nil {
				return proto.Errorf(req.Seq, proto.CodeInternal, "%v", err)
			}
			resp := &proto.BatchCreateResponse{Items: make([]proto.BatchCreateItem, len(results))}
			for i, res := range results {
				if res.Err != nil {
					resp.Items[i] = proto.BatchCreateItem{Err: res.Err.Error()}
					continue
				}
				resp.Items[i] = proto.BatchCreateItem{VMID: string(res.VMID), Ad: res.Ad}
			}
			return &proto.Message{Kind: proto.KindBatchCreateResponse, BatchCreated: resp}

		case proto.KindEstimateRequest:
			// Peer-facing half of hierarchical bidding: another cell asks
			// for this shop's aggregate bid (its cheapest feasible plant).
			spec, err := req.Estimate.Create.Spec()
			if err != nil {
				return proto.Errorf(req.Seq, proto.CodeBadRequest, "%v", err)
			}
			var c core.Cost
			var eerr error
			if err := r.DoCtx("shop-estimate", sc, func(p *sim.Proc) { c, eerr = s.EstimateForward(p, spec) }); err != nil {
				return proto.Errorf(req.Seq, proto.CodeInternal, "%v", err)
			}
			if eerr != nil {
				if errors.Is(eerr, shop.ErrShopDown) {
					return proto.Errorf(req.Seq, proto.CodeUnavailable, "%v", eerr)
				}
				return proto.Errorf(req.Seq, proto.CodeBadRequest, "%v", eerr)
			}
			return &proto.Message{Kind: proto.KindEstimateResponse,
				Bid: &proto.EstimateResponse{Plant: s.Name(), Cost: float64(c)}}

		case proto.KindForwardCreateRequest:
			if req.ForwardCreate.Probe {
				// Non-creating reconcile probe: did this cell commit a
				// creation under the origin's forwarding token?
				var id core.VMID
				var found bool
				var lerr error
				if err := r.DoCtx("shop-forward-lookup", sc, func(p *sim.Proc) {
					id, found, lerr = s.ForwardLookup(p, req.ForwardCreate.Token)
				}); err != nil {
					return proto.Errorf(req.Seq, proto.CodeInternal, "%v", err)
				}
				if lerr != nil {
					if errors.Is(lerr, shop.ErrShopDown) {
						return proto.Errorf(req.Seq, proto.CodeUnavailable, "%v", lerr)
					}
					return proto.Errorf(req.Seq, proto.CodeBadRequest, "%v", lerr)
				}
				return &proto.Message{Kind: proto.KindForwardCreateResponse,
					ForwardCreated: &proto.ForwardCreateResponse{VMID: string(id), Found: found}}
			}
			if req.ForwardCreate.Create == nil {
				return proto.Errorf(req.Seq, proto.CodeBadRequest, "forward-create without a create-request")
			}
			cr := *req.ForwardCreate.Create
			cr.Origin = req.ForwardCreate.Origin
			spec, err := cr.Spec()
			if err != nil {
				return proto.Errorf(req.Seq, proto.CodeBadRequest, "%v", err)
			}
			var id core.VMID
			var ad *classad.Ad
			var cerr error
			if err := r.DoCtx("shop-forward-create", sc, func(p *sim.Proc) { id, ad, cerr = s.ForwardCreate(p, spec) }); err != nil {
				return proto.Errorf(req.Seq, proto.CodeInternal, "%v", err)
			}
			if cerr != nil {
				if errors.Is(cerr, shop.ErrShopDown) {
					return proto.Errorf(req.Seq, proto.CodeUnavailable, "%v", cerr)
				}
				return proto.Errorf(req.Seq, proto.CodeNoResources, "%v", cerr)
			}
			return &proto.Message{Kind: proto.KindForwardCreateResponse,
				ForwardCreated: &proto.ForwardCreateResponse{VMID: string(id), Ad: ad}}

		case proto.KindQueryRequest:
			var ad *classad.Ad
			var qerr error
			if err := r.DoCtx("shop-query", sc, func(p *sim.Proc) { ad, qerr = s.Query(p, core.VMID(req.Query.VMID)) }); err != nil {
				return proto.Errorf(req.Seq, proto.CodeInternal, "%v", err)
			}
			if qerr != nil {
				return proto.Errorf(req.Seq, proto.CodeNotFound, "%v", qerr)
			}
			return &proto.Message{Kind: proto.KindQueryResponse,
				Queried: &proto.QueryResponse{VMID: req.Query.VMID, Found: true, Ad: ad}}

		case proto.KindDestroyRequest:
			var derr error
			if err := r.DoCtx("shop-destroy", sc, func(p *sim.Proc) { derr = s.Destroy(p, core.VMID(req.Destroy.VMID)) }); err != nil {
				return proto.Errorf(req.Seq, proto.CodeInternal, "%v", err)
			}
			if derr != nil {
				return proto.Errorf(req.Seq, proto.CodeNotFound, "%v", derr)
			}
			return &proto.Message{Kind: proto.KindDestroyResponse,
				Destroyed: &proto.DestroyResponse{VMID: req.Destroy.VMID, Destroyed: true}}

		case proto.KindPublishRequest:
			var perr error
			if err := r.DoCtx("shop-publish", sc, func(p *sim.Proc) {
				perr = s.Publish(p, core.VMID(req.Publish.VMID), req.Publish.Image)
			}); err != nil {
				return proto.Errorf(req.Seq, proto.CodeInternal, "%v", err)
			}
			if perr != nil {
				return proto.Errorf(req.Seq, proto.CodeNotFound, "%v", perr)
			}
			return &proto.Message{Kind: proto.KindPublishResponse,
				Published: &proto.PublishResponse{VMID: req.Publish.VMID, Image: req.Publish.Image}}

		case proto.KindLifecycleRequest:
			var lerr error
			id := core.VMID(req.Lifecycle.VMID)
			state := "suspended"
			if err := r.DoCtx("shop-lifecycle", sc, func(p *sim.Proc) {
				switch req.Lifecycle.Op {
				case proto.LifecycleSuspend:
					lerr = s.Suspend(p, id)
				case proto.LifecycleResume:
					lerr = s.Resume(p, id)
					state = "running"
				default:
					lerr = fmt.Errorf("unknown lifecycle op %q", req.Lifecycle.Op)
				}
			}); err != nil {
				return proto.Errorf(req.Seq, proto.CodeInternal, "%v", err)
			}
			if lerr != nil {
				return proto.Errorf(req.Seq, proto.CodeNotFound, "%v", lerr)
			}
			return &proto.Message{Kind: proto.KindLifecycleResponse,
				Lifecycled: &proto.LifecycleResponse{VMID: req.Lifecycle.VMID, State: state}}
		}
		return proto.Errorf(req.Seq, proto.CodeBadRequest, "shop does not serve %q", req.Kind)
	}
}
