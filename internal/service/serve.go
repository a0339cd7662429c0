package service

import (
	"errors"
	"fmt"

	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/plant"
	"vmplants/internal/proto"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
)

// server is the seven operations both daemon kinds serve. What each
// one's outcome means is decided behind it, in shop.PlantEnd and
// shop.ShopEnd — the same two values the simulated transports stand in
// front of.
type server interface {
	Name() string
	Estimate(p *sim.Proc, spec *core.Spec) (core.Cost, *classad.Ad, error)
	Create(p *sim.Proc, id core.VMID, spec *core.Spec) (core.VMID, *classad.Ad, error)
	Query(p *sim.Proc, id core.VMID) (*classad.Ad, bool, error)
	Collect(p *sim.Proc, id core.VMID) (bool, error)
	Publish(p *sim.Proc, id core.VMID, image string) error
	Lifecycle(p *sim.Proc, id core.VMID, op string) error
}

// serving is a daemon's serve core: for each of the seven shared kinds
// it decodes the request, runs the operation on the kernel once, and
// encodes the outcome — the result as the kind's response, a failure as
// the error code its class maps to.
type serving struct {
	r  *Runner
	sv server
}

// served is a request's answer while its process runs: the response
// envelope and body the operation fills in, beside the error it fails
// with, in one allocation. The process's closure points at it, so the
// closure is the request's one other allocation of its own.
type served[B any] struct {
	proto.Envelope[B]
	err error
}

// run executes op as one simulation process and answers with the
// response op filled into out, or with the failure it recorded there.
// The process carries the trace context the request envelope arrived
// with (zero when the caller is untraced), so spans the work starts
// parent under the remote caller's trace. A kernel that cannot run the
// process to quiescence is the daemon's own failure.
func run[B any](c *serving, req *proto.Message, out *served[B], op func(p *sim.Proc)) *proto.Message {
	kerr := c.r.do(string(req.Kind), telemetry.SpanContext{TraceID: req.TraceID, Span: req.ParentSpan}, op)
	if err := errors.Join(kerr, out.err); err != nil {
		return failure(req.Seq, err)
	}
	return &out.Message
}

// failure is the reply to an operation that failed. Its code is what
// carries the outcome class over the wire; RemotePlant.call, on the
// other side, turns the code back into the class.
func failure(seq uint64, err error) *proto.Message {
	code := proto.CodeInternal
	switch {
	case errors.Is(err, shop.ErrUnknownVM):
		code = proto.CodeNotFound
	case errors.Is(err, shop.ErrPlantDown), errors.Is(err, shop.ErrPeerDown), errors.Is(err, shop.ErrShopDown):
		code = proto.CodeUnavailable
	case errors.Is(err, core.ErrTransient):
		code = proto.CodeNoResources
	}
	return proto.Errorf(seq, code, "%v", err)
}

func badRequest(seq uint64, err error) *proto.Message {
	return proto.Errorf(seq, proto.CodeBadRequest, "%v", err)
}

// known turns found=false into the error "not found" travels as: like
// every other class, it crosses the wire as a code.
func (c *serving) known(id string, found bool, err error) error {
	if err == nil && !found {
		return fmt.Errorf("%s: %w %s", c.sv.Name(), shop.ErrUnknownVM, id)
	}
	return err
}

// handle serves the seven kinds every daemon serves; anything else is
// not this daemon's to answer.
func (c *serving) handle(req *proto.Message) *proto.Message {
	switch req.Kind {
	case proto.KindPingRequest:
		out := &proto.Envelope[proto.PingResponse]{Body: proto.PingResponse{Service: c.sv.Name()}}
		out.Kind, out.Pong = proto.KindPingResponse, &out.Body
		return &out.Message

	case proto.KindEstimateRequest:
		spec, err := req.Estimate.Create.Spec()
		if err != nil {
			return badRequest(req.Seq, err)
		}
		out := new(served[proto.EstimateResponse])
		out.Kind, out.Bid = proto.KindEstimateResponse, &out.Body
		return run(c, req, out, func(p *sim.Proc) {
			cost, ad, err := c.sv.Estimate(p, spec)
			out.Body = proto.EstimateResponse{Plant: c.sv.Name(), Cost: float64(cost), Ad: ad}
			out.err = err
		})

	case proto.KindCreateRequest:
		spec, err := req.Create.Spec()
		if err != nil {
			return badRequest(req.Seq, err)
		}
		out := new(served[proto.CreateResponse])
		out.Kind, out.Created = proto.KindCreateResponse, &out.Body
		return run(c, req, out, func(p *sim.Proc) {
			id, ad, err := c.sv.Create(p, core.VMID(req.Create.VMID), spec)
			out.Body = proto.CreateResponse{VMID: string(id), Ad: ad}
			out.err = err
		})

	case proto.KindQueryRequest:
		id := req.Query.VMID
		out := new(served[proto.QueryResponse])
		out.Kind, out.Queried = proto.KindQueryResponse, &out.Body
		return run(c, req, out, func(p *sim.Proc) {
			ad, found, err := c.sv.Query(p, core.VMID(id))
			out.Body = proto.QueryResponse{VMID: id, Found: true, Ad: ad}
			out.err = c.known(id, found, err)
		})

	case proto.KindDestroyRequest:
		id := req.Destroy.VMID
		out := new(served[proto.DestroyResponse])
		out.Kind, out.Destroyed = proto.KindDestroyResponse, &out.Body
		return run(c, req, out, func(p *sim.Proc) {
			found, err := c.sv.Collect(p, core.VMID(id))
			out.Body = proto.DestroyResponse{VMID: id, Destroyed: true}
			out.err = c.known(id, found, err)
		})

	case proto.KindPublishRequest:
		pub := req.Publish
		out := new(served[proto.PublishResponse])
		out.Kind, out.Published = proto.KindPublishResponse, &out.Body
		return run(c, req, out, func(p *sim.Proc) {
			out.Body = proto.PublishResponse{VMID: pub.VMID, Image: pub.Image}
			out.err = c.sv.Publish(p, core.VMID(pub.VMID), pub.Image)
		})

	case proto.KindLifecycleRequest:
		lc := req.Lifecycle
		out := new(served[proto.LifecycleResponse])
		out.Kind, out.Lifecycled = proto.KindLifecycleResponse, &out.Body
		return run(c, req, out, func(p *sim.Proc) {
			out.Body = proto.LifecycleResponse{VMID: lc.VMID, State: shop.LifecycleState(lc.Op)}
			out.err = c.sv.Lifecycle(p, core.VMID(lc.VMID), lc.Op)
		})
	}
	return proto.Errorf(req.Seq, proto.CodeBadRequest, "%s does not serve %q", c.sv.Name(), req.Kind)
}

// NewPlantHandler returns the proto.Handler serving a plant's four
// operations (Figure 2: Create, Collect, Query, Estimate cost) and the
// rest of the shared kinds.
func NewPlantHandler(r *Runner, pl *plant.Plant) proto.Handler {
	c := &serving{r: r, sv: shop.PlantEnd{Plant: pl}}
	return func(req *proto.Message) *proto.Message {
		// A crashed plant daemon answers nothing until it recovers; the
		// shop's handle reads the class as ErrPlantDown.
		if pl.Down() {
			return failure(req.Seq, fmt.Errorf("%w: %s: daemon not running", shop.ErrPlantDown, pl.Name()))
		}
		if req.Create != nil && req.Create.VMID == "" {
			return badRequest(req.Seq, errors.New("plant create requires a shop-assigned vmid"))
		}
		return c.handle(req)
	}
}

// NewShopHandler returns the proto.Handler serving clients and peer
// cells through a shop: the shared kinds (create without a vmid, query,
// destroy, publish, …) plus the shop's own forwarded creation. A client
// with many VMs to create sends that many create-requests; the shop's
// admission gate is their one queue.
func NewShopHandler(r *Runner, s *shop.Shop) proto.Handler {
	end := shop.ShopEnd{Shop: s}
	c := &serving{r: r, sv: end}
	return func(req *proto.Message) *proto.Message {
		switch req.Kind {
		case proto.KindForwardCreateRequest:
			fwd := req.ForwardCreate
			out := new(served[proto.ForwardCreateResponse])
			out.Kind, out.ForwardCreated = proto.KindForwardCreateResponse, &out.Body
			if fwd.Probe {
				// Non-creating reconcile probe: did this cell commit a
				// creation under the origin's forwarding token?
				return run(c, req, out, func(p *sim.Proc) {
					id, found, err := end.LookupForward(p, fwd.Token)
					out.Body = proto.ForwardCreateResponse{VMID: string(id), Found: found}
					out.err = err
				})
			}
			if fwd.Create == nil {
				return badRequest(req.Seq, errors.New("forward-create without a create-request"))
			}
			cr := *fwd.Create
			cr.Origin = fwd.Origin
			spec, err := cr.Spec()
			if err != nil {
				return badRequest(req.Seq, err)
			}
			return run(c, req, out, func(p *sim.Proc) {
				id, ad, err := end.Forward(p, spec)
				out.Body = proto.ForwardCreateResponse{VMID: string(id), Ad: ad}
				out.err = err
			})
		}
		return c.handle(req)
	}
}
