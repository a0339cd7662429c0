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

// run executes fn as one simulation process and answers with the reply
// fn built, or with the failure fn returned beside it. The process carries the trace context the
// request envelope arrived with (zero when the caller is untraced), so
// spans the work starts parent under the remote caller's trace. A
// kernel that cannot run the process to quiescence is the daemon's own
// failure.
func (c *serving) run(req *proto.Message, fn func(p *sim.Proc) (*proto.Message, error)) *proto.Message {
	var out struct { // one value, so the process's closure costs one allocation for it
		resp *proto.Message
		err  error
	}
	kerr := c.r.Do(string(req.Kind), func(p *sim.Proc) {
		p.SetTrace(telemetry.SpanContext{TraceID: req.TraceID, Span: req.ParentSpan})
		out.resp, out.err = fn(p)
	})
	if err := errors.Join(kerr, out.err); err != nil {
		return failure(req.Seq, err)
	}
	return out.resp
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
		return &proto.Message{Kind: proto.KindPingResponse,
			Pong: &proto.PingResponse{Service: c.sv.Name()}}

	case proto.KindEstimateRequest:
		spec, err := req.Estimate.Create.Spec()
		if err != nil {
			return badRequest(req.Seq, err)
		}
		return c.run(req, func(p *sim.Proc) (*proto.Message, error) {
			cost, ad, err := c.sv.Estimate(p, spec)
			return &proto.Message{Kind: proto.KindEstimateResponse,
				Bid: &proto.EstimateResponse{Plant: c.sv.Name(), Cost: float64(cost), Ad: ad}}, err
		})

	case proto.KindCreateRequest:
		spec, err := req.Create.Spec()
		if err != nil {
			return badRequest(req.Seq, err)
		}
		return c.run(req, func(p *sim.Proc) (*proto.Message, error) {
			id, ad, err := c.sv.Create(p, core.VMID(req.Create.VMID), spec)
			return &proto.Message{Kind: proto.KindCreateResponse,
				Created: &proto.CreateResponse{VMID: string(id), Ad: ad}}, err
		})

	case proto.KindQueryRequest:
		id := req.Query.VMID
		return c.run(req, func(p *sim.Proc) (*proto.Message, error) {
			ad, found, err := c.sv.Query(p, core.VMID(id))
			return &proto.Message{Kind: proto.KindQueryResponse,
				Queried: &proto.QueryResponse{VMID: id, Found: true, Ad: ad}}, c.known(id, found, err)
		})

	case proto.KindDestroyRequest:
		id := req.Destroy.VMID
		return c.run(req, func(p *sim.Proc) (*proto.Message, error) {
			found, err := c.sv.Collect(p, core.VMID(id))
			return &proto.Message{Kind: proto.KindDestroyResponse,
				Destroyed: &proto.DestroyResponse{VMID: id, Destroyed: true}}, c.known(id, found, err)
		})

	case proto.KindPublishRequest:
		pub := req.Publish
		return c.run(req, func(p *sim.Proc) (*proto.Message, error) {
			err := c.sv.Publish(p, core.VMID(pub.VMID), pub.Image)
			return &proto.Message{Kind: proto.KindPublishResponse,
				Published: &proto.PublishResponse{VMID: pub.VMID, Image: pub.Image}}, err
		})

	case proto.KindLifecycleRequest:
		lc := req.Lifecycle
		state := "suspended"
		if lc.Op == proto.LifecycleResume {
			state = "running"
		}
		return c.run(req, func(p *sim.Proc) (*proto.Message, error) {
			err := c.sv.Lifecycle(p, core.VMID(lc.VMID), lc.Op)
			return &proto.Message{Kind: proto.KindLifecycleResponse,
				Lifecycled: &proto.LifecycleResponse{VMID: lc.VMID, State: state}}, err
		})
	}
	return proto.Errorf(req.Seq, proto.CodeBadRequest, "%s does not serve %q", c.sv.Name(), req.Kind)
}

// NewPlantHandler returns the proto.Handler serving a plant's four
// operations (Figure 2: Create, Collect, Query, Estimate cost) and the
// rest of the shared kinds, plus the plant's own: its VM inventory.
func NewPlantHandler(r *Runner, pl *plant.Plant) proto.Handler {
	c := &serving{r: r, sv: shop.PlantEnd{Plant: pl}}
	return func(req *proto.Message) *proto.Message {
		// A crashed plant daemon answers nothing until it recovers; the
		// shop's handle reads the class as ErrPlantDown.
		if pl.Down() {
			return failure(req.Seq, fmt.Errorf("%w: %s: daemon not running", shop.ErrPlantDown, pl.Name()))
		}
		if req.Kind == proto.KindListRequest {
			ids := pl.VMIDs()
			out := make([]string, len(ids))
			for i, id := range ids {
				out[i] = string(id)
			}
			return &proto.Message{Kind: proto.KindListResponse,
				Listed: &proto.ListResponse{Plant: pl.Name(), VMIDs: out}}
		}
		if req.Create != nil && req.Create.VMID == "" {
			return badRequest(req.Seq, errors.New("plant create requires a shop-assigned vmid"))
		}
		return c.handle(req)
	}
}

// NewShopHandler returns the proto.Handler serving clients and peer
// cells through a shop: the shared kinds (create without a vmid, query,
// destroy, publish, …) plus the shop's own, batched and forwarded
// creation.
func NewShopHandler(r *Runner, s *shop.Shop) proto.Handler {
	end := shop.ShopEnd{Shop: s}
	c := &serving{r: r, sv: end}
	return func(req *proto.Message) *proto.Message {
		switch req.Kind {
		case proto.KindBatchCreateRequest:
			specs := make([]*core.Spec, len(req.BatchCreate.Items))
			for i := range req.BatchCreate.Items {
				spec, err := req.BatchCreate.Items[i].Spec()
				if err != nil {
					return badRequest(req.Seq, fmt.Errorf("item %d: %v", i, err))
				}
				specs[i] = spec
			}
			return c.run(req, func(p *sim.Proc) (*proto.Message, error) {
				results := s.CreateMany(p, specs)
				resp := &proto.BatchCreateResponse{Items: make([]proto.BatchCreateItem, len(results))}
				for i, res := range results {
					if res.Err != nil {
						resp.Items[i] = proto.BatchCreateItem{Err: res.Err.Error()}
						continue
					}
					resp.Items[i] = proto.BatchCreateItem{VMID: string(res.VMID), Ad: res.Ad}
				}
				return &proto.Message{Kind: proto.KindBatchCreateResponse, BatchCreated: resp}, nil
			})

		case proto.KindForwardCreateRequest:
			fwd := req.ForwardCreate
			if fwd.Probe {
				// Non-creating reconcile probe: did this cell commit a
				// creation under the origin's forwarding token?
				return c.run(req, func(p *sim.Proc) (*proto.Message, error) {
					id, found, err := end.LookupForward(p, fwd.Token)
					return &proto.Message{Kind: proto.KindForwardCreateResponse,
						ForwardCreated: &proto.ForwardCreateResponse{VMID: string(id), Found: found}}, err
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
			return c.run(req, func(p *sim.Proc) (*proto.Message, error) {
				id, ad, err := end.Forward(p, spec)
				return &proto.Message{Kind: proto.KindForwardCreateResponse,
					ForwardCreated: &proto.ForwardCreateResponse{VMID: string(id), Ad: ad}}, err
			})
		}
		return c.handle(req)
	}
}
