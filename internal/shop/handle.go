package shop

import (
	"errors"
	"fmt"
	"time"

	"vmplants/internal/proto"

	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/fault"
	"vmplants/internal/plant"
	"vmplants/internal/sim"
)

// PlantHandle is the shop's view of one plant: the four operations of
// the shop↔plant binding protocol (Figure 2: Create, Collect, Query,
// Estimate cost). Implementations exist for in-process plants under the
// simulation kernel and for remote plants over TCP (cmd/vmshopd).
type PlantHandle interface {
	// Name identifies the plant.
	Name() string
	// Estimate returns the plant's bid and its resource classad, or an
	// error if unreachable.
	Estimate(p *sim.Proc, spec *core.Spec) (core.Cost, *classad.Ad, error)
	// Create builds a VM under the given shop-assigned ID.
	Create(p *sim.Proc, id core.VMID, spec *core.Spec) (*classad.Ad, error)
	// Query fetches an active VM's classad; found=false when unknown.
	Query(p *sim.Proc, id core.VMID) (ad *classad.Ad, found bool, err error)
	// Collect destroys an active VM; found=false when unknown.
	Collect(p *sim.Proc, id core.VMID) (found bool, err error)
	// Publish checkpoints an active VM into the warehouse as a new
	// golden image.
	Publish(p *sim.Proc, id core.VMID, image string) error
	// Lifecycle suspends or resumes an active VM (op is
	// proto.LifecycleSuspend or proto.LifecycleResume).
	Lifecycle(p *sim.Proc, id core.VMID, op string) error
}

// ErrPlantDown marks an unreachable plant.
var ErrPlantDown = errors.New("shop: plant unreachable")

// ErrUnknownVM is the protocol's "not found" outcome: the daemon asked
// is up and holds no such VM. Query and Collect say it as found=false;
// an operation with no such result returns an error wrapping it.
var ErrUnknownVM = errors.New("unknown VM")

// Found reads a Query's or Collect's found off the operation's error:
// ErrUnknownVM is found=false and no error, any other error stays one.
func Found(err error) (bool, error) {
	if errors.Is(err, ErrUnknownVM) {
		return false, nil
	}
	return err == nil, err
}

// PlantEnd is a plant's end of the shop↔plant protocol with no
// transport in front of it: each operation run on the plant and its
// outcome put into one of the protocol's classes — found, not found
// (ErrUnknownVM), transient (core.ErrTransient), or the plant's own
// failure (any other error). Both transports stand in front of this one
// value — LocalHandle under the simulation kernel, the plant daemon's
// handler behind its socket (service.NewPlantHandler) — so what an
// outcome means is written here and nowhere else. A daemon that is not
// running answers nothing: that class is each transport's to report.
type PlantEnd struct {
	Plant *plant.Plant
}

// Name is the plant's.
func (e PlantEnd) Name() string { return e.Plant.Name() }

// Estimate is the plant's bid with its resource classad.
func (e PlantEnd) Estimate(p *sim.Proc, spec *core.Spec) (core.Cost, *classad.Ad, error) {
	return e.Plant.Estimate(p, spec), e.Plant.ResourceAd(), nil
}

// Create builds the VM under the shop-assigned ID it is handed, and
// hands the ID back.
func (e PlantEnd) Create(p *sim.Proc, id core.VMID, spec *core.Spec) (core.VMID, *classad.Ad, error) {
	ad, err := e.Plant.Create(p, id, spec)
	return id, ad, err
}

// Query fetches an active VM's classad; found=false when unknown.
func (e PlantEnd) Query(p *sim.Proc, id core.VMID) (*classad.Ad, bool, error) {
	ad, found := e.Plant.Query(p, id)
	return ad, found, nil
}

// Collect destroys an active VM; found=false when unknown, and found
// means something only beside a nil error. A collection that fails on a VM the plant still holds is
// the plant's failure, not "not found" — the shop keeps its route, or
// it would orphan a live VM.
func (e PlantEnd) Collect(p *sim.Proc, id core.VMID) (bool, error) {
	return Found(e.classed(id, e.Plant.Collect(p, id)))
}

// Publish checkpoints an active VM into the warehouse as a new golden
// image.
func (e PlantEnd) Publish(p *sim.Proc, id core.VMID, image string) error {
	return e.classed(id, e.Plant.PublishImage(p, id, image))
}

// Lifecycle suspends or resumes an active VM.
func (e PlantEnd) Lifecycle(p *sim.Proc, id core.VMID, op string) error {
	switch op {
	case proto.LifecycleSuspend:
		return e.classed(id, e.Plant.SuspendVM(p, id))
	case proto.LifecycleResume:
		return e.classed(id, e.Plant.ResumeVM(p, id))
	}
	return fmt.Errorf("plant %s: unknown lifecycle op %q", e.Plant.Name(), op)
}

// classed gives a failed operation on id its class: on a VM the plant
// does not hold it is "not found", otherwise the plant's own failure.
func (e PlantEnd) classed(id core.VMID, err error) error {
	if err == nil {
		return nil
	}
	if _, held := e.Plant.VM(id); held {
		return err
	}
	return fmt.Errorf("%w: %v", ErrUnknownVM, err)
}

// LocalHandle is the simulated transport in front of an in-process
// plant's PlantEnd: it charges a per-message network latency so that bid
// collection and service calls cost virtual time like their on-the-wire
// equivalents, injects transport faults, and is where a crashed daemon
// shows as ErrPlantDown. It decides no outcome itself.
type LocalHandle struct {
	PlantEnd
	// Down simulates a crashed plant: every call errors.
	Down bool
	// Faults injects transport faults against this plant — RPC
	// drop/delay rules and crash triggers keyed by the plant's name,
	// with the calling operation as the rule op. nil disables.
	Faults *fault.Registry
	// RestartAfter, when positive, re-runs the plant daemon this much
	// virtual time after a crash is observed — the node's process
	// supervisor — by calling Plant.Recover from a spawned process.
	// Zero leaves the plant down until someone calls Recover.
	RestartAfter time.Duration
	// restartArmed is true while a supervisor restart is pending, so a
	// burst of failed calls schedules exactly one restart. Kernel
	// processes are serialized, so no lock is needed.
	restartArmed bool
}

// What the simulated transports charge, in virtual seconds; a message
// latency is one-way and both directions are charged.
const (
	plantMsgLatency = 0.004 // switched 100 Mbit/s Ethernet: sub-millisecond transfer plus protocol stack
	peerMsgLatency  = 0.02  // a cross-cell WAN hop
	callTimeoutSecs = 1.0   // waiting on a lost message: an injected RPC drop, a crashed daemon
)

// NewLocalHandle wraps a plant.
func NewLocalHandle(pl *plant.Plant) *LocalHandle {
	return &LocalHandle{PlantEnd: PlantEnd{pl}}
}

// scheduleRestart arms the supervisor: one process that waits
// RestartAfter of virtual time and restarts the plant daemon.
func (h *LocalHandle) scheduleRestart(p *sim.Proc) {
	if h.RestartAfter <= 0 || h.restartArmed {
		return
	}
	h.restartArmed = true
	p.Kernel().Spawn("supervisor/"+h.Plant.Name(), func(sp *sim.Proc) {
		sp.Sleep(h.RestartAfter)
		h.Plant.Recover(sp)
		h.restartArmed = false
	})
}

// callTimeout charges the caller a full call timeout — the cost of
// waiting on a plant or peer message that will never be answered.
func callTimeout(p *sim.Proc) { p.Sleep(sim.Seconds(callTimeoutSecs)) }

func (h *LocalHandle) roundTrip(p *sim.Proc, op string) error {
	name := h.Plant.Name()
	if h.Down {
		return fmt.Errorf("%w: %s", ErrPlantDown, name)
	}
	// Crash fault at the transport: the daemon dies before this call
	// reaches it.
	if h.Faults.Should(name, fault.PlantCrash, op) {
		h.Plant.Crash()
	}
	if h.Plant.Down() {
		h.scheduleRestart(p)
		callTimeout(p)
		return fmt.Errorf("%w: %s: daemon not running", ErrPlantDown, name)
	}
	// Dropped request (or dropped reply — indistinguishable to the
	// caller): burn the timeout, then report the transport failure.
	if h.Faults.Should(name, fault.RPCDrop, op) {
		callTimeout(p)
		return fmt.Errorf("%w: %s: %s timed out", ErrPlantDown, name, op)
	}
	if d := h.Faults.DelayFor(name, fault.RPCDelay, op); d > 0 {
		p.Sleep(d)
	}
	p.Sleep(sim.Seconds(2 * plantMsgLatency))
	return nil
}

// Estimate implements PlantHandle.
func (h *LocalHandle) Estimate(p *sim.Proc, spec *core.Spec) (core.Cost, *classad.Ad, error) {
	if err := h.roundTrip(p, "estimate"); err != nil {
		return core.Infeasible, nil, err
	}
	return h.PlantEnd.Estimate(p, spec)
}

// Create implements PlantHandle.
func (h *LocalHandle) Create(p *sim.Proc, id core.VMID, spec *core.Spec) (*classad.Ad, error) {
	if err := h.roundTrip(p, "create"); err != nil {
		return nil, err
	}
	_, ad, err := h.PlantEnd.Create(p, id, spec)
	if h.Plant.Down() {
		// The daemon crashed while handling the order; arm the
		// supervisor so the plant eventually returns.
		h.scheduleRestart(p)
	}
	return ad, err
}

// Query implements PlantHandle.
func (h *LocalHandle) Query(p *sim.Proc, id core.VMID) (*classad.Ad, bool, error) {
	if err := h.roundTrip(p, "query"); err != nil {
		return nil, false, err
	}
	return h.PlantEnd.Query(p, id)
}

// Collect implements PlantHandle.
func (h *LocalHandle) Collect(p *sim.Proc, id core.VMID) (bool, error) {
	if err := h.roundTrip(p, "collect"); err != nil {
		return false, err
	}
	return h.PlantEnd.Collect(p, id)
}

// Publish implements PlantHandle.
func (h *LocalHandle) Publish(p *sim.Proc, id core.VMID, image string) error {
	if err := h.roundTrip(p, "publish"); err != nil {
		return err
	}
	return h.PlantEnd.Publish(p, id, image)
}

// Lifecycle implements PlantHandle.
func (h *LocalHandle) Lifecycle(p *sim.Proc, id core.VMID, op string) error {
	if err := h.roundTrip(p, "lifecycle"); err != nil {
		return err
	}
	return h.PlantEnd.Lifecycle(p, id, op)
}
