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
	// List enumerates the VMs the plant currently hosts. Shop.Recover
	// uses it to rebuild routing soft state with one call per plant
	// instead of probing VM by VM.
	List(p *sim.Proc) ([]core.VMID, error)
}

// ErrPlantDown marks an unreachable plant.
var ErrPlantDown = errors.New("shop: plant unreachable")

// LocalHandle adapts an in-process *plant.Plant, charging a per-message
// network latency so that bid collection and service calls cost virtual
// time like their on-the-wire equivalents.
type LocalHandle struct {
	Plant *plant.Plant
	// MsgLatency is the one-way control-message latency (switched
	// 100 Mbit/s Ethernet: sub-millisecond transfer plus protocol
	// stack). Both directions are charged.
	MsgLatency float64 // seconds
	// Down simulates a crashed plant: every call errors.
	Down bool
	// CallTimeout is how long a caller waits on a lost message before
	// giving up, in virtual seconds; it is the price of an injected RPC
	// drop or a call to a crashed daemon.
	CallTimeout float64
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

// NewLocalHandle wraps a plant with the default control latency.
func NewLocalHandle(pl *plant.Plant) *LocalHandle {
	return &LocalHandle{Plant: pl, MsgLatency: 0.004, CallTimeout: 1.0}
}

// Name implements PlantHandle.
func (h *LocalHandle) Name() string { return h.Plant.Name() }

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

// callTimeout charges the caller a full call timeout (default 1 s) —
// the cost of waiting on a plant or peer message that will never be
// answered.
func callTimeout(p *sim.Proc, secs float64) {
	if secs <= 0 {
		secs = 1.0
	}
	p.Sleep(sim.Seconds(secs))
}

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
		callTimeout(p, h.CallTimeout)
		return fmt.Errorf("%w: %s: daemon not running", ErrPlantDown, name)
	}
	// Dropped request (or dropped reply — indistinguishable to the
	// caller): burn the timeout, then report the transport failure.
	if h.Faults.Should(name, fault.RPCDrop, op) {
		callTimeout(p, h.CallTimeout)
		return fmt.Errorf("%w: %s: %s timed out", ErrPlantDown, name, op)
	}
	if d := h.Faults.DelayFor(name, fault.RPCDelay, op); d > 0 {
		p.Sleep(d)
	}
	p.Sleep(sim.Seconds(2 * h.MsgLatency))
	return nil
}

// SetDraining implements Drainable.
func (h *LocalHandle) SetDraining(on bool) { h.Plant.SetDraining(on) }

// Retire implements Drainable.
func (h *LocalHandle) Retire() { h.Plant.Retire() }

// Alive implements LivenessProbe: the handle is marked up and the
// plant daemon is running. No round trip — this is the cheap
// dispatch-time recheck, not a health probe.
func (h *LocalHandle) Alive() bool { return !h.Down && !h.Plant.Down() }

// ActiveVMs reports the plant's hosted-VM count for fleet status.
func (h *LocalHandle) ActiveVMs() int { return h.Plant.ActiveVMs() }

// SetBrownout toggles the plant's load-shedding degraded mode.
func (h *LocalHandle) SetBrownout(on bool) { h.Plant.SetBrownout(on) }

// MigrateVM implements Migrator: move a hosted VM to another local
// plant, preserving its VMID.
func (h *LocalHandle) MigrateVM(p *sim.Proc, id core.VMID, dst PlantHandle) error {
	dh, ok := dst.(*LocalHandle)
	if !ok {
		return fmt.Errorf("shop: cannot migrate %s to non-local plant %s", id, dst.Name())
	}
	if err := h.roundTrip(p, "migrate"); err != nil {
		return err
	}
	return h.Plant.MigrateTo(p, id, dh.Plant)
}

// Estimate implements PlantHandle.
func (h *LocalHandle) Estimate(p *sim.Proc, spec *core.Spec) (core.Cost, *classad.Ad, error) {
	if err := h.roundTrip(p, "estimate"); err != nil {
		return core.Infeasible, nil, err
	}
	return h.Plant.Estimate(p, spec), h.Plant.ResourceAd(), nil
}

// Create implements PlantHandle.
func (h *LocalHandle) Create(p *sim.Proc, id core.VMID, spec *core.Spec) (*classad.Ad, error) {
	if err := h.roundTrip(p, "create"); err != nil {
		return nil, err
	}
	ad, err := h.Plant.Create(p, id, spec)
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
	ad, ok := h.Plant.Query(p, id)
	return ad, ok, nil
}

// List implements PlantHandle.
func (h *LocalHandle) List(p *sim.Proc) ([]core.VMID, error) {
	if err := h.roundTrip(p, "list"); err != nil {
		return nil, err
	}
	return h.Plant.VMIDs(), nil
}

// Collect implements PlantHandle.
func (h *LocalHandle) Collect(p *sim.Proc, id core.VMID) (bool, error) {
	if err := h.roundTrip(p, "collect"); err != nil {
		return false, err
	}
	if err := h.Plant.Collect(p, id); err != nil {
		// Distinguish "unknown VM" from plant-internal failures: the
		// shop treats unknown as found=false for routing recovery.
		if _, ok := h.Plant.VM(id); !ok {
			return false, nil
		}
		return true, err
	}
	return true, nil
}

// Publish implements PlantHandle.
func (h *LocalHandle) Publish(p *sim.Proc, id core.VMID, image string) error {
	if err := h.roundTrip(p, "publish"); err != nil {
		return err
	}
	return h.Plant.PublishImage(p, id, image)
}

// Lifecycle implements PlantHandle.
func (h *LocalHandle) Lifecycle(p *sim.Proc, id core.VMID, op string) error {
	if err := h.roundTrip(p, "lifecycle"); err != nil {
		return err
	}
	switch op {
	case proto.LifecycleSuspend:
		return h.Plant.SuspendVM(p, id)
	case proto.LifecycleResume:
		return h.Plant.ResumeVM(p, id)
	}
	return fmt.Errorf("shop: unknown lifecycle op %q", op)
}
