// Safe drain and retirement: the shop-side half of the elastic fleet.
//
// Draining takes a plant out of the bidding rotation without dropping a
// single creation: a drain-begin record is synced before any side
// effect, the plant stops bidding (shop-side eligibility filter plus
// the plant's own Draining classad marker), dispatches already in
// flight finish normally, and the hosted VMs are migrated to the
// remaining plants — or awaited, when migration is refused (a lazy
// clone still hydrating, a suspended VM) — before a retirement record
// makes the exit durable. The two journal records bracket the protocol
// so a shop killed mid-drain resumes it on restart instead of
// forgetting it, and replay removes retired plants from the candidate
// set before any intent is reconciled or re-driven: a retired plant can
// never be routed to again.
package shop

import (
	"fmt"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/journal"
	"vmplants/internal/sim"
)

// Drainable is the optional capability of plant handles whose plant can
// be told to stop bidding. LocalHandle implements it; remote handles
// without it still drain correctly — the shop-side eligibility filter
// and dispatch recheck carry the protocol alone, the plant just keeps
// advertising until its ad expires.
type Drainable interface {
	// SetDraining marks (or unmarks) the plant as draining.
	SetDraining(on bool)
	// Retire marks the plant permanently retired.
	Retire()
}

// LivenessProbe is the optional capability of plant handles that can
// answer "is the daemon up right now?" without a round trip — the
// dispatch-time recheck that catches bids gone stale when a plant
// crashed after bidding.
type LivenessProbe interface {
	Alive() bool
}

// Migrator is the optional capability of plant handles that can move a
// hosted VM to another plant (both in-process under the simulation
// kernel). Drains on handles without it simply await their VMs instead
// of migrating them.
type Migrator interface {
	MigrateVM(p *sim.Proc, id core.VMID, dst PlantHandle) error
}

// drainPoll is how often a drain re-checks for in-flight work and
// unmigratable VMs while waiting them out.
const drainPoll = time.Second

// plantByName finds a wired plant handle, including one already
// draining (a drain must keep reaching the plant it is emptying). The
// ledger holds names; this is how a name becomes a handle again.
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

// Draining reports whether the named plant is draining (or retired).
func (s *Shop) Draining(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.led.Draining(name)
}

// Retired reports whether the named plant has been retired.
func (s *Shop) Retired(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.led.Retired(name)
}

// eligiblePlants is the candidate set for a bidding round: every wired
// plant that is neither draining nor retired.
func (s *Shop) eligiblePlants() []PlantHandle {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PlantHandle, 0, len(s.plants))
	for _, h := range s.plants {
		if !s.led.Draining(h.Name()) {
			out = append(out, h)
		}
	}
	return out
}

// dispatchOK is the moment-of-dispatch recheck: a bid was collected at
// round start, but the plant may have begun draining — or died — since.
// Dispatching anyway would either park a fresh creation on a plant
// trying to empty itself or burn a call timeout on a corpse; the caller
// skips the stale bid and re-picks instead.
func (s *Shop) dispatchOK(h PlantHandle) bool {
	if s.Draining(h.Name()) {
		return false
	}
	if probe, ok := h.(LivenessProbe); ok && !probe.Alive() {
		return false
	}
	return true
}

// BeginDrain starts draining the named plant: the drain-begin record is
// synced before any side effect, so a daemon killed at any later point
// resumes the drain on restart. Idempotent — re-beginning an open drain
// (the restart path) neither re-journals nor errors.
func (s *Shop) BeginDrain(p *sim.Proc, name string) error {
	if s.down {
		return ErrShopDown
	}
	h := s.plantByName(name)
	if h == nil {
		return fmt.Errorf("shop %s: no plant %s to drain", s.name, name)
	}
	if s.Retired(name) {
		return fmt.Errorf("shop %s: plant %s already retired", s.name, name)
	}
	if s.Draining(name) {
		return nil
	}
	s.record(p, true, journal.Record{Kind: journal.PlantDrainBegin, Key: name})
	if d, ok := h.(Drainable); ok {
		d.SetDraining(true)
	}
	s.mDrains.Inc()
	return nil
}

// DrainAndRetire runs the full drain protocol on the named plant:
// drain-begin, wait out in-flight dispatches, migrate (or await) every
// hosted VM, then sync the retirement record and remove the plant from
// the fleet. Blocks in virtual time until the plant is empty. The
// "drain" chaos point sits right after the begin record — the widest
// crash window, which the restart-time drain resume must close.
func (s *Shop) DrainAndRetire(p *sim.Proc, name string) error {
	if err := s.BeginDrain(p, name); err != nil {
		return err
	}
	// Chaos point: the daemon dies with the drain open. Restart replays
	// the drain-begin record and ResumeDrains finishes the job.
	if s.killIf("drain") {
		return ErrShopDown
	}
	return s.finishDrain(p, name)
}

// OpenDrains lists plants whose drain began but whose retirement record
// never landed — the drains a restarted shop must resume.
func (s *Shop) OpenDrains() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	open, _ := s.led.Exits()
	return open
}

// ResumeDrains finishes every open drain — the restart-time
// continuation of DrainAndRetire calls the crash interrupted.
func (s *Shop) ResumeDrains(p *sim.Proc) error {
	for _, name := range s.OpenDrains() {
		if err := s.finishDrain(p, name); err != nil {
			return err
		}
	}
	return nil
}

// finishDrain is the back half of the protocol: empty the plant, then
// retire it durably.
func (s *Shop) finishDrain(p *sim.Proc, name string) error {
	if s.Retired(name) {
		return nil // another drainer already finished the job
	}
	h := s.plantByName(name)
	if h == nil {
		return fmt.Errorf("shop %s: no plant %s to drain", s.name, name)
	}
	// In-flight dispatches (orders handed to the plant before the drain
	// began) run to completion; the plant accepts them, it only refuses
	// new ones.
	for s.inflightOf(name) > 0 {
		if s.down {
			return ErrShopDown
		}
		p.Sleep(drainPoll)
	}
	// Evacuate: every VM routed to the draining plant is migrated to an
	// eligible plant. A refused migration (destination full, lazy clone
	// still hydrating, suspended VM) is awaited and retried — hydration
	// lands, clients collect, capacity frees — so the loop always makes
	// progress in virtual time without ever abandoning a VM.
	for {
		if s.down {
			return ErrShopDown
		}
		ids := s.routedTo(name)
		if len(ids) == 0 {
			break
		}
		moved := false
		for _, id := range ids {
			dst := s.migrationTarget(h)
			m, ok := h.(Migrator)
			if !ok || dst == nil {
				continue // no way to move it: await collection
			}
			if err := m.MigrateVM(p, id, dst); err != nil {
				continue // refused now; retry next pass
			}
			// The one place that applies before it persists: the VM has
			// already moved, so the live route flips before the sync
			// parks this proc — a Query or Destroy arriving meanwhile must
			// not be sent to the plant the VM just left. The sync still
			// comes before the retirement record: that must never be
			// durable while a route points at the retiring plant.
			rec := routeRecord(id, dst.Name())
			s.apply(rec)
			s.persist(p, true, rec)
			s.mMigratedVMs.Inc()
			moved = true
		}
		if !moved {
			p.Sleep(drainPoll)
		}
	}
	// The plant is empty and invisible to new work: make the exit
	// durable, then drop it from the fleet. Replay of this record strips
	// the plant from every restart's candidate set before reconciliation
	// runs, so nothing can ever be routed to it again. A concurrent
	// drainer of the same plant may have retired it while this one slept
	// in the evacuation loop — exactly one retirement record lands.
	if s.Retired(name) {
		return nil
	}
	s.record(p, true, journal.Record{Kind: journal.PlantRetired, Key: name})
	s.plants = without(s.plants, h)
	if d, ok := h.(Drainable); ok {
		d.Retire()
	}
	s.mRetires.Inc()
	return nil
}

// AddPlant wires a new plant into the fleet — the scale-up half of
// elasticity. A name collision with a wired or retired plant is
// refused: retirement is forever, and the journal's drain records are
// keyed by name.
func (s *Shop) AddPlant(h PlantHandle) error {
	name := h.Name()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.led.Retired(name) {
		return fmt.Errorf("shop %s: plant name %s is retired", s.name, name)
	}
	for _, cur := range s.plants {
		if cur.Name() == name {
			return fmt.Errorf("shop %s: plant %s already wired", s.name, name)
		}
	}
	s.plants = append(s.plants, h)
	return nil
}

// inflightOf reads one plant's dispatched-not-done count.
func (s *Shop) inflightOf(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight[name]
}

// routedTo lists the VMs the shop routes to the named plant, in VMID
// order for deterministic migration order.
func (s *Shop) routedTo(name string) []core.VMID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.led.RoutedTo(name)
}

// migrationTarget picks where an evacuated VM goes: the eligible,
// reachable plant with the fewest VMs routed to it (name-ordered ties),
// spreading the refugees instead of dumping them on one node.
func (s *Shop) migrationTarget(from PlantHandle) PlantHandle {
	var best PlantHandle
	bestLoad := 0
	for _, h := range s.eligiblePlants() {
		if h == from {
			continue
		}
		if probe, ok := h.(LivenessProbe); ok && !probe.Alive() {
			continue
		}
		load := len(s.routedTo(h.Name()))
		if best == nil || load < bestLoad || (load == bestLoad && h.Name() < best.Name()) {
			best, bestLoad = h, load
		}
	}
	return best
}
