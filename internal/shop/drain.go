// Safe drain and retirement: the shop-side half of the elastic fleet.
//
// Draining takes a plant out of the bidding rotation without dropping a
// single creation, using only the shop's ledger and the four plant
// operations: a drain-begin record is synced before any side effect,
// the plant leaves every bidding round and every dispatch from then on,
// dispatches already in flight finish normally, and the drain waits
// until no creation is in flight to the plant and no VM is routed to it
// — its clients collect them — before a retirement record makes the exit
// durable. The plant itself is never told: the ledger is the one place
// that knows a plant is draining. The two journal records bracket the
// protocol so a shop killed mid-drain resumes it on restart instead of
// forgetting it, and replay removes retired plants from the candidate
// set before any intent is reconciled or re-driven: a retired plant can
// never be routed to again.
package shop

import (
	"fmt"
	"time"

	"vmplants/internal/journal"
	"vmplants/internal/sim"
)

// drainPoll is how often a drain re-checks for in-flight work and
// routed VMs while waiting them out.
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

// BeginDrain starts draining the named plant: the drain-begin record is
// synced before any side effect, so a daemon killed at any later point
// resumes the drain on restart. Idempotent — re-beginning an open drain
// (the restart path) neither re-journals nor errors.
func (s *Shop) BeginDrain(p *sim.Proc, name string) error {
	if s.down {
		return ErrShopDown
	}
	if s.plantByName(name) == nil {
		return fmt.Errorf("shop %s: no plant %s to drain", s.name, name)
	}
	if s.Retired(name) {
		return fmt.Errorf("shop %s: plant %s already retired", s.name, name)
	}
	if s.Draining(name) {
		return nil
	}
	s.record(p, true, journal.Record{Kind: journal.PlantDrainBegin, Key: name})
	s.mDrains.Inc()
	return nil
}

// DrainAndRetire runs the full drain protocol on the named plant:
// drain-begin, wait out in-flight dispatches and every VM routed to the
// plant, then sync the retirement record and remove the plant from the
// fleet. Blocks in virtual time until the plant's clients have
// collected its VMs. The "drain" chaos point sits right after the begin
// record — the widest crash window, which the restart-time drain resume
// must close.
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

// finishDrain is the back half of the protocol: wait until the plant
// has nothing in flight and no VM routed to it, then retire it durably.
func (s *Shop) finishDrain(p *sim.Proc, name string) error {
	if s.Retired(name) {
		return nil // another drainer already finished the job
	}
	h := s.plantByName(name)
	if h == nil {
		return fmt.Errorf("shop %s: no plant %s to drain", s.name, name)
	}
	for {
		if s.down {
			return ErrShopDown
		}
		if s.inflightOf(name) == 0 && s.RoutedVMs(name) == 0 {
			break
		}
		p.Sleep(drainPoll)
	}
	// The plant is empty and invisible to new work: make the exit
	// durable, then drop it from the fleet. Replay of this record strips
	// the plant from every restart's candidate set before reconciliation
	// runs, so nothing can ever be routed to it again. A concurrent
	// drainer of the same plant may have retired it while this one slept
	// — exactly one retirement record lands.
	if s.Retired(name) {
		return nil
	}
	s.record(p, true, journal.Record{Kind: journal.PlantRetired, Key: name})
	s.plants = without(s.plants, h)
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

// RoutedVMs counts the VMs the shop's ledger routes to the named plant:
// what a drain of it waits for its clients to collect.
func (s *Shop) RoutedVMs(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.led.RoutedCount(name)
}
