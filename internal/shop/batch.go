package shop

import (
	"fmt"

	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/sim"
)

// The batched creation pipeline: CreateMany fans a batch of requests
// out over a bounded pool of worker processes, each running the full
// bid/dispatch/create flow concurrently in virtual time. Bidding rounds
// of different requests overlap with clone I/O of earlier ones, and
// per-plant admission control (the CloneSlots attribute plants
// advertise, tracked against the shop's own in-flight ledger) steers
// winners away from saturated plants so the batch spreads across the
// cluster instead of piling onto the one cheapest bidder.

// BatchResult is one request's outcome within a batch.
type BatchResult struct {
	// Index is the request's position in the specs slice.
	Index int
	VMID  core.VMID
	Ad    *classad.Ad
	Err   error
	// WaitSecs is the virtual time the request sat queued before a
	// worker picked it up.
	WaitSecs float64
}

// CreateMany creates a batch of VMs through the concurrent pipeline and
// returns per-request results in input order. A single-request batch
// takes the plain Create path inline, so it is byte-identical to a
// serial Create of the same spec under the same seed.
func (s *Shop) CreateMany(p *sim.Proc, specs []*core.Spec) []BatchResult {
	results := make([]BatchResult, len(specs))
	if len(specs) == 0 {
		return results
	}
	if len(specs) == 1 {
		id, ad, err := s.Create(p, specs[0])
		results[0] = BatchResult{VMID: id, Ad: ad, Err: err}
		return results
	}
	// Twice the plant count bounds how many creations are driven
	// concurrently: enough to keep every plant's admission slots fed
	// without flooding bidding rounds.
	workers := 2 * len(s.plants)
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers < 1 {
		workers = 1
	}
	sp := s.tel.T().Start(p, "shop.batch_create").
		Set("shop", s.name).
		SetInt("requests", int64(len(specs))).
		SetInt("workers", int64(workers))

	// Shared dispatch state. Workers are kernel processes: exactly one
	// runs at a time and claim/advance happens without an intervening
	// yield, so plain ints are safe and the claim order — hence the
	// whole run — is deterministic.
	queued := p.Now()
	next, done := 0, 0
	client := p
	s.gBatchQueue.Set(int64(len(specs)))
	for w := 0; w < workers; w++ {
		p.Kernel().Spawn(fmt.Sprintf("%s/batch-worker-%d", s.name, w), func(wp *sim.Proc) {
			for {
				if next >= len(specs) {
					return
				}
				i := next
				next++
				s.gBatchQueue.Set(int64(len(specs) - next))
				wait := (wp.Now() - queued).Seconds()
				s.hBatchWait.Observe(wait)
				id, ad, err := s.Create(wp, specs[i])
				results[i] = BatchResult{Index: i, VMID: id, Ad: ad, Err: err, WaitSecs: wait}
				done++
				client.WakeUp()
			}
		})
	}
	for done < len(specs) {
		p.Wait(-1)
	}
	sp.End(p)
	return results
}

// noteDispatch records that a creation order is in flight on the named
// plant; the returned function retires it. The ledger backs the
// admission-aware winner filter in pickWinner.
func (s *Shop) noteDispatch(plant string) func() {
	s.adjustInflight(plant, +1)
	return func() { s.adjustInflight(plant, -1) }
}

func (s *Shop) adjustInflight(plant string, by int) {
	s.mu.Lock()
	s.inflight[plant] += by
	if s.inflight[plant] <= 0 {
		delete(s.inflight, plant)
	}
	total := 0
	for _, n := range s.inflight {
		total += n
	}
	s.mu.Unlock()
	s.gInflight.Set(int64(total))
}

// InflightByPlant snapshots the shop's in-flight creation ledger.
func (s *Shop) InflightByPlant() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.inflight))
	for n, c := range s.inflight {
		out[n] = c
	}
	return out
}

// admissible filters bids down to plants with a free advertised clone
// slot. Bids that don't advertise CloneSlots (older plants) are never
// filtered. With nothing in flight the filter passes every bid, so the
// serial path draws from exactly the pre-pipeline candidate set.
func (s *Shop) admissible(feasible []bid[PlantHandle]) []bid[PlantHandle] {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []bid[PlantHandle]
	for _, b := range feasible {
		if b.slots <= 0 || s.inflight[b.h.Name()] < b.slots {
			out = append(out, b)
		}
	}
	return out
}
