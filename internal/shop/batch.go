package shop

import (
	"fmt"

	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/sim"
)

// BatchResult is one request's outcome within a batch.
type BatchResult struct {
	// Index is the request's position in the specs slice.
	Index int
	VMID  core.VMID
	Ad    *classad.Ad
	Err   error
}

// CreateMany creates a batch of VMs as that many concurrent Creates, one
// process per spec, and returns their results in input order. A batch
// has no queue of its own: the admission gate, when set, is its only
// queue, so specs beyond MaxInflight + MaxQueue are shed with the
// retryable ErrOverload, as a burst of single creations would be. The
// plants' clone slots and pickWinner's clone-slot filter bound the rest.
func (s *Shop) CreateMany(p *sim.Proc, specs []*core.Spec) []BatchResult {
	results := make([]BatchResult, len(specs))
	sp := s.tel.T().Start(p, "shop.batch_create").Set("shop", s.name).SetInt("requests", int64(len(specs)))
	// Creations are kernel processes: exactly one runs at a time, so a
	// plain counter is safe.
	pending := len(specs)
	for i, spec := range specs {
		p.Kernel().Spawn(fmt.Sprintf("%s/create-%d", s.name, i), func(cp *sim.Proc) {
			id, ad, err := s.Create(cp, spec)
			results[i] = BatchResult{Index: i, VMID: id, Ad: ad, Err: err}
			pending--
			p.WakeUp()
		})
	}
	for pending > 0 {
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
