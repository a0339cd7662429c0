package shop

import (
	"math/rand"
	"testing"

	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/plant"
	"vmplants/internal/sim"
)

// pickByAppending is the winner pick as it was written before it picked
// in place: the admissible bids appended to a slice, the cheapest of
// them (or of every bid, when none is admissible) appended to another,
// and one draw among those.
func pickByAppending(rng *sim.RNG, inflight map[string]int, feasible []bid[PlantHandle]) PlantHandle {
	var open []bid[PlantHandle]
	for _, b := range feasible {
		if b.slots <= 0 || inflight[b.h.Name()] < b.slots {
			open = append(open, b)
		}
	}
	if len(open) == 0 {
		open = feasible
	}
	best := open[0].c
	for _, b := range open[1:] {
		if b.c < best {
			best = b.c
		}
	}
	var winners []PlantHandle
	for _, b := range open {
		if b.c == best {
			winners = append(winners, b.h)
		}
	}
	return winners[rng.Intn(len(winners))]
}

// eightBids is an 8-plant deployment's handles as bids, prices drawn
// from a few levels so that ties are common.
func eightBids(t *testing.T, rng *rand.Rand) (*deployment, []bid[PlantHandle]) {
	d := newDeployment(t, 8, plant.Config{})
	bids := make([]bid[PlantHandle], len(d.handles))
	for i, h := range d.handles {
		bids[i] = bid[PlantHandle]{h: h, c: core.Cost(rng.Intn(3)), slots: rng.Intn(3)}
	}
	return d, bids
}

// TestPickWinnerMatchesAppendingPick holds the in-place pick to the
// appending one on random rounds: the same winner from the same RNG
// stream, draw for draw, with and without orders in flight.
func TestPickWinnerMatchesAppendingPick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d, _ := eightBids(t, rng)
	s := d.shop
	oracle := sim.NewRNG(1234) // the seed newDeployment gives the shop
	for round := 0; round < 2000; round++ {
		feasible := make([]bid[PlantHandle], 1+rng.Intn(len(d.handles)))
		for i := range feasible {
			feasible[i] = bid[PlantHandle]{h: d.handles[rng.Intn(len(d.handles))], c: core.Cost(rng.Intn(3)), slots: rng.Intn(3)}
		}
		clear(s.inflight)
		for _, h := range d.handles {
			if n := rng.Intn(3); n > 0 {
				s.inflight[h.Name()] = n
			}
		}
		want := pickByAppending(oracle, s.inflight, feasible)
		if got := s.pickWinner(feasible); got != want {
			t.Fatalf("round %d: picked %s, the appending pick %s", round, got.Name(), want.Name())
		}
	}
}

// TestPickWinnerAllocatesNothing: picking among 8 bids, some of them
// set aside for their clone slots, allocates nothing.
func TestPickWinnerAllocatesNothing(t *testing.T) {
	d, bids := eightBids(t, rand.New(rand.NewSource(2)))
	d.shop.inflight[d.handles[0].Name()] = 1
	if got := testing.AllocsPerRun(100, func() { d.shop.pickWinner(bids) }); got != 0 {
		t.Errorf("pickWinner over 8 bids: %v allocations, want 0", got)
	}
}

// winnerSink keeps BenchmarkBidRound's result live.
var winnerSink PlantHandle

// BenchmarkBidRound is one in-process bidding round among 8 plants —
// estimates with their resource ads, matchmaking, the winner pick —
// with nothing else of a creation around it.
func BenchmarkBidRound(b *testing.B) {
	d := newDeployment(b, 8, plant.Config{})
	spec := wsSpec(b, "bench", "ufl.edu")
	reqAd, err := requestAd(spec)
	if err != nil {
		b.Fatal(err)
	}
	round := d.shop.plants
	b.ReportAllocs()
	d.k.Spawn("bench", func(p *sim.Proc) {
		b.ResetTimer()
		for range b.N {
			winnerSink = d.shop.pickWinner(d.shop.collectBids(p, round, spec, reqAd, nil))
		}
		b.StopTimer()
	})
	d.k.Run(0)
}

// decodingHandle hands out what a wire transport does: a fresh,
// writable ad per reply, decoded from the plant's.
type decodingHandle struct{ *LocalHandle }

func (h decodingHandle) Create(p *sim.Proc, id core.VMID, spec *core.Spec) (*classad.Ad, error) {
	ad, err := h.LocalHandle.Create(p, id, spec)
	if ad != nil {
		ad = ad.Clone()
	}
	return ad, err
}

func (h decodingHandle) Query(p *sim.Proc, id core.VMID) (*classad.Ad, bool, error) {
	ad, found, err := h.LocalHandle.Query(p, id)
	if ad != nil {
		ad = ad.Clone()
	}
	return ad, found, err
}

// TestShopServesFrozenAds: the ads the shop hands out — a creation's,
// a query's, one served from its cache while the plant is down — are
// snapshots a setter cannot edit, frozen by the shop even when the
// transport decoded them fresh. A Clone is the reader's own.
func TestShopServesFrozenAds(t *testing.T) {
	d := newDeployment(t, 1, plant.Config{})
	s := New("shop", []PlantHandle{decodingHandle{d.handles[0]}}, 1234)
	s.CacheAds = true
	d.run(t, func(p *sim.Proc) {
		id, created, err := s.Create(p, wsSpec(t, "u1", "ufl.edu"))
		if err != nil {
			t.Fatal(err)
		}
		queried, err := s.Query(p, id)
		if err != nil {
			t.Fatal(err)
		}
		d.handles[0].Down = true
		cached, err := s.Query(p, id)
		if err != nil {
			t.Fatal(err)
		}
		if cached != queried {
			t.Error("the cache did not serve the ad it keeps")
		}
		for what, ad := range map[string]*classad.Ad{"Create": created, "Query": queried, "cache": cached} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: a setter edited the served ad", what)
					}
				}()
				ad.SetString(core.AttrState, "edited")
			}()
			if c := ad.Clone().SetString(core.AttrState, "edited"); c.GetString(core.AttrState, "") != "edited" {
				t.Errorf("%s: a clone is not writable", what)
			}
		}
	})
}
