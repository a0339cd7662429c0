package shop

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/journal"
	"vmplants/internal/plant"
	"vmplants/internal/sim"
)

func TestCreateManyAllSucceed(t *testing.T) {
	d := newDeployment(t, 4, plant.Config{MaxVMs: 32})
	specs := make([]*core.Spec, 12)
	for i := range specs {
		specs[i] = wsSpec(t, fmt.Sprintf("user%02d", i), "ufl.edu")
	}
	d.run(t, func(p *sim.Proc) {
		results := d.shop.CreateMany(p, specs)
		if len(results) != len(specs) {
			t.Fatalf("%d results for %d specs", len(results), len(specs))
		}
		seen := make(map[core.VMID]bool)
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("request %d: %v", i, r.Err)
			}
			if r.VMID == "" || seen[r.VMID] {
				t.Fatalf("request %d: bad or duplicate VMID %q", i, r.VMID)
			}
			seen[r.VMID] = true
			// Each VM is queryable afterwards — routes were recorded.
			if _, err := d.shop.Query(p, r.VMID); err != nil {
				t.Errorf("query %s: %v", r.VMID, err)
			}
		}
	})
	if got := d.shop.InflightByPlant(); len(got) != 0 {
		t.Errorf("in-flight ledger not drained: %v", got)
	}
}

// TestCreateManySpreadsLoad checks the admission-aware winner filter:
// under the free-memory cost model every idle plant bids the same, and
// a batch must land across plants rather than queuing on one.
func TestCreateManySpreadsLoad(t *testing.T) {
	d := newDeployment(t, 4, plant.Config{MaxVMs: 32, CloneSlots: 1})
	specs := make([]*core.Spec, 8)
	for i := range specs {
		specs[i] = wsSpec(t, fmt.Sprintf("user%02d", i), "ufl.edu")
	}
	d.run(t, func(p *sim.Proc) {
		for _, r := range d.shop.CreateMany(p, specs) {
			if r.Err != nil {
				t.Fatalf("batch create: %v", r.Err)
			}
		}
	})
	hosting := 0
	for _, pl := range d.plants {
		if pl.ActiveVMs() > 0 {
			hosting++
		}
	}
	if hosting < 2 {
		t.Errorf("batch of 8 landed on %d plant(s); admission filter should spread it", hosting)
	}
}

// TestCreateManySingleMatchesSerial is the shop-level determinism
// check: a one-element batch is one Create in a process of its own, so
// two same-seed deployments must hand out the same VMID and classad
// bytes, end at the same virtual time and audit the same bids.
func TestCreateManySingleMatchesSerial(t *testing.T) {
	render := func(batch bool) string {
		d := newDeployment(t, 4, plant.Config{MaxVMs: 32})
		var out string
		d.run(t, func(p *sim.Proc) {
			spec := wsSpec(t, "det", "ufl.edu")
			var id core.VMID
			var ad *classad.Ad
			var err error
			if batch {
				r := d.shop.CreateMany(p, []*core.Spec{spec})[0]
				id, ad, err = r.VMID, r.Ad, r.Err
			} else {
				id, ad, err = d.shop.Create(p, spec)
			}
			if err != nil {
				t.Fatalf("batch=%v: %v", batch, err)
			}
			out = fmt.Sprintf("id=%s end=%s\nad=%s", id, p.Now(), ad)
		})
		// fmt prints a map's keys sorted, so the bids render stably.
		for _, rec := range d.shop.Bids() {
			out += fmt.Sprintf("\nbid %+v", rec)
		}
		return out
	}
	serial, batch := render(false), render(true)
	if serial != batch {
		t.Errorf("serial and single-batch runs diverged:\n--- serial ---\n%s\n--- batch ---\n%s", serial, batch)
	}
}

func TestCreateManyEmptyAndErrors(t *testing.T) {
	d := newDeployment(t, 2, plant.Config{MaxVMs: 1})
	d.run(t, func(p *sim.Proc) {
		if got := d.shop.CreateMany(p, nil); len(got) != 0 {
			t.Errorf("empty batch returned %d results", len(got))
		}
		// 2 plants × MaxVMs 1: a batch of 4 can place at most 2.
		specs := make([]*core.Spec, 4)
		for i := range specs {
			specs[i] = wsSpec(t, fmt.Sprintf("cap%d", i), "ufl.edu")
		}
		ok, failed := 0, 0
		for _, r := range d.shop.CreateMany(p, specs) {
			if r.Err != nil {
				failed++
			} else {
				ok++
			}
		}
		if ok != 2 || failed != 2 {
			t.Errorf("ok=%d failed=%d, want 2/2 with 2 one-VM plants", ok, failed)
		}
	})
}

// frontDoorBatch runs a 16-spec batch on 4 plants behind an admission
// gate 4 wide with the given queue bound, sampling the gate's occupancy
// from a monitor process until the batch returns.
func frontDoorBatch(t *testing.T, maxQueue int) (d *deployment, specs []*core.Spec, results []BatchResult, peak int) {
	d = newDeployment(t, 4, plant.Config{MaxVMs: 32})
	d.shop.SetAdmission(AdmissionConfig{MaxInflight: 4, MaxQueue: maxQueue})
	journaled(d)
	specs = make([]*core.Spec, 16)
	for i := range specs {
		specs[i] = wsSpec(t, fmt.Sprintf("user%02d", i), "ufl.edu")
	}
	d.run(t, func(p *sim.Proc) {
		returned := false
		p.Kernel().Spawn("monitor", func(mp *sim.Proc) {
			for !returned {
				peak = max(peak, d.shop.gate.InUse())
				mp.Sleep(100 * time.Millisecond)
			}
		})
		results = d.shop.CreateMany(p, specs)
		returned = true
		if n := d.shop.gate.QueueLen(); n != 0 {
			t.Errorf("%d creations still queued at the gate after the batch returned", n)
		}
		if n := d.shop.gate.InUse(); n != 0 {
			t.Errorf("%d creations still hold a gate slot after the batch returned", n)
		}
	})
	return d, specs, results, peak
}

// TestCreateManyQueuesOnlyAtTheGate: a batch is admitted like that many
// concurrent Creates. The gate bounds how many run at once, every spec
// is served in input order, and the gate drains.
func TestCreateManyQueuesOnlyAtTheGate(t *testing.T) {
	_, specs, results, peak := frontDoorBatch(t, 64)
	if len(results) != len(specs) {
		t.Fatalf("%d results for %d specs", len(results), len(specs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if r.Index != i || r.Ad.GetString(core.AttrName, "") != specs[i].Name {
			t.Errorf("result %d is index %d, VM %q; want %q", i, r.Index, r.Ad.GetString(core.AttrName, ""), specs[i].Name)
		}
	}
	if peak != 4 {
		t.Errorf("peak in-flight creations %d, want the gate's 4", peak)
	}
}

// TestCreateManyShedsBeyondTheGate: with 4 slots and a queue of 2, a
// 16-spec batch sheds exactly 10, each with the retryable ErrOverload,
// and a shed spec builds and journals nothing.
func TestCreateManyShedsBeyondTheGate(t *testing.T) {
	d, _, results, _ := frontDoorBatch(t, 2)
	shed := 0
	for i, r := range results {
		if r.Err == nil {
			continue
		}
		if !errors.Is(r.Err, ErrOverload) || !errors.Is(r.Err, core.ErrTransient) {
			t.Errorf("request %d: %v, want a transient ErrOverload", i, r.Err)
		}
		if r.VMID != "" || r.Ad != nil {
			t.Errorf("shed request %d answered %q with an ad", i, r.VMID)
		}
		shed++
	}
	if shed != 10 {
		t.Errorf("%d specs shed, want 10 beyond MaxInflight 4 + MaxQueue 2", shed)
	}
	intents := 0
	for _, rec := range d.shop.Journal().Records() {
		if rec.Kind == journal.CreationIntent {
			intents++
		}
	}
	built := 0
	for _, pl := range d.plants {
		built += pl.ActiveVMs()
	}
	if intents != 6 || built != 6 {
		t.Errorf("%d intents journaled and %d VMs built, want 6 each", intents, built)
	}
}
