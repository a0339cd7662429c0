package plant

import (
	"sort"
	"time"

	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/sim"
	"vmplants/internal/vmm"
	"vmplants/internal/warehouse"
)

// record is one VM tracked by the plant's information system.
type record struct {
	vm *vmm.VM
	// ad is a frozen snapshot: a change of state replaces it, so an ad
	// already handed out never changes under its reader.
	ad        *classad.Ad
	domain    string
	golden    *warehouse.Image // the image this VM's disk links into
	createdAt time.Duration    // virtual time of creation
}

// InfoSystem is the VM Information System of Figure 2: it "maintains
// state about currently active machines (including dynamic information
// gathered by a VM monitor)". Classads live here, not in the shop.
type InfoSystem struct {
	records map[core.VMID]*record
}

// NewInfoSystem returns an empty information system.
func NewInfoSystem() *InfoSystem {
	return &InfoSystem{records: make(map[core.VMID]*record)}
}

// store registers a newly created VM.
func (is *InfoSystem) store(r *record) {
	is.records[r.vm.ID()] = r
}

// get looks a VM up.
func (is *InfoSystem) get(id core.VMID) (*record, bool) {
	r, ok := is.records[id]
	return r, ok
}

// remove drops a collected VM.
func (is *InfoSystem) remove(id core.VMID) {
	delete(is.records, id)
}

// Count reports active VMs.
func (is *InfoSystem) Count() int { return len(is.records) }

// IDs returns active VM IDs, sorted.
func (is *InfoSystem) IDs() []core.VMID {
	out := make([]core.VMID, 0, len(is.records))
	for id := range is.records {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Monitor is the plant's VM monitor process body: it periodically
// refreshes each active VM's dynamic classad attributes (CPU load,
// uptime). Run it with kernel.Spawn; it performs at most ticks
// iterations so that bounded simulations quiesce. Only plant_test runs
// it: no scenario spawns it, and vmplantd's kernel runs to quiescence
// per request, so a periodic process has nowhere to live there.
func (pl *Plant) Monitor(interval time.Duration, ticks int) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		for i := 0; i < ticks; i++ {
			p.Sleep(interval)
			pl.MonitorTick(p)
		}
	}
}

// MonitorTick performs one monitor pass over all active VMs.
func (pl *Plant) MonitorTick(p *sim.Proc) {
	for _, id := range pl.info.IDs() {
		r, ok := pl.info.get(id)
		if !ok {
			continue
		}
		// CPU load: a stationary noisy signal per VM; enough dynamics to
		// exercise update-and-query paths.
		load := pl.rng.LogNormalMean(0.3, 0.5)
		if load > 1 {
			load = 1
		}
		r.ad = r.ad.With(core.AttrCPULoad, classad.Real(load)).
			With(core.AttrUptimeSecs, classad.Int(int64((p.Now()-r.createdAt)/time.Second)))
	}
}
