package plant

import (
	"fmt"
	"sort"
	"time"

	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/journal"
	"vmplants/internal/sim"
	"vmplants/internal/vmm"
)

// The paper's §3.1 keeps only soft state in VMShop and the VM
// Information System precisely so the system can recover from daemon
// failures. This file is the plant half of that story: Crash models
// the management daemon dying — its soft state evaporates while the
// production line's VMs, the host-only switches, and the warehouse
// references survive on the host (the plant's host map) — and Recover
// models the restarted daemon rescanning that host state to rebuild
// the information system, cross-checked against the plant's journal
// when one is attached.

// Down reports whether the plant daemon is crashed. Transports check
// it before delivering calls.
func (pl *Plant) Down() bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.down
}

// SetJournal attaches the plant's event log: lifecycle events are
// journaled from now on, and Recover replays the log as a cross-check
// of its host scan — the same durability mechanism the shop and
// warehouse use, replacing the old copy-on-crash ledger.
func (pl *Plant) SetJournal(j *journal.Journal) { pl.jnl = j }

// journalVM appends a vm-created / vm-collected lifecycle event.
func (pl *Plant) journalVM(p *sim.Proc, id core.VMID, created bool) {
	if pl.jnl == nil {
		return
	}
	kind := journal.VMCollected
	if created {
		kind = journal.VMCreated
	}
	pl.jnl.AppendSync(p, journal.Record{
		Kind: kind, Key: string(id),
		Fields: map[string]string{"plant": pl.name},
	})
}

// Crash simulates the plant daemon dying. Subsequent calls through any
// transport fail until Recover runs. The VM Information System's
// classads are lost — they are soft state — while each VM keeps
// running on the host: nothing is copied anywhere, because the host
// map was maintained at creation time, not at crash time.
func (pl *Plant) Crash() {
	pl.mu.Lock()
	if pl.down {
		pl.mu.Unlock()
		return
	}
	pl.down = true
	pl.mu.Unlock()
	if pl.filler != nil {
		pl.filler.Interrupt() // the fill dies with the daemon
	}
	for _, id := range pl.info.IDs() {
		if r, ok := pl.info.get(id); ok {
			r.ad = nil // soft state dies with the daemon
		}
		pl.info.remove(id)
	}
	pl.mCrashes.Inc()
	pl.gActiveVMs.Set(0)
	if pl.jnl != nil {
		// Out-of-kernel observation of the death; the journal's unsynced
		// tail (none: lifecycle events are synced) dies with the daemon.
		pl.jnl.Crash()
		pl.jnl.Append(nil, journal.Record{Kind: journal.PlantCrash, Key: pl.name})
	}
}

// Recover restarts a crashed plant daemon: it rescans the host —
// running VMs, network assignments, image references — and rebuilds
// the VM Information System record by record, re-deriving each classad
// from the VM's runtime state. With a journal attached, the log is
// replayed first and its live set compared with the host scan; any
// disagreement is surfaced on the plant-recover record. It reports how
// many records were rebuilt. On a plant that never crashed it is a
// no-op.
func (pl *Plant) Recover(p *sim.Proc) (n int) {
	pl.mu.Lock()
	if !pl.down {
		pl.mu.Unlock()
		return 0
	}
	pl.down = false
	ids := make([]core.VMID, 0, len(pl.host))
	for id := range pl.host {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	recs := make([]*record, len(ids))
	for i, id := range ids {
		recs[i] = pl.host[id]
	}
	pl.mu.Unlock()

	sp := pl.tel.T().Start(p, "plant.recover").Set("plant", pl.name)
	defer func() {
		sp.SetInt("vms", int64(n))
		sp.End(p)
	}()
	// Journal replay: rebuild the set of VMs the log believes live
	// (created minus collected) to cross-check the host scan.
	mismatches := 0
	if pl.jnl != nil {
		live := make(map[core.VMID]bool)
		_, _ = pl.jnl.Replay(func(r journal.Record) error {
			liveVMs(live, r)
			return nil
		})
		// A mismatch is a VM on the host the log never saw created, or
		// one the log believes live that the host no longer has.
		for _, id := range ids {
			if live[id] {
				delete(live, id)
			} else {
				mismatches++
			}
		}
		mismatches += len(live)
	}
	// Daemon restart cost: process start plus a host-state scan.
	p.Sleep(sim.Seconds(0.5 * pl.node.Jitter()))
	for _, r := range recs {
		// Per-VM probe of the production line.
		p.Sleep(sim.Seconds(0.05 * pl.node.Jitter()))
		r.ad = pl.rebuildAd(p, r)
		pl.info.store(r)
		n++
	}
	pl.startFiller(p.Kernel()) // the fill resumes where the cache stands
	pl.mRecoveries.Inc()
	pl.gActiveVMs.Set(int64(pl.info.Count()))
	if pl.jnl != nil {
		pl.jnl.AppendSync(p, journal.Record{
			Kind: journal.PlantRecover, Key: pl.name,
			Fields: map[string]string{
				"vms":        fmt.Sprint(n),
				"mismatches": fmt.Sprint(mismatches),
			},
		})
	}
	return n
}

// liveVMs folds one record into the set of VMs a plant journal
// believes live: created minus collected, every other kind ignored.
// Recover builds the set to cross-check the host scan and drops it: the
// host map, not the journal, is the plant's authority (ARCHITECTURE.md,
// "Durability & crash recovery"), so the plant keeps no live ledger.
func liveVMs(live map[core.VMID]bool, r journal.Record) {
	switch r.Kind {
	case journal.VMCreated:
		live[core.VMID(r.Key)] = true
	case journal.VMCollected:
		delete(live, core.VMID(r.Key))
	}
}

// rebuildAd re-derives a VM's classad from runtime state after a crash.
// Everything observable on the host comes back — identity, hardware,
// network, outputs, golden lineage. What only the dead daemon knew
// (clone latency, match counts) is gone, which is the honest shape of
// soft-state recovery; a Recovered marker says so.
func (pl *Plant) rebuildAd(p *sim.Proc, r *record) *classad.Ad {
	vm := r.vm
	hw := vm.Hardware()
	state := "suspended"
	if vm.State() == vmm.Running {
		state = core.StateRunning.String()
	}
	ad := classad.New().
		SetString(core.AttrVMID, string(vm.ID())).
		SetString(core.AttrName, vm.Name()).
		SetString(core.AttrState, state).
		SetInt(core.AttrMemoryMB, int64(hw.MemoryMB)).
		SetInt(core.AttrDiskMB, int64(hw.DiskMB)).
		SetString(core.AttrArch, hw.Arch).
		SetString(core.AttrDomain, r.domain).
		SetString(core.AttrPlant, pl.name).
		SetString(core.AttrBackend, vm.Backend()).
		SetInt(core.AttrCreatedAt, int64(r.createdAt/time.Second)).
		SetString("Recovered", "true")
	if net := vm.Network(); net != nil {
		ad.SetString(core.AttrNetwork, net.ID)
	}
	if r.golden != nil {
		ad.SetString(core.AttrGoldenImage, r.golden.Name)
	}
	if ip := vm.Guest().IP; ip != "" {
		ad.SetString(core.AttrIP, ip)
	}
	ad.SetString(core.AttrMAC, vm.MAC().String())
	for _, k := range sortedKeys(vm.Guest().Outputs) {
		ad.SetString("Out_"+sanitizeAttr(k), vm.Guest().Outputs[k])
	}
	ad.SetInt(core.AttrUptimeSecs, int64((p.Now()-r.createdAt)/time.Second))
	return ad.Freeze()
}
