// Lazy-clone hydration: under vdisk.CloneByLazy the production line
// resumes a clone after copying only its private state (config, redo
// log, memory image) — the 2 GB of golden disk extents are NOT on the
// node yet. This file materializes them afterwards, two ways:
//
//   - a background hydrator (a virtual-time proc per lazy clone, one
//     running per plant at a time, oldest clone first) walks the
//     extents in order and copies each from the warehouse's NFS view to
//     the clone's local disk directory as a background transfer: it is
//     served only while no foreground transfer waits for the NFS
//     server's slots or the node's mount, and gives both back to one
//     that arrives (sim.Background);
//   - a demand fault: when the guest's action DAG writes a block whose
//     extent has not landed yet, the guest blocks and the touched extent
//     is copied synchronously on the faulting proc as a foreground
//     transfer, which no hydrator's copy delays. When the hydrator is
//     already copying that extent the guest promotes the rest of that
//     copy to the foreground instead, so it never waits on a transfer
//     that foreground traffic is starving.
//
// Every materialized extent re-checks the clone's integrity context
// (warehouse.VerifyClone), extending PR 5's epoch gate to late-arriving
// state: an image quarantined or repaired after the VM resumed must not
// have its suspect bytes land under a running guest.
package plant

import (
	"errors"
	"fmt"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
	"vmplants/internal/vdisk"
	"vmplants/internal/vmm"
	"vmplants/internal/warehouse"
)

// Per-extent hydration states.
const (
	hAbsent  = iota // not local; nobody is copying it
	hCopying        // a proc is copying it now
	hPresent        // local (or hydration failed — h.failed is the verdict)
)

// HydrationStats is one lazy clone's hydration record, appended to the
// plant's log when the last extent lands (or the hydration aborts).
type HydrationStats struct {
	VMID    core.VMID
	Extents int
	// DemandFaults is how many extents the guest touched before the
	// background hydrator reached them.
	DemandFaults int
	// Preemptions is how many times a foreground transfer took the
	// node's mount or an NFS server slot back from the background
	// hydrator — what explains a late CompleteSecs.
	Preemptions int
	// ResumeSecs is the creation's critical-path latency (VM usable);
	// CompleteSecs is when the last extent landed — both measured from
	// the creation's start, so their gap is what laziness moved off the
	// critical path.
	ResumeSecs   float64
	CompleteSecs float64
	// Aborted is true when the hydration ended without materializing
	// every extent (integrity failure or VM collected mid-hydration).
	Aborted bool
}

// hydration tracks one lazy clone's extent materialization. All fields
// are touched only by kernel procs (the hydrator, guest actions, and
// Collect runs on procs), so kernel serialization is the lock.
type hydration struct {
	pl   *Plant
	vm   *vmm.VM
	cctx *warehouse.CloneContext
	dir  string

	state   []int
	waiters [][]*sim.Proc
	left    int // extents not yet present

	start     time.Duration // virtual time hydration began (VM resumed)
	createdAt time.Duration // virtual time the creation started
	faulted   int
	// inFlight is the extent the hydrator is copying as a background
	// transfer, -1 when there is none (or a guest promoted it).
	inFlight  int
	cancelled bool
	failed    error     // sticky integrity failure; guest touches surface it
	proc      *sim.Proc // the hydrator, nil until the clone's turn comes
	logged    bool
}

// startHydration installs the demand-fault hook on a freshly resumed
// lazy clone and queues it for the plant's background hydrator.
func (pl *Plant) startHydration(p *sim.Proc, vm *vmm.VM, cctx *warehouse.CloneContext, createdAt time.Duration) *hydration {
	n := len(cctx.Image.ExtentPaths)
	h := &hydration{
		pl:        pl,
		vm:        vm,
		cctx:      cctx,
		dir:       "vms/" + string(vm.ID()) + "/",
		state:     make([]int, n),
		waiters:   make([][]*sim.Proc, n),
		left:      n,
		inFlight:  -1,
		start:     p.Now(),
		createdAt: createdAt,
	}
	vm.SetBlockTouchHook(h.touch)
	pl.mu.Lock()
	pl.live[vm.ID()] = h
	pl.mu.Unlock()
	pl.unhydrated = append(pl.unhydrated, h)
	pl.nextHydrator(p.Kernel())
	return h
}

// nextHydrator starts the hydrator of the longest-resumed clone still
// waiting for one, unless one is running: a plant hydrates its clones
// one after another. The node's mount serves one extent at a time
// whichever clone it belongs to, so a hydrator process per clone would
// finish no extent sooner; it would only keep a blocked process, and
// its coroutine, alive for every clone in the backlog.
func (pl *Plant) nextHydrator(k *sim.Kernel) {
	for !pl.hydrating && len(pl.unhydrated) > 0 {
		h := pl.unhydrated[0]
		pl.unhydrated[0] = nil
		pl.unhydrated = pl.unhydrated[1:]
		if h.cancelled || h.failed != nil {
			continue
		}
		pl.hydrating = true
		h.proc = k.Spawn(pl.name+"/hydrate/"+string(h.vm.ID()), func(p *sim.Proc) {
			h.run(p)
			pl.hydrating = false
			pl.nextHydrator(k)
		})
	}
}

// run is the background hydrator: extents are materialized in order,
// each a background transfer, so a batch of lazy clones takes from the
// NFS server and the node's mount only what creations leave idle.
func (h *hydration) run(p *sim.Proc) {
	for i := range h.state {
		// Brownout pauses background hydration at extent boundaries;
		// demand faults still copy synchronously (the guest is blocked on
		// them — that is foreground I/O).
		for h.pl.Brownout() && !h.cancelled && h.failed == nil {
			h.pl.brownoutPark(p)
		}
		if h.cancelled || h.failed != nil {
			return
		}
		if h.state[i] != hAbsent {
			continue // a demand fault got there first
		}
		h.state[i] = hCopying
		h.inFlight = i
		err := h.copyExtent(p, i, sim.Background)
		h.inFlight = -1
		if errors.Is(err, storage.ErrInterrupted) {
			return // cancelled mid-copy: nothing landed
		}
		h.land(p, i, err, false)
	}
}

// touch is the guest's pre-write hook: resolve the touched block to its
// extent and block the guest until that extent is local, copying it on
// demand when the background hydrator has not reached it yet.
func (h *hydration) touch(p *sim.Proc, block int64) error {
	blocks := h.vm.Disk().Base().SizeBytes() / vdisk.BlockSize
	i := int(block * int64(len(h.state)) / blocks)
	if i >= len(h.state) {
		i = len(h.state) - 1
	}
	for {
		if h.failed != nil {
			return h.failed
		}
		switch h.state[i] {
		case hPresent:
			return nil
		case hCopying:
			// The background hydrator (or another guest proc) is on it:
			// park until it lands and re-check. The hydrator's copy yields
			// to every foreground transfer, and now a guest waits on it:
			// the rest of it is foreground work.
			if h.inFlight == i {
				h.inFlight = -1
				h.proc.Interrupt(true)
			}
			h.waiters[i] = append(h.waiters[i], p)
			p.Wait(time.Hour)
		case hAbsent:
			// Demand fault: claim the extent and copy it on this proc —
			// the guest pays the foreground I/O, like a page fault.
			h.state[i] = hCopying
			h.faulted++
			h.pl.mDemandFaults.Inc()
			err := h.copyExtent(p, i, sim.Foreground)
			h.land(p, i, err, true)
			if err != nil {
				return err
			}
			return nil
		}
	}
}

// copyExtent streams one extent from the warehouse's NFS view to the
// clone's local directory and re-checks the clone's integrity context:
// state arriving after the resume must pass the same epoch gate the
// eager copy passed before it.
func (h *hydration) copyExtent(p *sim.Proc, i int, class sim.Class) error {
	node := h.vm.Node()
	src := h.cctx.Image.ExtentPaths[i]
	dst := fmt.Sprintf("%sdisk-s%03d.vmdk", h.dir, i)
	if _, err := node.Warehouse().CopyTo(p, src, node.LocalDisk(), dst, node.Jitter(), class); err != nil {
		return fmt.Errorf("hydrate extent %d: %w", i, err)
	}
	if err := h.pl.wh.VerifyClone(h.cctx); err != nil {
		return fmt.Errorf("hydrate extent %d: %w", i, err)
	}
	return nil
}

// land settles one extent copy: success marks it present and records
// the lag; failure poisons the whole hydration (the image went suspect
// under us — no further extents may land, and guest touches fail).
// Either way every parked waiter is woken to re-check.
func (h *hydration) land(p *sim.Proc, i int, err error, demand bool) {
	if err != nil {
		h.failed = err
		h.state[i] = hPresent // settled — nobody else should copy it
		h.finish(p, true)
	} else {
		h.state[i] = hPresent
		h.left--
		h.pl.mHydratedExtents.Inc()
		if !demand {
			h.pl.hHydrationLag.Observe((p.Now() - h.start).Seconds())
		}
		if h.left == 0 {
			h.finish(p, false)
		}
	}
	for _, w := range h.waiters[i] {
		w.WakeUp()
	}
	h.waiters[i] = nil
}

// finish closes out the hydration record exactly once.
func (h *hydration) finish(p *sim.Proc, aborted bool) {
	if h.logged {
		return
	}
	h.logged = true
	if aborted {
		h.pl.mHydrationAborts.Inc()
	}
	complete := (p.Now() - h.createdAt).Seconds()
	h.pl.hHydrationComplete.Observe(complete)
	// Resolved here and not in New: only a plant that clones lazily
	// exports the counter.
	preemptions := 0
	if h.proc != nil {
		preemptions = h.proc.Preemptions()
	}
	h.pl.tel.Counter("plant.hydration_preemptions").Add(int64(preemptions))
	h.pl.mu.Lock()
	h.pl.hydrations = append(h.pl.hydrations, HydrationStats{
		VMID:         h.vm.ID(),
		Extents:      len(h.state),
		DemandFaults: h.faulted,
		Preemptions:  preemptions,
		ResumeSecs:   (h.start - h.createdAt).Seconds(),
		CompleteSecs: complete,
		Aborted:      aborted,
	})
	h.pl.mu.Unlock()
}

// cancel stops the hydration (VM collected, creation failed): the
// background hydrator drops the copy it is queued for or in the middle
// of — nothing of it lands, and it holds no place in any device's queue
// — and exits; parked guest procs are woken into the sticky error.
func (h *hydration) cancel(p *sim.Proc) {
	if h.cancelled {
		return
	}
	h.cancelled = true
	h.pl.mu.Lock()
	delete(h.pl.live, h.vm.ID())
	h.pl.mu.Unlock()
	if h.failed == nil && h.left > 0 {
		h.failed = fmt.Errorf("hydration cancelled: VM %s collected", h.vm.ID())
		h.finish(p, true)
	}
	for i, ws := range h.waiters {
		for _, w := range ws {
			w.WakeUp()
		}
		h.waiters[i] = nil
	}
	if h.proc != nil {
		h.proc.Interrupt(false)
	}
}

// Done reports whether every extent is local (false after an abort).
func (h *hydration) Done() bool { return h.left == 0 && h.failed == nil }

// HydrationLog returns a copy of the plant's completed hydration
// records.
func (pl *Plant) HydrationLog() []HydrationStats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return append([]HydrationStats(nil), pl.hydrations...)
}

// AllHydrated reports whether every lazy clone the plant ever resumed
// finished hydrating (vacuously true without lazy cloning) — the
// experiment-side proof that laziness converges to the eager end state.
func (pl *Plant) AllHydrated() bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for _, hs := range pl.hydrations {
		if hs.Aborted {
			return false
		}
	}
	for _, h := range pl.live {
		if !h.Done() {
			return false
		}
	}
	return true
}
