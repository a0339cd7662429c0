// Lazy-clone hydration: under vdisk.CloneByLazy a clone resumes with
// only its config and redo log copied and its memory image linked to the
// node's replica; the 2 GB of golden disk extents are NOT on the node
// yet. This file materializes them afterwards, post-copy style:
//
//   - a background hydrator (a virtual-time proc per lazy clone, one
//     running per plant at a time, oldest clone first) walks the
//     extents in order and copies each from the warehouse's NFS view to
//     the clone's local disk directory as a background transfer: it
//     takes only the bandwidth foreground transfers leave on the NFS
//     server, and none while one is on the node's mount
//     (sim.Background). It is the only thing that lands extents, so the
//     local ones are always a prefix;
//   - a demand fault: when the guest's action DAG writes a block whose
//     extent has not landed yet, the guest blocks for one foreground
//     read of that block (vdisk.BlockSize bytes) over the node's mount —
//     the bytes it needs, not the 128 MB extent around them, which still
//     arrives through the hydrator.
//
// Every extent landed and every block fetched re-checks the clone's
// integrity context (warehouse.VerifyClone), extending PR 5's epoch gate
// to late-arriving state: an image quarantined or repaired after the VM
// resumed must not have its suspect bytes land under a running guest.
package plant

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"vmplants/internal/cluster"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
	"vmplants/internal/telemetry"
	"vmplants/internal/vdisk"
	"vmplants/internal/vmm"
	"vmplants/internal/warehouse"
)

// hydration tracks one lazy clone's extent materialization. All fields
// are touched only by kernel procs (the hydrator, guest actions, and
// Collect runs on procs), so kernel serialization is the lock.
type hydration struct {
	pl   *Plant
	vm   *vmm.VM
	cctx *warehouse.CloneContext
	dir  string

	// landed is how many extents are local: extent i is iff i < landed.
	landed int
	// fetched holds the blocks demand faults read ahead of their extent.
	fetched []int64

	start     time.Duration   // virtual time hydration began (VM resumed)
	createdAt time.Duration   // virtual time the creation started
	cloneSp   *telemetry.Span // the creation's clone span, parent of "hydrate"
	cancelled bool
	failed    error     // sticky integrity failure; guest touches surface it
	proc      *sim.Proc // the hydrator, nil until the clone's turn comes
	finished  bool
}

// startHydration installs the demand-fault hook on a freshly resumed
// lazy clone and queues it for the plant's background hydrator.
func (pl *Plant) startHydration(p *sim.Proc, vm *vmm.VM, cctx *warehouse.CloneContext, createdAt time.Duration, cloneSp *telemetry.Span) *hydration {
	h := &hydration{
		pl:        pl,
		vm:        vm,
		cctx:      cctx,
		dir:       "vms/" + string(vm.ID()) + "/",
		start:     p.Now(),
		createdAt: createdAt,
		cloneSp:   cloneSp,
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

// extents is how many extents the clone's disk spans.
func (h *hydration) extents() int { return len(h.cctx.Image.ExtentPaths) }

// run is the background hydrator: extents are materialized in order,
// each a background transfer, so a batch of lazy clones takes from the
// NFS server and the node's mount only what creations leave idle.
func (h *hydration) run(p *sim.Proc) {
	for h.landed < h.extents() {
		if h.cancelled || h.failed != nil {
			return
		}
		err := h.copyExtent(p, h.landed)
		if errors.Is(err, storage.ErrInterrupted) {
			return // cancelled mid-copy: nothing landed
		}
		if err != nil {
			h.poison(p, err)
			return
		}
		h.landed++
		h.pl.mHydratedExtents.Inc()
		h.pl.hHydrationLag.Observe((p.Now() - h.start).Seconds())
	}
	h.finish(p)
}

// touch is the guest's pre-write hook: block the guest until the
// touched block is local, reading just that block on demand when the
// background hydrator has not landed its extent yet. Only the creating
// process's configure runs guest actions, so no two procs fault at once
// and nobody needs to wait for another's read.
func (h *hydration) touch(p *sim.Proc, block int64) error {
	if h.failed != nil {
		return h.failed
	}
	blocks := h.vm.Disk().Base().SizeBytes() / vdisk.BlockSize
	i := min(int(block*int64(h.extents())/blocks), h.extents()-1)
	if i < h.landed || slices.Contains(h.fetched, block) {
		return nil
	}
	node := h.vm.Node()
	if _, err := node.Warehouse().Stat(h.cctx.Image.ExtentPaths[i]); err != nil {
		return h.poison(p, fmt.Errorf("demand fault on extent %d: %w", i, err))
	}
	// Priced as CopyTo prices a copy: the mount (the bottleneck: 11 MB/s
	// against the local disk's 35) at its rate, then the local disk's
	// per-transfer overhead. Like the clone's config and redo copies, the
	// small read carries no state-I/O jitter, so it draws nothing from the
	// node's random stream.
	node.Warehouse().Charge(p, vdisk.BlockSize, 1, sim.Foreground)
	p.Sleep(cluster.LocalDiskOverhead)
	// The image may have been quarantined, or the VM collected, while the
	// read slept.
	if h.failed != nil {
		return h.failed
	}
	if err := h.pl.wh.VerifyClone(h.cctx); err != nil {
		return h.poison(p, fmt.Errorf("demand fault on extent %d: %w", i, err))
	}
	h.fetched = append(h.fetched, block)
	h.pl.mDemandFaults.Inc()
	return nil
}

// copyExtent streams one extent from the warehouse's NFS view to the
// clone's local directory and re-checks the clone's integrity context:
// state arriving after the resume must pass the same epoch gate the
// eager copy passed before it.
func (h *hydration) copyExtent(p *sim.Proc, i int) error {
	node := h.vm.Node()
	src := h.cctx.Image.ExtentPaths[i]
	dst := fmt.Sprintf("%sdisk-s%03d.vmdk", h.dir, i)
	if _, err := node.Warehouse().CopyTo(p, src, node.LocalDisk(), dst, node.Jitter(), sim.Background); err != nil {
		return fmt.Errorf("hydrate extent %d: %w", i, err)
	}
	h.vm.AddFile(dst)
	if err := h.pl.wh.VerifyClone(h.cctx); err != nil {
		return fmt.Errorf("hydrate extent %d: %w", i, err)
	}
	return nil
}

// poison makes err the hydration's verdict unless it already has one:
// no further extent lands, and every later guest touch fails with it.
// It returns the verdict.
func (h *hydration) poison(p *sim.Proc, err error) error {
	if h.failed == nil {
		h.failed = err
		h.finish(p)
	}
	return h.failed
}

// finish closes out the hydration exactly once, as a completion when
// every extent landed or as an abort when it has a verdict, and records
// its "hydrate" span: resume to the last extent landing or the abort.
func (h *hydration) finish(p *sim.Proc) {
	if h.finished {
		return
	}
	h.finished = true
	if h.failed != nil {
		h.pl.mHydrationAborts.Inc()
		h.pl.mu.Lock()
		h.pl.hydrationAborted = true
		h.pl.mu.Unlock()
	} else {
		h.pl.hHydrationComplete.Observe((p.Now() - h.createdAt).Seconds())
	}
	h.cloneSp.RecordChild("hydrate", h.start, p.Now(), h.failed,
		telemetry.Attr{Key: "vmid", Value: string(h.vm.ID())},
		telemetry.Attr{Key: "extents", Value: strconv.Itoa(h.extents())},
		telemetry.Attr{Key: "demand_faults", Value: strconv.Itoa(len(h.fetched))})
}

// cancel stops the hydration (VM collected, creation failed): the
// background hydrator drops the copy it is queued for or in the middle
// of — nothing of it lands, and it holds no place in any device's queue
// — and exits; a later guest touch gets the sticky error.
func (h *hydration) cancel(p *sim.Proc) {
	if h.cancelled {
		return
	}
	h.cancelled = true
	h.pl.mu.Lock()
	delete(h.pl.live, h.vm.ID())
	h.pl.mu.Unlock()
	if h.landed < h.extents() {
		h.poison(p, fmt.Errorf("hydration cancelled: VM %s collected", h.vm.ID()))
	}
	if h.proc != nil {
		h.proc.Interrupt()
	}
}

// Done reports whether every extent is local (false after an abort).
func (h *hydration) Done() bool { return h.landed == h.extents() && h.failed == nil }

// AllHydrated reports whether every lazy clone the plant ever resumed
// finished hydrating (vacuously true without lazy cloning) — the
// experiment-side proof that laziness converges to the eager end state.
func (pl *Plant) AllHydrated() bool {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.hydrationAborted {
		return false
	}
	for _, h := range pl.live {
		if !h.Done() {
			return false
		}
	}
	return true
}
