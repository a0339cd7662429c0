// Lazy cloning and the node image cache: under vdisk.CloneByLazy a clone
// resumes with only its config and redo log copied and its memory image
// linked to the node's replica (vmm.loadMemory). Its disk reads the 2 GB
// of golden extents from the node's image cache (warehouse.CacheDir),
// one entry per stored extent under its content key, whichever images
// and clones share it. An entry counts only while its checksum is the
// one the warehouse recorded, so a half-copied or corrupt copy is never
// read.
//
//   - A clone whose extents are all cached resumes with its disk whole:
//     no hydration record, no process.
//   - Any other clone waits on the plant's one filler, which lands each
//     missing extent once, longest-waiting clone first, as a background
//     transfer (sim.Background): it takes only what foreground transfers
//     leave on the NFS server, and nothing while one is on the node's
//     mount. It stops when no clone waits.
//   - A demand fault: a guest write to a block whose extent has not
//     landed blocks for one foreground read of that block over the
//     node's mount, not of the 128 MB extent around it.
//
// Every extent landed and every block fetched re-checks the waiting
// clones' integrity contexts (warehouse.VerifyClone): an image
// quarantined or repaired after a VM resumed stops the fill for it and
// poisons the clones still reading it over NFS, so no suspect byte lands
// under a running guest.
package plant

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"vmplants/internal/cluster"
	"vmplants/internal/core"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
	"vmplants/internal/telemetry"
	"vmplants/internal/vdisk"
	"vmplants/internal/vmm"
	"vmplants/internal/warehouse"
)

// hydration is a lazy clone whose disk still reads extents over NFS: the
// demand-fault hook's state and the clone's place in the filler's queue.
// Only kernel processes touch it, so kernel serialization is the lock.
type hydration struct {
	pl   *Plant
	vm   *vmm.VM
	cctx *warehouse.CloneContext

	fetched   []int64         // blocks demand faults read ahead of their extent
	start     time.Duration   // virtual time the VM resumed on the node
	createdAt time.Duration   // virtual time its creation began
	sp        *telemetry.Span // the creation's clone span, parent of "hydrate"
	failed    error           // sticky verdict; guest touches surface it
}

// cached reports whether the node's image cache holds extent i of the
// image at the checksum the warehouse recorded for it.
func (pl *Plant) cached(cctx *warehouse.CloneContext, i int) bool {
	sum, ok := pl.node.LocalDisk().Checksum(cctx.ExtentCache[i])
	return ok && sum == cctx.Image.Sums[cctx.Image.ExtentPaths[i]]
}

// missing returns the first extent of the image the node's cache lacks,
// or -1 when it holds them all.
func (pl *Plant) missing(cctx *warehouse.CloneContext) int {
	for i, path := range cctx.ExtentCache {
		if (i == 0 || path != cctx.ExtentCache[i-1]) && !pl.cached(cctx, i) {
			return i
		}
	}
	return -1
}

// hydrate puts a lazy clone, resumed on the node by a creation begun at
// createdAt, on the node's image cache, and reports whether it waits for
// an extent. A disk whose extents are all cached is whole at once; any
// other gets the demand-fault hook and a place in the filler's queue.
func (pl *Plant) hydrate(p *sim.Proc, vm *vmm.VM, cctx *warehouse.CloneContext, createdAt time.Duration, sp *telemetry.Span) bool {
	if pl.missing(cctx) < 0 {
		pl.mExtentHits.Inc()
		pl.hHydrationComplete.Observe((p.Now() - createdAt).Seconds())
		return false
	}
	h := &hydration{pl: pl, vm: vm, cctx: cctx, start: p.Now(), createdAt: createdAt, sp: sp}
	vm.SetBlockTouchHook(h.touch)
	pl.waiting = append(pl.waiting, h)
	pl.startFiller(p.Kernel())
	return true
}

// startFiller spawns the node's filler when a clone waits and none runs.
func (pl *Plant) startFiller(k *sim.Kernel) {
	if pl.filler == nil && len(pl.waiting) > 0 {
		pl.filler = k.Spawn(pl.name+"/fill", pl.fill)
	}
}

// fill is the node's filler: each pass lands the first extent the
// longest-waiting clone lacks, until no clone waits or the daemon dies.
// An interrupt (the last waiting clone collected, a crash) drops the
// extent in flight, and the next pass decides what to do.
func (pl *Plant) fill(p *sim.Proc) {
	defer func() { pl.filler = nil }()
	for !pl.Down() {
		h, i := pl.next(p)
		if h == nil {
			return
		}
		if err := pl.land(p, h.cctx, i); err != nil && !errors.Is(err, storage.ErrInterrupted) {
			h.finish(p, err)
		}
	}
}

// next sweeps the filler's queue and returns the longest-waiting clone
// with the first extent its disk lacks (nil when none waits): a clone
// whose image no longer verifies is poisoned, and one whose disk is
// whole completes.
func (pl *Plant) next(p *sim.Proc) (head *hydration, at int) {
	for _, h := range slices.Clone(pl.waiting) {
		if err := pl.wh.VerifyClone(h.cctx); err != nil {
			h.finish(p, fmt.Errorf("hydrate: %w", err))
		} else if i := pl.missing(h.cctx); i < 0 {
			h.finish(p, nil)
		} else if head == nil {
			head, at = h, i
		}
	}
	return head, at
}

// land pulls extent i of the image into the node's image cache as a
// background transfer, holding the entry. The entry's file is there,
// unchecksummed, from the copy's start, so a copy cut short leaves a
// file that never counts.
func (pl *Plant) land(p *sim.Proc, cctx *warehouse.CloneContext, i int) error {
	node, src, dst := pl.node, cctx.Image.ExtentPaths[i], cctx.ExtentCache[i]
	entry := node.CacheEntry(dst, cctx.Image.Sums[src])
	entry.Acquire(p, 1)
	defer entry.Release(p, 1)
	node.LocalDisk().WriteMeta(dst, 0)
	if _, err := node.Warehouse().CopyTo(p, src, node.LocalDisk(), dst, node.Jitter(), sim.Background); err != nil {
		return fmt.Errorf("hydrate extent %d: %w", i, err)
	}
	entry.Fills++
	pl.mExtentFills.Inc()
	pl.pruneCache()
	return nil
}

// touch is the guest's pre-write hook: block the guest until the
// touched block is local, reading just that block on demand when its
// extent is not in the node's cache yet. Only the creating process's
// configure runs guest actions, so no two procs fault at once and
// nobody needs to wait for another's read.
func (h *hydration) touch(p *sim.Proc, block int64) error {
	if h.failed != nil {
		return h.failed
	}
	n := len(h.cctx.ExtentCache)
	i := min(int(block*int64(n)/(h.vm.Disk().Base().SizeBytes()/vdisk.BlockSize)), n-1)
	if h.pl.cached(h.cctx, i) || slices.Contains(h.fetched, block) {
		return nil
	}
	mount := h.pl.node.Warehouse()
	if _, err := mount.Stat(h.cctx.Image.ExtentPaths[i]); err != nil {
		return h.finish(p, fmt.Errorf("demand fault on extent %d: %w", i, err))
	}
	// Priced as CopyTo prices a copy: the mount (the bottleneck: 11 MB/s
	// against the local disk's 35) at its rate, then the local disk's
	// per-transfer overhead. Like the clone's config and redo copies, the
	// small read carries no state-I/O jitter, so it draws nothing from the
	// node's random stream.
	mount.Charge(p, vdisk.BlockSize, 1, sim.Foreground)
	p.Sleep(cluster.LocalDiskOverhead)
	// The image may have been quarantined, or the VM collected, while the
	// read slept.
	if h.failed != nil {
		return h.failed
	}
	if err := h.pl.wh.VerifyClone(h.cctx); err != nil {
		return h.finish(p, fmt.Errorf("demand fault on extent %d: %w", i, err))
	}
	h.fetched = append(h.fetched, block)
	h.pl.mDemandFaults.Inc()
	return nil
}

// finish takes h out of the filler's queue, as a completion when err is
// nil or as an abort with err as its sticky verdict, and records its
// "hydrate" span: resume to the disk whole, or to the abort. It returns
// the verdict; a hydration already finished keeps its first.
func (h *hydration) finish(p *sim.Proc, err error) error {
	pl := h.pl
	i := slices.Index(pl.waiting, h)
	if i < 0 {
		return h.failed
	}
	pl.waiting = slices.Delete(pl.waiting, i, i+1)
	h.failed = err
	if err != nil {
		pl.mHydrationAborts.Inc()
		pl.hydrationAborted = true
	} else {
		h.vm.SetBlockTouchHook(nil)
		pl.hHydrationComplete.Observe((p.Now() - h.createdAt).Seconds())
	}
	h.sp.RecordChild("hydrate", h.start, p.Now(), err,
		telemetry.Attr{Key: "vmid", Value: string(h.vm.ID())},
		telemetry.Attr{Key: "extents", Value: strconv.Itoa(len(h.cctx.ExtentCache))},
		telemetry.Attr{Key: "demand_faults", Value: strconv.Itoa(len(h.fetched))})
	return err
}

// unhydrate ends the collected VM's wait for the node's image cache, if
// it waits, as an abort. A filler left with no clone to fill for drops
// the extent in flight.
func (pl *Plant) unhydrate(p *sim.Proc, id core.VMID) {
	i := slices.IndexFunc(pl.waiting, func(h *hydration) bool { return h.vm.ID() == id })
	if i < 0 {
		return
	}
	pl.waiting[i].finish(p, fmt.Errorf("hydration cancelled: VM %s collected", id))
	if len(pl.waiting) == 0 && pl.filler != nil {
		pl.filler.Interrupt()
	}
}

// pruneCache deletes the node's image-cache entries the warehouse no
// longer publishes. It runs after every fill, the only time the node
// adds an entry, so entries never outnumber the published ones for
// longer than until the next fill. The key is stateless: a restarted
// plant prunes the same way.
func (pl *Plant) pruneCache() {
	local := pl.node.LocalDisk()
	for _, path := range local.List() {
		if pl.wh.StaleCacheEntry(path) {
			_ = local.Delete(path) // fails only on a missing path
		}
	}
}

// AllHydrated reports whether every lazy clone the plant ever resumed
// got its disk whole (vacuously true without lazy cloning) — the
// experiment-side proof that laziness converges to the eager end state.
// Only kernel processes change what it reads: call it between runs.
func (pl *Plant) AllHydrated() bool {
	return !pl.hydrationAborted && len(pl.waiting) == 0
}
