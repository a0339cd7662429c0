package plant

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"vmplants/internal/actions"
	"vmplants/internal/cluster"
	"vmplants/internal/core"
	"vmplants/internal/dag"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
	"vmplants/internal/vdisk"
	"vmplants/internal/warehouse"
)

// A lazy clone must resume well before a full-copy clone could (only
// config + redo + memory on the critical path), then converge: the
// node's filler lands the golden extent in the image cache once for all
// sixteen slots of the disk, nothing of it lands in the clone's own
// directory, and the end-state disk content is identical to an eager
// clone's.
func TestLazyCloneResumesEarlyAndHydrates(t *testing.T) {
	eager := newRig(t, Config{CloneMode: vdisk.CloneByCopy})
	var eagerSecs time.Duration
	var eagerHash uint64
	eager.run(t, func(p *sim.Proc) {
		start := p.Now()
		if _, err := eager.pl.Create(p, "vm-x", spec(t, "alice")); err != nil {
			t.Errorf("eager create: %v", err)
			return
		}
		eagerSecs = p.Now() - start
		vm, _ := eager.pl.VM("vm-x")
		eagerHash = vm.Disk().ContentHash()
	})

	hub := telemetry.New()
	lazy := newRig(t, Config{CloneMode: vdisk.CloneByLazy, Telemetry: hub})
	var lazySecs time.Duration
	var lazyHash uint64
	lazy.run(t, func(p *sim.Proc) {
		start := p.Now()
		if _, err := lazy.pl.Create(p, "vm-x", spec(t, "alice")); err != nil {
			t.Errorf("lazy create: %v", err)
			return
		}
		lazySecs = p.Now() - start
		vm, _ := lazy.pl.VM("vm-x")
		lazyHash = vm.Disk().ContentHash()
	})
	// run() drains the kernel, so the filler has finished by here.
	if !lazy.pl.AllHydrated() {
		t.Fatal("hydration did not complete")
	}
	if lazySecs >= eagerSecs/2 {
		t.Errorf("lazy create %v not well below eager %v", lazySecs, eagerSecs)
	}
	if lazyHash != eagerHash {
		t.Errorf("end-state ContentHash differs: lazy %016x, eager %016x", lazyHash, eagerHash)
	}
	hs := onlyHydration(t, lazy)
	if hs.Err != "" {
		t.Errorf("hydration aborted: %s", hs.Err)
	}
	golden, _ := lazy.wh.Lookup("ws-golden")
	extents := len(golden.ExtentPaths)
	if got := hs.Attr("extents"); got != strconv.Itoa(extents) || extents != 16 {
		t.Errorf("hydration extents = %s, the golden disk spans %d", got, extents)
	}
	if hs.Virtual() <= 0 {
		t.Errorf("last extent landed at %v, not after the resume at %v", hs.VEnd, hs.VStart)
	}
	// The guest's configuration actions write mid-disk while the node's
	// cache is still cold: the demand-fault path must have served them.
	if demandFaults(hs) < 1 {
		t.Errorf("no demand faults: the config writes landed after their extents")
	}
	// The seed's sixteen slots are one stored extent: one pull fills them
	// all, into the cache and nowhere else.
	cctx, err := lazy.wh.OpenClone("ws-golden")
	if err != nil {
		t.Fatal(err)
	}
	if i := lazy.pl.missing(cctx); i >= 0 {
		t.Errorf("extent %d not in the node's cache", i)
	}
	if fills := hub.Counter("plant.extent_cache_fills").Value(); fills != 1 {
		t.Errorf("%d extents pulled for a disk of one stored extent, want 1", fills)
	}
	for _, path := range lazy.tb.Nodes[0].LocalDisk().List() {
		if strings.HasPrefix(path, "vms/vm-x/disk-") {
			t.Errorf("extent %s landed in the clone's own directory", path)
		}
	}
}

// Collecting the only clone that waits for the cache cancels the fill
// cleanly: the kernel reaches quiescence (no stranded proc), the extent
// in flight never counts, and the clone's span and counters record one
// abort and no completion.
func TestCollectCancelsHydration(t *testing.T) {
	hub := telemetry.New()
	r := newRigOn(t, 1, cluster.DefaultParams(), Config{CloneMode: vdisk.CloneByLazy, Telemetry: hub}, distinctExtents(t))
	r.run(t, func(p *sim.Proc) {
		if _, err := r.pl.Create(p, "vm-doomed", spec(t, "bob")); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		// Collect immediately: the filler is still pulling extents.
		if err := r.pl.Collect(p, core.VMID("vm-doomed")); err != nil {
			t.Errorf("collect: %v", err)
		}
	})
	if hs := onlyHydration(t, r); !strings.Contains(hs.Err, "collected") {
		t.Errorf("cancelled hydration's span err %q, want the collection", hs.Err)
	}
	completions := hub.Histogram("plant.hydration_complete_secs").Count()
	if aborts := hub.Counter("plant.hydration_aborts").Value(); completions != 0 || aborts != 1 {
		t.Errorf("%d completions and %d aborts, want 0 and 1", completions, aborts)
	}
	if r.pl.AllHydrated() {
		t.Error("AllHydrated true after an aborted hydration")
	}
	cctx, _ := r.wh.OpenClone("ws-golden")
	if fills := hub.Counter("plant.extent_cache_fills").Value(); r.pl.filler != nil || fills >= 16 || r.pl.missing(cctx) != int(fills) {
		t.Errorf("after the collect: filler %v, %d extents landed, first missing %d", r.pl.filler, fills, r.pl.missing(cctx))
	}
}

// A lazy clone that waits for the node's cache records one "hydrate"
// span under its creation's clone span, in the creation's trace: from
// the resume to its disk whole, or to the abort, which it carries as its
// error. A lazy clone whose extents are all cached, link and copy
// clones, and pool hits resume with their disk whole and have none.
func TestHydrateSpanJoinsTheCreationTrace(t *testing.T) {
	hub := telemetry.New()
	r := newRigOn(t, 1, cluster.DefaultParams(), Config{CloneMode: vdisk.CloneByLazy, Telemetry: hub}, distinctExtents(t))
	r.run(t, func(p *sim.Proc) {
		for _, id := range []core.VMID{"vm-kept", "vm-doomed"} {
			if _, err := r.pl.Create(p, id, spec(t, string(id))); err != nil {
				t.Fatalf("create %s: %v", id, err)
			}
		}
		if err := r.pl.Collect(p, "vm-doomed"); err != nil {
			t.Fatal(err)
		}
		for len(r.pl.waiting) > 0 {
			p.Sleep(time.Second)
		}
		if _, err := r.pl.Create(p, "vm-warm", spec(t, "vm-warm")); err != nil {
			t.Fatal(err)
		}
	})
	creates, clones, hydrations := named(r, "plant.create"), named(r, "clone"), named(r, "hydrate")
	if len(hydrations) != 2 {
		t.Fatalf("%d hydrate spans for two clones of a cold cache and one of a warm one", len(hydrations))
	}
	for _, hs := range hydrations {
		vmid := hs.Attr("vmid")
		i := slices.IndexFunc(creates, func(s telemetry.Span) bool { return s.Attr("vmid") == vmid })
		if i < 0 || hs.Parent != clones[i].ID || hs.TraceID != creates[i].TraceID {
			t.Errorf("%s: hydrate span parent %d trace %d is not its creation's clone span", vmid, hs.Parent, hs.TraceID)
			continue
		}
		if hs.VStart != clones[i].VEnd || hs.VEnd <= hs.VStart {
			t.Errorf("%s: hydrate %v..%v, want from the clone's end at %v", vmid, hs.VStart, hs.VEnd, clones[i].VEnd)
		}
		if hs.Attr("extents") != "16" || hs.Attr("demand_faults") == "" {
			t.Errorf("%s: hydrate attrs %v", vmid, hs.Attrs)
		}
		if aborted := hs.Err != ""; aborted != (vmid == "vm-doomed") {
			t.Errorf("%s: hydrate err %q", vmid, hs.Err)
		}
	}
	if hits := hub.Counter("plant.extent_cache_hits").Value(); hits != 1 {
		t.Errorf("%d clones resumed on a whole cache, want vm-warm alone", hits)
	}

	for _, mode := range []vdisk.CloneMode{vdisk.CloneByLink, vdisk.CloneByCopy} {
		r := newRig(t, Config{CloneMode: mode, Telemetry: telemetry.New()})
		r.run(t, func(p *sim.Proc) {
			if _, err := r.pl.Create(p, "vm-x", spec(t, "erin")); err != nil {
				t.Fatal(err)
			}
		})
		if got := len(named(r, "hydrate")); got != 0 {
			t.Errorf("%v clone recorded %d hydrate spans", mode, got)
		}
	}
}

// The epoch gate extends to late-arriving extents: quarantining the
// golden image while a lazy clone still waits for the cache must poison
// the clone, and subsequent guest disk touches must fail rather than
// read suspect state.
func TestQuarantineMidHydrationPoisonsLazyClone(t *testing.T) {
	r := newRigOn(t, 1, cluster.DefaultParams(), Config{CloneMode: vdisk.CloneByLazy, Telemetry: telemetry.New()}, distinctExtents(t))
	r.run(t, func(p *sim.Proc) {
		if _, err := r.pl.Create(p, "vm-poisoned", spec(t, "carol")); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		h := waitingFor(t, r, "vm-poisoned")
		// Quarantine while the filler is mid-stream (each extent's copy
		// takes seconds of virtual time at NFS bandwidth).
		if !r.wh.Quarantine("ws-golden", "scrub: checksum mismatch") {
			t.Error("quarantine refused")
		}
		err := h.touch(p, lastBlock(h))
		if err == nil || err != h.failed {
			t.Errorf("touch after the quarantine returned %v, the hydration's verdict is %v", err, h.failed)
		}
		start := p.Now()
		if again := h.touch(p, lastBlock(h)-1); again != err || p.Now() != start {
			t.Errorf("second touch returned %v after %v, want the sticky %v at once", again, p.Now()-start, err)
		}
	})
	if hs := onlyHydration(t, r); !strings.Contains(hs.Err, "quarantined") {
		t.Fatalf("hydration should have aborted on quarantine, its span err is %q", hs.Err)
	}
	if r.pl.AllHydrated() {
		t.Error("AllHydrated true after a poisoned hydration")
	}
}

// A quarantine stops the fill at the cache level, with no guest touch
// to find it: the extent in flight lands, the filler's next sweep fails
// the waiting clone's integrity context, poisons the clone and pulls
// nothing more for it.
func TestQuarantineStopsTheFill(t *testing.T) {
	r, hub := newQuietRig(t, 1, distinctExtents(t))
	fills := hub.Counter("plant.extent_cache_fills")
	r.run(t, func(p *sim.Proc) {
		createOrFatal(t, p, r.pl, "vm-a", spec(t, "alice"))
		p.Sleep(extentCopy(r) / 2)
		h, landed := waitingFor(t, r, "vm-a"), fills.Value()
		if !r.wh.Quarantine("ws-golden", "scrub: checksum mismatch") {
			t.Fatal("quarantine refused")
		}
		p.Sleep(3 * extentCopy(r))
		if got := fills.Value(); got != landed+1 || r.pl.filler != nil || h.failed == nil {
			t.Errorf("after the quarantine: %d → %d extents landed, filler %v, verdict %v; want the one in flight, no filler, a verdict",
				landed, got, r.pl.filler, h.failed)
		}
		start := p.Now()
		if err := h.touch(p, lastBlock(h)); err != h.failed || p.Now() != start {
			t.Errorf("touch after the poisoning returned %v after %v, want the sticky %v at once", err, p.Now()-start, h.failed)
		}
	})
	if hs := onlyHydration(t, r); !strings.Contains(hs.Err, "quarantined") {
		t.Errorf("hydrate span err %q, want the quarantine", hs.Err)
	}
}

// Precreate under lazy mode parks link clones (a suspended VM cannot
// demand-fault), and resuming one needs no hydration.
func TestPrecreateFallsBackToLinkUnderLazy(t *testing.T) {
	r := newRig(t, Config{CloneMode: vdisk.CloneByLazy, Telemetry: telemetry.New()})
	r.run(t, func(p *sim.Proc) {
		if err := r.pl.Precreate(p, "ws-golden", 1); err != nil {
			t.Errorf("precreate: %v", err)
			return
		}
		if _, err := r.pl.Create(p, "vm-pool", spec(t, "dave")); err != nil {
			t.Errorf("create: %v", err)
		}
	})
	if got := len(named(r, "hydrate")); got != 0 {
		t.Errorf("pool hit started %d hydrations, want 0", got)
	}
	if !r.pl.AllHydrated() {
		t.Error("AllHydrated false with no lazy clones outstanding")
	}
}

// A plant crash in the middle of a fill stops it: the extent in flight
// stays a torn, unchecksummed file that the cache never counts, and no
// extent lands while the daemon is down. Recover resumes the fill, which
// pulls that extent once more and every other one once.
func TestCrashMidFillResumesAfterRecover(t *testing.T) {
	r, hub := newQuietRig(t, 1, distinctExtents(t))
	fills := hub.Counter("plant.extent_cache_fills")
	cctx, err := r.wh.OpenClone("ws-golden")
	if err != nil {
		t.Fatal(err)
	}
	local := r.tb.Nodes[0].LocalDisk()
	r.run(t, func(p *sim.Proc) {
		createOrFatal(t, p, r.pl, "vm-a", spec(t, "alice"))
		p.Sleep(extentCopy(r) / 2)
		i, landed := r.pl.missing(cctx), fills.Value()
		if r.pl.filler == nil || i < 0 {
			t.Fatalf("no extent in flight: filler %v, first missing %d", r.pl.filler, i)
		}
		r.pl.Crash()
		p.Sleep(2 * extentCopy(r))
		if got := fills.Value(); got != landed || r.pl.filler != nil {
			t.Errorf("down for two extents' copy: %d → %d extents landed, filler %v", landed, got, r.pl.filler)
		}
		torn := cctx.ExtentCache[i]
		if size, err := local.Stat(torn); err != nil || size != 0 || r.pl.missing(cctx) != i {
			t.Errorf("extent %d after the crash: %s is %d bytes (%v); the cache's first missing extent is %d",
				i, torn, size, err, r.pl.missing(cctx))
		}
		if n := r.pl.Recover(p); n != 1 {
			t.Errorf("recovered %d VMs, want 1", n)
		}
	})
	if !r.pl.AllHydrated() || r.pl.missing(cctx) >= 0 {
		t.Errorf("the fill did not resume: AllHydrated %v, first missing %d", r.pl.AllHydrated(), r.pl.missing(cctx))
	}
	if got := fills.Value(); got != 16 || r.tb.Nodes[0].Refills() != 0 {
		t.Errorf("%d extents pulled, %d of them again at one checksum; want each of 16 once", got, r.tb.Nodes[0].Refills())
	}
}

// A node pulls an extent once, whichever images share it: clones of two
// seeds whose disks are the same stored extent wait on one fill, and a
// third clone, after it, finds its disk whole.
func TestNodePullsSharedExtentOnce(t *testing.T) {
	r, hub := newQuietRig(t, 1)
	small, err := warehouse.BuildGolden("ws-small", core.HardwareSpec{Arch: "x86", MemoryMB: 32, DiskMB: 2048},
		warehouse.BackendVMware, goldenHistory())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.wh.Publish(small); err != nil {
		t.Fatal(err)
	}
	mount := r.tb.Nodes[0].Warehouse().Device()
	r.run(t, func(p *sim.Proc) {
		for i, memMB := range []int{64, 32} {
			p.Kernel().Spawn("create", func(cp *sim.Proc) {
				s := spec(t, "alice")
				s.Hardware.MemoryMB = memMB
				createOrFatal(t, cp, r.pl, core.VMID("vm-"+strconv.Itoa(i)), s)
			})
		}
		p.Sleep(10 * time.Minute)
		createOrFatal(t, p, r.pl, "vm-2", spec(t, "bob"))
	})
	if fills, hits := hub.Counter("plant.extent_cache_fills").Value(), hub.Counter("plant.extent_cache_hits").Value(); fills != 1 || hits != 1 {
		t.Errorf("extent fills %d, cache hits %d; want 1 and 1", fills, hits)
	}
	if _, background, _ := mount.Stats(); background != 128<<20 {
		t.Errorf("the mount carried %d background bytes, one extent is %d", background, 128<<20)
	}
	if n := len(named(r, "hydrate")); n != 2 || !r.pl.AllHydrated() {
		t.Errorf("%d hydrate spans (want the two cold clones'), AllHydrated %v", n, r.pl.AllHydrated())
	}
}

// onlyHydration returns the plant's one "hydrate" span.
func onlyHydration(t *testing.T, r *rig) telemetry.Span {
	t.Helper()
	spans := named(r, "hydrate")
	if len(spans) != 1 {
		t.Fatalf("%d hydrate spans, want 1", len(spans))
	}
	return spans[0]
}

// demandFaults is how many blocks a hydrate span's guest fetched ahead
// of the filler.
func demandFaults(hs telemetry.Span) int {
	n, _ := strconv.Atoi(hs.Attr("demand_faults"))
	return n
}

// waitingFor returns the VM's hydration record: it waits for the node's
// image cache.
func waitingFor(t *testing.T, r *rig, id core.VMID) *hydration {
	t.Helper()
	i := slices.IndexFunc(r.pl.waiting, func(h *hydration) bool { return h.vm.ID() == id })
	if i < 0 {
		t.Fatalf("%s does not wait for the node's cache", id)
	}
	return r.pl.waiting[i]
}

// distinctExtents gives each of a golden image's extents content of its
// own, so the warehouse stores sixteen and a node pulls 2 GB, extent by
// extent, before a lazy clone of a cold cache has its disk whole.
func distinctExtents(t *testing.T) func(*warehouse.Image) {
	return func(im *warehouse.Image) {
		base := im.Disk.Base()
		per := base.SizeBytes() / vdisk.BlockSize / int64(base.SpanFiles())
		for i := range int64(base.SpanFiles()) {
			blk := make([]byte, vdisk.BlockSize)
			blk[0] = byte(i + 1)
			if err := base.Populate(i*per, blk); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// newQuietRig is a lazy-cloning plant on node 0 of an n-node testbed
// without jitter, so every service time is exact.
func newQuietRig(t *testing.T, nodes int, prep ...func(*warehouse.Image)) (*rig, *telemetry.Hub) {
	t.Helper()
	params := cluster.DefaultParams()
	params.JitterSigma = 0
	hub := telemetry.New()
	return newRigOn(t, nodes, params, Config{CloneMode: vdisk.CloneByLazy, Telemetry: hub}, prep...), hub
}

// fromWarehouse is size bytes' way from the warehouse to a local disk
// with no jitter: the mount's service time, then the local disk's
// per-transfer overhead.
func fromWarehouse(r *rig, size int64) time.Duration {
	par := r.tb.Params
	return par.TransferOverhead + sim.Seconds(float64(size)/par.NFSClientBps) + cluster.LocalDiskOverhead
}

// extentCopy is one 128 MB extent's copy; blockRead is a demand fault's
// read of one block.
func extentCopy(r *rig) time.Duration { return fromWarehouse(r, 128<<20) }
func blockRead(r *rig) time.Duration  { return fromWarehouse(r, vdisk.BlockSize) }

// loadNFS keeps each of the given nodes streaming 110 MB reads from the
// warehouse (10 s and the overhead apiece) in the given class until the
// deadline.
func loadNFS(r *rig, nodes []*cluster.Node, class sim.Class, until time.Duration) {
	for _, n := range nodes {
		r.k.Spawn(n.Name()+"/load", func(p *sim.Proc) {
			for p.Now() < until {
				n.Warehouse().Charge(p, 110e6, 1, class)
			}
		})
	}
}

// lastBlock is a block of the VM's last extent: the one the filler
// reaches last.
func lastBlock(h *hydration) int64 {
	return h.vm.Disk().Base().SizeBytes()/vdisk.BlockSize - 1
}

// A demand fault is foreground I/O of one block: with the filler busy on
// its own mount, another clone waiting beside it, and background readers
// on four other nodes, the guest waits for its block's read and nothing
// else — not for the extent around it. Beside three memory-image copies
// on its own mount it shares the mount with them instead of queueing
// behind them.
func TestDemandFaultLatencyUnderBackgroundLoad(t *testing.T) {
	r, hub := newQuietRig(t, 5, distinctExtents(t))
	r.run(t, func(p *sim.Proc) {
		for _, id := range []core.VMID{"vm-a", "vm-b"} {
			if _, err := r.pl.Create(p, id, spec(t, "alice")); err != nil {
				t.Fatalf("create %s: %v", id, err)
			}
		}
		loadNFS(r, r.tb.Nodes[1:], sim.Background, p.Now()+5*time.Minute)
		p.Sleep(30 * time.Second)
		h := waitingFor(t, r, "vm-a")
		if i := r.pl.missing(h.cctx); i < 0 || i > 8 {
			t.Fatalf("the fill is not in full swing: first missing extent %d", i)
		}
		faults := hub.Counter("plant.demand_faults").Value()
		start := p.Now()
		if err := h.touch(p, lastBlock(h)); err != nil {
			t.Fatal(err)
		}
		if got, want := p.Now()-start, blockRead(r); got != want {
			t.Errorf("demand fault took %v under background load, its block's read takes %v (the extent's copy %v)", got, want, extentCopy(r))
		}
		if got := hub.Counter("plant.demand_faults").Value(); got != faults+1 {
			t.Errorf("demand faults %d → %d, want one more", faults, got)
		}

		for range 3 {
			r.k.Spawn("memory-image", func(p *sim.Proc) {
				r.tb.Nodes[0].Warehouse().Charge(p, 256<<20, 1, sim.Foreground)
			})
		}
		p.Sleep(time.Second)
		start = p.Now()
		if err := h.touch(p, lastBlock(h)-1); err != nil {
			t.Fatal(err)
		}
		if got := p.Now() - start; got >= time.Second {
			t.Errorf("demand fault beside three memory-image copies took %v, want under 1 s", got)
		}
		if got := hub.Counter("plant.demand_faults").Value(); got != faults+2 {
			t.Errorf("demand faults %d → %d, want two more", faults, got)
		}
	})
	if !r.pl.AllHydrated() {
		t.Error("hydration did not converge after the load")
	}
	if bytes, background, _ := r.tb.Nodes[0].Warehouse().Device().Stats(); background == 0 || background >= bytes {
		t.Errorf("node00's mount served %d bytes, %d of them in the background", bytes, background)
	}
}

// A foreground state copy on the node's mount takes exactly its lone
// time beside the node's filler: background work gets no bandwidth on a
// pipe that carries a foreground transfer, so no extent lands while the
// copy runs. That is why the plant needs no degraded mode to keep its
// NFS path for creations.
func TestForegroundCopyBesideHydrationTakesItsLoneTime(t *testing.T) {
	const memoryImage = 256 << 20
	quiet, _ := newQuietRig(t, 1)
	var lone time.Duration
	quiet.run(t, func(p *sim.Proc) {
		start := p.Now()
		quiet.tb.Nodes[0].Warehouse().Charge(p, memoryImage, 1, sim.Foreground)
		lone = p.Now() - start
	})

	r, hub := newQuietRig(t, 1, distinctExtents(t))
	r.run(t, func(p *sim.Proc) {
		if _, err := r.pl.Create(p, "vm-a", spec(t, "alice")); err != nil {
			t.Fatalf("create: %v", err)
		}
		p.Sleep(extentCopy(r) / 2)
		h := waitingFor(t, r, "vm-a")
		if r.pl.filler == nil || r.pl.filler.State() == sim.ProcDone || r.pl.missing(h.cctx) < 0 {
			t.Fatalf("no extent in flight: filler %v", r.pl.filler)
		}
		landed := hub.Counter("plant.extent_cache_fills").Value()
		start := p.Now()
		r.tb.Nodes[0].Warehouse().Charge(p, memoryImage, 1, sim.Foreground)
		if got := p.Now() - start; got != lone {
			t.Errorf("foreground copy beside the filler took %v, alone %v", got, lone)
		}
		if got := hub.Counter("plant.extent_cache_fills").Value(); got != landed {
			t.Errorf("%d extents landed during the foreground copy", got-landed)
		}
	})
	if !r.pl.AllHydrated() {
		t.Error("hydration did not converge after the copy")
	}
}

// Five other nodes stream foreground reads that take all of the
// server's bandwidth, so the filler's background copy is starved for as
// long as they last. A guest touching a block of the extent in flight
// does not wait on that copy: it reads its block at its share of the
// server beside the streams, and the copy stays the filler's, neither
// promoted nor cancelled, landing after the load like the rest.
func TestTouchBlockOfExtentInFlight(t *testing.T) {
	r, hub := newQuietRig(t, 6, distinctExtents(t))
	var loadEnds time.Duration
	r.run(t, func(p *sim.Proc) {
		loadEnds = p.Now() + 20*time.Minute
		loadNFS(r, r.tb.Nodes[1:], sim.Foreground, loadEnds)
		if _, err := r.pl.Create(p, "vm-a", spec(t, "alice")); err != nil {
			t.Fatalf("create: %v", err)
		}
		h := waitingFor(t, r, "vm-a")
		i, landed := r.pl.missing(h.cctx), hub.Counter("plant.extent_cache_fills").Value()
		p.Sleep(2 * time.Minute)
		if got := r.pl.missing(h.cctx); got != i {
			t.Fatalf("the fill landed extents %d to %d under a saturating foreground load", i, got)
		}
		block := int64(i) * (h.vm.Disk().Base().SizeBytes() / vdisk.BlockSize) / int64(len(h.cctx.ExtentCache))
		faults := hub.Counter("plant.demand_faults").Value()
		start := p.Now()
		if err := h.touch(p, block); err != nil {
			t.Fatal(err)
		}
		// Six mounts share the server, so the block's read runs at
		// two thirds of its mount's speed.
		bound := 2 * blockRead(r)
		if got := p.Now() - start; got > bound {
			t.Errorf("guest waited %v for a block of the extent in flight, want at most %v", got, bound)
		}
		if got := hub.Counter("plant.demand_faults").Value(); got != faults+1 {
			t.Errorf("demand faults %d → %d, want one more", faults, got)
		}
		if got := hub.Counter("plant.extent_cache_fills").Value(); got != landed || r.pl.filler == nil || r.pl.filler.State() == sim.ProcDone {
			t.Errorf("the touch moved the filler: %d → %d extents landed, filler %v", landed, got, r.pl.filler)
		}
		start = p.Now()
		if err := h.touch(p, block); err != nil || p.Now() != start {
			t.Errorf("second touch of block %d: %v after %v, want nil at once", block, err, p.Now()-start)
		}
		if got := hub.Counter("plant.demand_faults").Value(); got != faults+1 {
			t.Errorf("second touch of a fetched block counted a fault (%d → %d)", faults, got)
		}
	})
	if !r.pl.AllHydrated() {
		t.Error("hydration did not converge after the load")
	}
	if hs := onlyHydration(t, r); hs.VEnd < loadEnds {
		t.Errorf("hydration complete at %v, before the foreground load ended at %v", hs.VEnd, loadEnds)
	}
	if got := hub.Counter("plant.extent_cache_fills").Value(); got != 16 {
		t.Errorf("%d extents landed through the filler, want all 16", got)
	}
}

// Lazy cloning on a node with a cold cache costs on the critical path
// what link cloning costs, plus one block read per demand fault. The
// residual actions take no time, so they draw nothing from the node's
// random stream, which the filler draws from as it starts each extent's
// copy.
func TestLazyCreationCostsLinkCloneAndBlockReads(t *testing.T) {
	instant := func(t *testing.T, user string) *core.Spec {
		s := spec(t, user)
		g, err := dag.NewBuilder().
			Add("os", act(actions.OpInstallOS, "distro", "mandrake-8.1")).
			Add("vnc", act(actions.OpInstallPackage, "name", "vnc-server"), "os").
			Add("net", act(actions.OpConfigureNetwork, "ip", "10.1.0.7", "seconds", "0"), "vnc").
			Add("user", act(actions.OpCreateUser, "name", user, "seconds", "0"), "net").
			Build()
		if err != nil {
			t.Fatal(err)
		}
		s.Graph = g
		return s
	}
	create := func(mode vdisk.CloneMode) (time.Duration, *rig) {
		params := cluster.DefaultParams()
		params.JitterSigma = 0
		r := newRigOn(t, 1, params, Config{CloneMode: mode, Telemetry: telemetry.New()})
		var took time.Duration
		r.run(t, func(p *sim.Proc) {
			start := p.Now()
			if _, err := r.pl.Create(p, "vm-x", instant(t, "erin")); err != nil {
				t.Fatalf("%v create: %v", mode, err)
			}
			took = p.Now() - start
		})
		return took, r
	}
	link, _ := create(vdisk.CloneByLink)
	lazy, r := create(vdisk.CloneByLazy)
	faults := demandFaults(onlyHydration(t, r))
	if faults < 1 {
		t.Fatalf("no demand faults: the residual actions' writes landed after their extents")
	}
	if bound := link + time.Duration(faults)*blockRead(r); lazy > bound {
		t.Errorf("lazy creation took %v with %d faults; link clone %v + a block read per fault = %v", lazy, faults, link, bound)
	}
}

// Collecting the last clone that waits drops the filler's copy at once,
// in service or queued: the filler is gone before Collect returns, the
// extent it was on does not land or count, and nothing of it is left in
// a device queue for the kernel to run afterwards.
func TestCollectDropsExtentInFlight(t *testing.T) {
	for _, tc := range []struct {
		name string
		load sim.Class // what the other nodes stream meanwhile
	}{
		{"in service", sim.Background},
		{"queued", sim.Foreground},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, hub := newQuietRig(t, 6, distinctExtents(t))
			var collected time.Duration
			end := r.run(t, func(p *sim.Proc) {
				if _, err := r.pl.Create(p, "vm-a", spec(t, "alice")); err != nil {
					t.Fatalf("create: %v", err)
				}
				loadNFS(r, r.tb.Nodes[1:], tc.load, p.Now()+time.Minute)
				p.Sleep(extentCopy(r) / 2)
				h := waitingFor(t, r, "vm-a")
				i, landed := r.pl.missing(h.cctx), hub.Counter("plant.extent_cache_fills").Value()
				filler := r.pl.filler
				if filler == nil || filler.State() == sim.ProcDone {
					t.Fatal("no extent in flight")
				}
				if err := r.pl.Collect(p, "vm-a"); err != nil {
					t.Fatal(err)
				}
				collected = p.Now()
				if filler.State() != sim.ProcDone || r.pl.filler != nil {
					t.Errorf("filler still alive (state %d) after Collect", filler.State())
				}
				if got := hub.Counter("plant.extent_cache_fills").Value(); got != landed {
					t.Errorf("extent fills %d → %d across Collect: the cut-short extent counted", landed, got)
				}
				if r.pl.cached(h.cctx, i) {
					t.Errorf("cut-short extent %s counts as cached", h.cctx.ExtentCache[i])
				}
			})
			if end < collected+50*time.Second || end > collected+70*time.Second {
				t.Errorf("kernel ran until %v after the Collect at %v: want only the other nodes' minute of load", end, collected)
			}
			if hs := onlyHydration(t, r); hs.Err == "" {
				t.Error("the collected clone's hydrate span records no abort")
			}
		})
	}
}
