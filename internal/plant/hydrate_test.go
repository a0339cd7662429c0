package plant

import (
	"fmt"
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
)

// A lazy clone must resume well before a full-copy clone could (only
// config + redo + memory on the critical path), then converge: the
// background hydrator materializes every extent, and the end-state disk
// content is identical to an eager clone's.
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

	lazy := newRig(t, Config{CloneMode: vdisk.CloneByLazy, Telemetry: telemetry.New()})
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
	// run() drains the kernel, so the hydrator has finished by here.
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
	// The guest's configuration actions write mid-disk, ahead of the
	// in-order hydrator: the demand-fault path must have served them.
	if demandFaults(hs) < 1 {
		t.Errorf("no demand faults: the config writes landed after their extents")
	}
	// Every extent the clone's disk directory should hold is local.
	vm, ok := lazy.pl.VM("vm-x")
	if !ok {
		t.Fatal("lazy VM not in info system")
	}
	local := vm.Node().LocalDisk()
	for i := 0; i < extents; i++ {
		path := fmt.Sprintf("vms/vm-x/disk-s%03d.vmdk", i)
		if _, err := local.Stat(path); err != nil {
			t.Errorf("extent %s not materialized locally: %v", path, err)
		}
	}
}

// Collecting a VM mid-hydration cancels the hydrator cleanly: the
// kernel reaches quiescence (no stranded proc), and the hydration's span
// and counters record one abort and no completion.
func TestCollectCancelsHydration(t *testing.T) {
	hub := telemetry.New()
	r := newRig(t, Config{CloneMode: vdisk.CloneByLazy, Telemetry: hub})
	r.run(t, func(p *sim.Proc) {
		if _, err := r.pl.Create(p, "vm-doomed", spec(t, "bob")); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		// Collect immediately: the hydrator is still copying extents.
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
}

// A lazy clone's hydration is one "hydrate" span under the creation's
// clone span, in the creation's trace: from the resume to the last
// extent landing, or to the abort, which it carries as its error. Link
// and copy clones, and pool hits, resume with their disk in place and
// have none.
func TestHydrateSpanJoinsTheCreationTrace(t *testing.T) {
	r := newRig(t, Config{CloneMode: vdisk.CloneByLazy, Telemetry: telemetry.New()})
	r.run(t, func(p *sim.Proc) {
		for _, id := range []core.VMID{"vm-kept", "vm-doomed"} {
			if _, err := r.pl.Create(p, id, spec(t, string(id))); err != nil {
				t.Fatalf("create %s: %v", id, err)
			}
		}
		if err := r.pl.Collect(p, "vm-doomed"); err != nil {
			t.Fatal(err)
		}
	})
	creates, clones, hydrations := named(r, "plant.create"), named(r, "clone"), named(r, "hydrate")
	if len(hydrations) != 2 {
		t.Fatalf("%d hydrate spans for two lazy clones", len(hydrations))
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
// golden image while a lazy clone is still hydrating must poison the
// hydration, and subsequent guest disk touches must fail rather than
// read suspect state.
func TestQuarantineMidHydrationPoisonsLazyClone(t *testing.T) {
	r := newRig(t, Config{CloneMode: vdisk.CloneByLazy, Telemetry: telemetry.New()})
	r.run(t, func(p *sim.Proc) {
		if _, err := r.pl.Create(p, "vm-poisoned", spec(t, "carol")); err != nil {
			t.Errorf("create: %v", err)
			return
		}
		h := r.pl.live["vm-poisoned"]
		// Quarantine while the hydrator is mid-stream (the first extent
		// copy takes seconds of virtual time at NFS bandwidth).
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
// of the hydrator.
func demandFaults(hs telemetry.Span) int {
	n, _ := strconv.Atoi(hs.Attr("demand_faults"))
	return n
}

// newQuietRig is a lazy-cloning plant on node 0 of an n-node testbed
// without jitter, so every service time is exact.
func newQuietRig(t *testing.T, nodes int) (*rig, *telemetry.Hub) {
	t.Helper()
	params := cluster.DefaultParams()
	params.JitterSigma = 0
	hub := telemetry.New()
	return newRigOn(t, nodes, params, Config{CloneMode: vdisk.CloneByLazy, Telemetry: hub}), hub
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

// lastBlock is a block of the VM's last extent: the one the hydrator
// reaches last.
func lastBlock(h *hydration) int64 {
	return h.vm.Disk().Base().SizeBytes()/vdisk.BlockSize - 1
}

// A demand fault is foreground I/O of one block: with a hydrator busy on
// its own mount, another clone waiting for its turn, and background
// readers on four other nodes, the guest waits for its block's read and
// nothing else — not for the extent around it. Beside three memory-image
// copies on its own mount it shares the mount with them instead of
// queueing behind them.
func TestDemandFaultLatencyUnderBackgroundLoad(t *testing.T) {
	r, hub := newQuietRig(t, 5)
	r.run(t, func(p *sim.Proc) {
		for _, id := range []core.VMID{"vm-a", "vm-b"} {
			if _, err := r.pl.Create(p, id, spec(t, "alice")); err != nil {
				t.Fatalf("create %s: %v", id, err)
			}
		}
		loadNFS(r, r.tb.Nodes[1:], sim.Background, p.Now()+5*time.Minute)
		p.Sleep(30 * time.Second)
		h := r.pl.live["vm-a"]
		if h == nil || h.extents()-h.landed < 8 {
			t.Fatalf("vm-a's hydration is not in full swing: %+v", h)
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
// time beside a lazy clone's hydrator: background work gets no
// bandwidth on a pipe that carries a foreground transfer, so no extent
// lands while the copy runs. That is why the plant needs no degraded
// mode to keep its NFS path for creations.
func TestForegroundCopyBesideHydrationTakesItsLoneTime(t *testing.T) {
	const memoryImage = 256 << 20
	quiet, _ := newQuietRig(t, 1)
	var lone time.Duration
	quiet.run(t, func(p *sim.Proc) {
		start := p.Now()
		quiet.tb.Nodes[0].Warehouse().Charge(p, memoryImage, 1, sim.Foreground)
		lone = p.Now() - start
	})

	r, hub := newQuietRig(t, 1)
	r.run(t, func(p *sim.Proc) {
		if _, err := r.pl.Create(p, "vm-a", spec(t, "alice")); err != nil {
			t.Fatalf("create: %v", err)
		}
		p.Sleep(extentCopy(r) / 2)
		h := r.pl.live["vm-a"]
		if h == nil || h.proc == nil || h.proc.State() == sim.ProcDone || h.landed == h.extents() {
			t.Fatalf("no extent in flight: %+v", h)
		}
		landed := hub.Counter("plant.hydrated_extents").Value()
		start := p.Now()
		r.tb.Nodes[0].Warehouse().Charge(p, memoryImage, 1, sim.Foreground)
		if got := p.Now() - start; got != lone {
			t.Errorf("foreground copy beside the hydrator took %v, alone %v", got, lone)
		}
		if got := hub.Counter("plant.hydrated_extents").Value(); got != landed {
			t.Errorf("%d extents landed during the foreground copy", got-landed)
		}
	})
	if !r.pl.AllHydrated() {
		t.Error("hydration did not converge after the copy")
	}
}

// Five other nodes stream foreground reads that take all of the
// server's bandwidth, so the hydrator's background copy is starved for
// as long as they last. A guest touching a block of the extent in flight
// does not wait on that copy: it reads its block at its share of the
// server beside the streams, and the copy stays the hydrator's, neither
// promoted nor cancelled, landing after the load like the rest.
func TestTouchBlockOfExtentInFlight(t *testing.T) {
	r, hub := newQuietRig(t, 6)
	var loadEnds time.Duration
	r.run(t, func(p *sim.Proc) {
		loadEnds = p.Now() + 20*time.Minute
		loadNFS(r, r.tb.Nodes[1:], sim.Foreground, loadEnds)
		if _, err := r.pl.Create(p, "vm-a", spec(t, "alice")); err != nil {
			t.Fatalf("create: %v", err)
		}
		h := r.pl.live["vm-a"]
		i := h.landed
		p.Sleep(2 * time.Minute)
		if h.landed != i {
			t.Fatalf("hydration landed extents %d to %d under a saturating foreground load", i, h.landed)
		}
		block := int64(i) * (h.vm.Disk().Base().SizeBytes() / vdisk.BlockSize) / int64(h.extents())
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
		if h.landed != i || h.proc.State() == sim.ProcDone {
			t.Errorf("the touch moved the hydrator: %d extents landed, hydrator state %d", h.landed, h.proc.State())
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
	if got := hub.Counter("plant.hydrated_extents").Value(); got != 16 {
		t.Errorf("%d extents landed through the hydrator, want all 16", got)
	}
}

// Lazy cloning costs on the critical path what link cloning costs, plus
// one block read per demand fault. The residual actions take no time, so
// they draw nothing from the node's random stream, which the lazy
// clone's hydrator draws from as it starts each extent's copy.
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

// Collect drops the hydrator's copy at once, in service or queued: the
// hydrator is gone before Collect returns, the extent it was on does
// not land or count, and nothing of the VM is left in a device queue
// for the kernel to run afterwards.
func TestCollectDropsExtentInFlight(t *testing.T) {
	for _, tc := range []struct {
		name string
		load sim.Class // what the other nodes stream meanwhile
	}{
		{"in service", sim.Background},
		{"queued", sim.Foreground},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, hub := newQuietRig(t, 6)
			var collected time.Duration
			end := r.run(t, func(p *sim.Proc) {
				if _, err := r.pl.Create(p, "vm-a", spec(t, "alice")); err != nil {
					t.Fatalf("create: %v", err)
				}
				loadNFS(r, r.tb.Nodes[1:], tc.load, p.Now()+time.Minute)
				p.Sleep(extentCopy(r) / 2)
				h := r.pl.live["vm-a"]
				i, landed := h.landed, hub.Counter("plant.hydrated_extents").Value()
				if h.proc == nil || h.proc.State() == sim.ProcDone {
					t.Fatal("no extent in flight")
				}
				if err := r.pl.Collect(p, "vm-a"); err != nil {
					t.Fatal(err)
				}
				collected = p.Now()
				if h.proc.State() != sim.ProcDone {
					t.Errorf("hydrator still alive (state %d) after Collect", h.proc.State())
				}
				if got := hub.Counter("plant.hydrated_extents").Value(); got != landed {
					t.Errorf("hydrated extents %d → %d across Collect: the cut-short extent counted", landed, got)
				}
				if path := fmt.Sprintf("vms/vm-a/disk-s%03d.vmdk", i); r.tb.Nodes[0].LocalDisk().Exists(path) {
					t.Errorf("cut-short extent %s landed", path)
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
