package plant

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"vmplants/internal/cluster"
	"vmplants/internal/core"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
	"vmplants/internal/telemetry"
	"vmplants/internal/vdisk"
	"vmplants/internal/warehouse"
)

// replicas splits the files on a node's local disk into its
// memory-image replicas and everything else.
func replicas(local *storage.Volume) (cache, other []string) {
	for _, path := range local.List() {
		if strings.HasPrefix(path, warehouse.ReplicaDir) {
			cache = append(cache, path)
		} else {
			other = append(other, path)
		}
	}
	return cache, other
}

// replicaCounts reads the plant's replica counters.
func replicaCounts(hub *telemetry.Hub) (hits, fills int64) {
	return hub.Counter("plant.memimage_replica_hits").Value(), hub.Counter("plant.memimage_replica_fills").Value()
}

func createOrFatal(t *testing.T, p *sim.Proc, pl *Plant, id core.VMID, s *core.Spec) {
	t.Helper()
	if _, err := pl.Create(p, id, s); err != nil {
		t.Fatalf("create %s: %v", id, err)
	}
}

// A node pulls a golden memory image over NFS once. The second lazy clone
// of the image resumes from the node's replica: its state copy takes the
// first's time minus exactly the memory image's copy, and the node's NFS
// mount carries only its config and redo log in the foreground (beside
// the guest's demand-faulted blocks).
func TestSecondLazyCloneResumesFromReplica(t *testing.T) {
	r, hub := newQuietRig(t, 1)
	golden, _ := r.wh.Lookup("ws-golden")
	cfg, _ := r.wh.Volume().Stat(golden.ConfigPath)
	redo, _ := r.wh.Volume().Stat(golden.RedoPath)
	mount := r.tb.Nodes[0].Warehouse().Device()
	foreground := func() int64 {
		bytes, background, _ := mount.Stats()
		return bytes - background
	}
	faults := hub.Counter("plant.demand_faults")
	r.run(t, func(p *sim.Proc) {
		createOrFatal(t, p, r.pl, "vm-a", spec(t, "alice"))
		fg, f := foreground(), faults.Value()
		createOrFatal(t, p, r.pl, "vm-b", spec(t, "bob"))
		if got, want := foreground()-fg, cfg+redo+(faults.Value()-f)*vdisk.BlockSize; got != want {
			t.Errorf("second clone moved %d foreground bytes over NFS, want config %d + redo %d + %d faulted blocks = %d",
				got, cfg, redo, faults.Value()-f, want)
		}
	})
	copies := named(r, "clone.copy")
	if got, want := copies[0].Virtual()-copies[1].Virtual(), fromWarehouse(r, golden.MemImageBytes()); got != want {
		t.Errorf("state copies %v then %v: the replica saved %v, the memory image's copy takes %v",
			copies[0].Virtual(), copies[1].Virtual(), got, want)
	}
	if got, want := named(r, "clone")[1].Attr("bytes_copied"), strconv.FormatInt(cfg+redo, 10); got != want {
		t.Errorf("second clone copied %s bytes, want config + redo = %s", got, want)
	}
	if hits, fills := replicaCounts(hub); hits != 1 || fills != 1 {
		t.Errorf("replica hits %d, fills %d; want 1 and 1", hits, fills)
	}
}

// A quarantine and a repair between two clones advance the image's
// epoch: the second clone refills, and the stale replica is gone.
func TestQuarantineAndRepairForceRefill(t *testing.T) {
	r, hub := newQuietRig(t, 1)
	local := r.tb.Nodes[0].LocalDisk()
	var stale []string
	r.run(t, func(p *sim.Proc) {
		createOrFatal(t, p, r.pl, "vm-a", spec(t, "alice"))
		stale, _ = replicas(local)
		if !r.wh.Quarantine("ws-golden", "scrub: checksum mismatch") || !r.wh.Unquarantine("ws-golden") {
			t.Fatal("quarantine and repair refused")
		}
		createOrFatal(t, p, r.pl, "vm-b", spec(t, "bob"))
	})
	golden, _ := r.wh.Lookup("ws-golden")
	want := warehouse.ReplicaDir + "ws-golden@" + "2.vmss"
	if golden.Epoch() != 2 || len(stale) != 1 || stale[0] == want {
		t.Fatalf("epoch %d, replicas before the repair %q", golden.Epoch(), stale)
	}
	if got, _ := replicas(local); len(got) != 1 || got[0] != want {
		t.Errorf("replicas after the refill %q, want only %q", got, want)
	}
	if hits, fills := replicaCounts(hub); hits != 0 || fills != 2 {
		t.Errorf("replica hits %d, fills %d; want 0 and 2", hits, fills)
	}
}

// The replica of a removed image outlives the image only until the
// node's next miss.
func TestRemovedImageReplicaDeletedByNextMiss(t *testing.T) {
	r, _ := newQuietRig(t, 1)
	small, err := warehouse.BuildGolden("ws-small", core.HardwareSpec{Arch: "x86", MemoryMB: 32, DiskMB: 2048},
		warehouse.BackendVMware, goldenHistory())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.wh.Publish(small); err != nil {
		t.Fatal(err)
	}
	local := r.tb.Nodes[0].LocalDisk()
	r.run(t, func(p *sim.Proc) {
		s := spec(t, "alice")
		s.Hardware.MemoryMB = 32
		createOrFatal(t, p, r.pl, "vm-a", s)
		if err := r.pl.Collect(p, "vm-a"); err != nil {
			t.Fatal(err)
		}
		if err := r.wh.Remove("ws-small"); err != nil {
			t.Fatal(err)
		}
		if got, _ := replicas(local); len(got) != 1 || !r.wh.StaleReplica(got[0]) {
			t.Errorf("replicas after the removal %q, want the removed image's, stale", got)
		}
		createOrFatal(t, p, r.pl, "vm-b", spec(t, "bob"))
	})
	if got, _ := replicas(local); len(got) != 1 || got[0] != warehouse.ReplicaDir+"ws-golden@0.vmss" {
		t.Errorf("replicas after the next miss %q, want only ws-golden's", got)
	}
}

// An image removed and re-published under its name starts again at epoch
// 0, so its replica's name is the old one's: the checksum is what keeps
// the new image's clones off the old bytes.
func TestRepublishedImageRefills(t *testing.T) {
	r, hub := newQuietRig(t, 1)
	publish := func(memMB int) *warehouse.Image {
		im, err := warehouse.BuildGolden("ws-small", core.HardwareSpec{Arch: "x86", MemoryMB: memMB, DiskMB: 2048},
			warehouse.BackendVMware, goldenHistory())
		if err != nil {
			t.Fatal(err)
		}
		if err := r.wh.Publish(im); err != nil {
			t.Fatal(err)
		}
		return im
	}
	publish(32)
	local := r.tb.Nodes[0].LocalDisk()
	var again *warehouse.Image
	r.run(t, func(p *sim.Proc) {
		for i, memMB := range []int{32, 48} {
			s := spec(t, "alice")
			s.Hardware.MemoryMB = memMB
			id := core.VMID("vm-" + string(rune('a'+i)))
			createOrFatal(t, p, r.pl, id, s)
			if err := r.pl.Collect(p, id); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				if err := r.wh.Remove("ws-small"); err != nil {
					t.Fatal(err)
				}
				again = publish(48)
			}
		}
	})
	cache, _ := replicas(local)
	if len(cache) != 1 || cache[0] != warehouse.ReplicaDir+"ws-small@0.vmss" {
		t.Fatalf("replicas %q", cache)
	}
	if size, _ := local.Stat(cache[0]); size != again.MemImageBytes() {
		t.Errorf("replica holds %d bytes, the re-published image's memory is %d", size, again.MemImageBytes())
	}
	if hits, fills := replicaCounts(hub); hits != 0 || fills != 2 {
		t.Errorf("replica hits %d, fills %d; want 0 and 2", hits, fills)
	}
}

// Suspending a VM resumed from the replica writes the VM's own
// checkpoint; the replica stays as it was and keeps serving clones.
func TestSuspendLeavesReplicaIntact(t *testing.T) {
	r, hub := newQuietRig(t, 1)
	local := r.tb.Nodes[0].LocalDisk()
	const mem = "vms/vm-a/mem.vmss"
	r.run(t, func(p *sim.Proc) {
		createOrFatal(t, p, r.pl, "vm-a", spec(t, "alice"))
		cache, _ := replicas(local)
		replica := cache[0]
		size, _ := local.Stat(replica)
		sum, _ := local.Checksum(replica)
		if !local.IsLink(mem) {
			t.Errorf("%s is not a link to the replica", mem)
		}
		if err := r.pl.SuspendVM(p, "vm-a"); err != nil {
			t.Fatal(err)
		}
		if local.IsLink(mem) {
			t.Errorf("suspend left %s a link: the checkpoint went into the replica", mem)
		}
		size2, _ := local.Stat(replica)
		sum2, _ := local.Checksum(replica)
		if size2 != size || sum2 != sum {
			t.Errorf("replica %s went from %d bytes sum %x to %d bytes sum %x across a suspend", replica, size, sum, size2, sum2)
		}
		if err := r.pl.ResumeVM(p, "vm-a"); err != nil {
			t.Fatal(err)
		}
		createOrFatal(t, p, r.pl, "vm-b", spec(t, "bob"))
	})
	if hits, fills := replicaCounts(hub); hits != 1 || fills != 1 {
		t.Errorf("replica hits %d, fills %d; want 1 and 1", hits, fills)
	}
}

// The replica's key is stateless, so a restarted plant daemon still hits.
func TestReplicaHitsAfterCrashAndRecover(t *testing.T) {
	r, hub := newQuietRig(t, 1)
	r.run(t, func(p *sim.Proc) {
		createOrFatal(t, p, r.pl, "vm-a", spec(t, "alice"))
		r.pl.Crash()
		if n := r.pl.Recover(p); n != 1 {
			t.Errorf("recovered %d VMs, want 1", n)
		}
		createOrFatal(t, p, r.pl, "vm-b", spec(t, "bob"))
	})
	if hits, fills := replicaCounts(hub); hits != 1 || fills != 1 {
		t.Errorf("replica hits %d, fills %d; want 1 and 1", hits, fills)
	}
}

// Collecting a VM deletes its files from the node's local disk, in every
// clone mode: a hydrated lazy clone, one collected mid-hydration, and a
// suspended-then-resumed VM's own checkpoint. Only lazy cloning leaves
// anything behind — the memory-image replica — and link and copy clones,
// whose per-clone copy the paper's figures measure, never make one.
func TestCollectLeavesOnlyReplicas(t *testing.T) {
	for _, mode := range []vdisk.CloneMode{vdisk.CloneByLazy, vdisk.CloneByLink, vdisk.CloneByCopy} {
		t.Run(mode.String(), func(t *testing.T) {
			hub := telemetry.New()
			r := newRigOn(t, 1, cluster.DefaultParams(), Config{CloneMode: mode, Telemetry: hub})
			r.run(t, func(p *sim.Proc) {
				createOrFatal(t, p, r.pl, "vm-a", spec(t, "alice"))
				if err := r.pl.SuspendVM(p, "vm-a"); err != nil {
					t.Fatal(err)
				}
				if err := r.pl.ResumeVM(p, "vm-a"); err != nil {
					t.Fatal(err)
				}
				p.Sleep(10 * time.Minute) // vm-a's extents all land
				createOrFatal(t, p, r.pl, "vm-b", spec(t, "bob"))
				if err := r.pl.Precreate(p, "ws-golden", 1); err != nil {
					t.Fatal(err)
				}
				createOrFatal(t, p, r.pl, "vm-c", spec(t, "carol")) // the parked clone
				for _, id := range []core.VMID{"vm-a", "vm-b", "vm-c"} {
					if err := r.pl.Collect(p, id); err != nil {
						t.Fatal(err)
					}
				}
			})
			want := 0
			if mode == vdisk.CloneByLazy {
				want = 1
			}
			cache, other := replicas(r.tb.Nodes[0].LocalDisk())
			if len(cache) != want || len(other) != 0 {
				t.Errorf("after collecting every VM the local disk holds replicas %q and files %q; want %d replicas, no other file", cache, other, want)
			}
			if hits, fills := replicaCounts(hub); hits+fills != int64(want+want) {
				t.Errorf("replica hits %d, fills %d under %v", hits, fills, mode)
			}
		})
	}
}
