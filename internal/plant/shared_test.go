package plant

import (
	"strings"
	"testing"
	"time"

	"vmplants/internal/cluster"
	"vmplants/internal/core"
	"vmplants/internal/fault"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
	"vmplants/internal/vdisk"
	"vmplants/internal/vmm"
	"vmplants/internal/warehouse"
)

// exactResume takes the spread off the rig's fixed VMM resume cost, so a
// resume that reads nothing takes exactly Timing.ResumeFixedSecs.
func exactResume(r *rig) time.Duration {
	vmw := r.pl.backends[warehouse.BackendVMware].(*vmm.VMware)
	vmw.Timing.ResumeSigma = 0
	return sim.Seconds(vmw.Timing.ResumeFixedSecs)
}

// localReads is how many bytes the node's local disk has served; only a
// resume's read-back of a memory image (or a Suspend's write) moves any.
func localReads(n *cluster.Node) int64 {
	bytes, _, _ := n.LocalDisk().Device().Stats()
	return bytes
}

// lastResume is the plant's most recent creation's clone.resume span.
func lastResume(r *rig) telemetry.Span {
	spans := named(r, "clone.resume")
	return spans[len(spans)-1]
}

// sharedResume says whether a clone.resume span mapped a running VM's
// memory-image pages.
func sharedResume(s telemetry.Span) bool { return s.Attr("shared") == "true" }

// collectAll collects every VM the plant hosts.
func collectAll(t *testing.T, p *sim.Proc, pl *Plant) {
	t.Helper()
	for _, id := range pl.info.IDs() {
		if err := pl.Collect(p, id); err != nil {
			t.Fatalf("collect %s: %v", id, err)
		}
	}
}

// noMappings fails the test when a node still maps a memory image.
func noMappings(t *testing.T, tb *cluster.Testbed) {
	t.Helper()
	for _, n := range tb.Nodes {
		if m := n.Mappings(); m != 0 {
			t.Errorf("%s still holds %d memory-image mappings", n.Name(), m)
		}
	}
}

// A lazy clone created while another VM of the image runs on the node
// maps the pages that VM holds: it reads no memory image back and its
// resume is the fixed VMM cost alone. Once both VMs are collected the
// pages are gone, and the next clone reads the replica again.
func TestCloneBesideRunningVMMapsResidentImage(t *testing.T) {
	r, hub := newQuietRig(t, 1)
	fixed := exactResume(r)
	node := r.tb.Nodes[0]
	golden, _ := r.wh.Lookup("ws-golden")
	shared := hub.Counter("plant.memimage_shared_resumes")
	r.run(t, func(p *sim.Proc) {
		createOrFatal(t, p, r.pl, "vm-a", spec(t, "alice"))
		if rs := lastResume(r); sharedResume(rs) || rs.Virtual() <= fixed {
			t.Errorf("first clone: shared %v, resume %v; want a read-back beyond the fixed %v", sharedResume(rs), rs.Virtual(), fixed)
		}
		read := localReads(node)
		hits, _ := replicaCounts(hub)
		createOrFatal(t, p, r.pl, "vm-b", spec(t, "bob"))
		rs := lastResume(r)
		hit, _ := replicaCounts(hub)
		if !sharedResume(rs) || hit != hits+1 || rs.Virtual() != fixed {
			t.Errorf("clone beside a running VM: shared %v, replica hits %d → %d, resume %v; want a shared hit resuming in exactly %v",
				sharedResume(rs), hits, hit, rs.Virtual(), fixed)
		}
		if got := localReads(node) - read; got != 0 {
			t.Errorf("clone beside a running VM read %d bytes from the local disk, want 0", got)
		}
		if got := node.Mappings(); got != 2 {
			t.Errorf("%d mappings with two VMs running, want 2", got)
		}

		collectAll(t, p, r.pl)
		noMappings(t, r.tb)
		read = localReads(node)
		hits, _ = replicaCounts(hub)
		createOrFatal(t, p, r.pl, "vm-c", spec(t, "carol"))
		rs = lastResume(r)
		if hit, _ := replicaCounts(hub); sharedResume(rs) || hit != hits+1 {
			t.Errorf("clone after every VM left: shared %v, replica hits %d → %d; want an unshared hit", sharedResume(rs), hits, hit)
		}
		if got := localReads(node) - read; got != golden.MemImageBytes() {
			t.Errorf("clone after every VM left read %d bytes, the memory image is %d", got, golden.MemImageBytes())
		}
		collectAll(t, p, r.pl)
	})
	if got := shared.Value(); got != 1 {
		t.Errorf("plant.memimage_shared_resumes = %d, want 1", got)
	}
	noMappings(t, r.tb)
}

// Two clones of one image started at the same instant: the first to
// reach the memory image fills the replica and reads it back, the second
// waits for that operation instead of starting its own, then maps the
// pages. The node's mount carries one memory image, its local disk reads
// one, and the second VM is not usable before the first read ends.
func TestConcurrentClonesFillAndReadOnce(t *testing.T) {
	r, hub := newQuietRig(t, 1)
	fixed := exactResume(r)
	node := r.tb.Nodes[0]
	golden, _ := r.wh.Lookup("ws-golden")
	cfg, _ := r.wh.Volume().Stat(golden.ConfigPath)
	redo, _ := r.wh.Volume().Stat(golden.RedoPath)
	faults := hub.Counter("plant.demand_faults")
	// The kernel drains, so a clone left waiting for a wake-up that never
	// comes strands its process and fails the run.
	r.run(t, func(p *sim.Proc) {
		for _, user := range []string{"alice", "bob"} {
			p.Kernel().Spawn("create-"+user, func(cp *sim.Proc) {
				createOrFatal(t, cp, r.pl, core.VMID("vm-"+user), spec(t, user))
			})
		}
	})
	// The image cache's fill is background work; the rest is the two
	// clones' and their guests' demand faults.
	bytes, background, _ := node.Warehouse().Device().Stats()
	want := 2*(cfg+redo) + golden.MemImageBytes() + faults.Value()*vdisk.BlockSize
	if got := bytes - background; got != want {
		t.Errorf("the mount carried %d foreground bytes, want two configs and redo logs, one memory image and %d faulted blocks = %d",
			got, faults.Value(), want)
	}
	if got := localReads(node); got != golden.MemImageBytes() {
		t.Errorf("the local disk read %d bytes, one memory image is %d", got, golden.MemImageBytes())
	}
	hits, fills := replicaCounts(hub)
	if shared := hub.Counter("plant.memimage_shared_resumes").Value(); hits != 1 || fills != 1 || shared != 1 {
		t.Errorf("replica hits %d, fills %d, shared resumes %d; want 1 each", hits, fills, shared)
	}
	// The reader's read-back ends where its resume span starts plus the
	// read; the sharer's resume span cannot end before that plus the
	// fixed cost.
	var reader, sharer *telemetry.Span
	for _, sp := range hub.T().Spans() {
		if sp.Name == "clone.resume" {
			switch sp.Attr("shared") {
			case "false":
				reader = &sp
			case "true":
				sharer = &sp
			}
		}
	}
	if reader == nil || sharer == nil {
		t.Fatalf("clone.resume spans: reader %v, sharer %v", reader, sharer)
	}
	read := cluster.LocalDiskOverhead + sim.Seconds(float64(golden.MemImageBytes())/r.tb.Params.LocalDiskBps)
	if readEnd := reader.VStart + read; sharer.VEnd < readEnd+fixed {
		t.Errorf("the sharer was usable at %v, before the reader's read-back ended at %v plus the fixed %v", sharer.VEnd, readEnd, fixed)
	}
	r.run(t, func(p *sim.Proc) { collectAll(t, p, r.pl) })
	noMappings(t, r.tb)
}

// Suspend writes the VM's own checkpoint and ends its mapping, so a clone
// after it reads the replica back.
func TestCloneAfterSuspendReads(t *testing.T) {
	r, _ := newQuietRig(t, 1)
	node := r.tb.Nodes[0]
	golden, _ := r.wh.Lookup("ws-golden")
	r.run(t, func(p *sim.Proc) {
		createOrFatal(t, p, r.pl, "vm-a", spec(t, "alice"))
		if err := r.pl.SuspendVM(p, "vm-a"); err != nil {
			t.Fatal(err)
		}
		noMappings(t, r.tb)
		read := localReads(node)
		createOrFatal(t, p, r.pl, "vm-b", spec(t, "bob"))
		if sharedResume(lastResume(r)) {
			t.Error("a clone beside a suspended VM shared its pages")
		}
		if got := localReads(node) - read; got != golden.MemImageBytes() {
			t.Errorf("clone beside a suspended VM read %d bytes, the memory image is %d", got, golden.MemImageBytes())
		}
		collectAll(t, p, r.pl)
	})
	noMappings(t, r.tb)
}

// The resident pages are keyed by checksum as well as replica path. An
// image removed and re-published under its name with a new size starts
// again at epoch 0, so its replica has the old one's name: its clones
// read even while a VM of the old image runs and maps the old bytes.
func TestRepublishedImageNeverMapsOldPages(t *testing.T) {
	r, _ := newQuietRig(t, 1)
	node := r.tb.Nodes[0]
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
	sized := func(user string, memMB int) *core.Spec {
		s := spec(t, user)
		s.Hardware.MemoryMB = memMB
		return s
	}
	old := publish(32)
	r.run(t, func(p *sim.Proc) {
		createOrFatal(t, p, r.pl, "vm-old", sized("alice", 32))
		// Remove refuses an image with live clones: lend vm-old's
		// reference back for the re-publish, so the old VM runs beside
		// the new image.
		old.Unref()
		if err := r.wh.Remove("ws-small"); err != nil {
			t.Fatal(err)
		}
		again := publish(48)
		for _, id := range []core.VMID{"vm-new-1", "vm-new-2"} {
			read := localReads(node)
			createOrFatal(t, p, r.pl, id, sized(string(id), 48))
			if sharedResume(lastResume(r)) {
				t.Errorf("%s mapped the old image's pages", id)
			}
			if got := localReads(node) - read; got != again.MemImageBytes() {
				t.Errorf("%s read %d bytes, the re-published memory image is %d", id, got, again.MemImageBytes())
			}
			if err := r.pl.Collect(p, id); err != nil {
				t.Fatal(err)
			}
		}
		old.Ref()
		collectAll(t, p, r.pl)
	})
	noMappings(t, r.tb)
}

// Link and copy clones copy the memory image per clone and read their
// own copy back: nothing is ever mapped.
func TestLinkAndCopyClonesNeverShare(t *testing.T) {
	for _, mode := range []vdisk.CloneMode{vdisk.CloneByLink, vdisk.CloneByCopy} {
		t.Run(mode.String(), func(t *testing.T) {
			hub := telemetry.New()
			r := newRigOn(t, 1, cluster.DefaultParams(), Config{CloneMode: mode, Telemetry: hub})
			golden, _ := r.wh.Lookup("ws-golden")
			r.run(t, func(p *sim.Proc) {
				createOrFatal(t, p, r.pl, "vm-a", spec(t, "alice"))
				read := localReads(r.tb.Nodes[0])
				createOrFatal(t, p, r.pl, "vm-b", spec(t, "bob"))
				if got := localReads(r.tb.Nodes[0]) - read; got != golden.MemImageBytes() {
					t.Errorf("second clone read %d bytes, the memory image is %d", got, golden.MemImageBytes())
				}
				noMappings(t, r.tb)
				collectAll(t, p, r.pl)
			})
			if got := hub.Counter("plant.memimage_shared_resumes").Value(); got != 0 {
				t.Errorf("%d shared resumes under %v", got, mode)
			}
		})
	}
}

// Every way a mapped VM leaves — a creation rolled back by a clone I/O
// fault or a failed integrity check, a crash and recovery, a pool hit —
// leaves the mapping counts at zero once the VMs are gone.
func TestMappingsReturnToZero(t *testing.T) {
	t.Run("clone-io", func(t *testing.T) {
		reg := fault.NewRegistry(11)
		params := cluster.DefaultParams()
		params.JitterSigma = 0
		r := newRigOn(t, 1, params, Config{CloneMode: vdisk.CloneByLazy, Faults: reg})
		r.run(t, func(p *sim.Proc) {
			createOrFatal(t, p, r.pl, "vm-a", spec(t, "alice"))
			reg.Arm("node00", fault.CloneIO, "", 1)
			if _, err := r.pl.Create(p, "vm-b", spec(t, "bob")); err == nil {
				t.Fatal("create survived the injected clone I/O fault")
			}
			if got := r.tb.Nodes[0].Mappings(); got != 1 {
				t.Errorf("%d mappings after the rolled-back clone, want vm-a's 1", got)
			}
			collectAll(t, p, r.pl)
		})
		noMappings(t, r.tb)
	})
	t.Run("verify", func(t *testing.T) {
		r, _ := newQuietRig(t, 1)
		r.run(t, func(p *sim.Proc) {
			createOrFatal(t, p, r.pl, "vm-a", spec(t, "alice"))
			// A quarantine and repair while vm-b resumes: its clone context's
			// epoch is stale by the integrity check.
			p.Kernel().Spawn("scrub", func(sp *sim.Proc) {
				sp.Sleep(2 * time.Second)
				r.wh.Quarantine("ws-golden", "scrub: checksum mismatch")
				r.wh.Unquarantine("ws-golden")
			})
			if _, err := r.pl.Create(p, "vm-b", spec(t, "bob")); err == nil {
				t.Fatal("create survived a repair during its clone")
			}
			if got := r.tb.Nodes[0].Mappings(); got != 1 {
				t.Errorf("%d mappings after the rolled-back clone, want vm-a's 1", got)
			}
			collectAll(t, p, r.pl)
		})
		noMappings(t, r.tb)
	})
	t.Run("crash", func(t *testing.T) {
		r, _ := newQuietRig(t, 1)
		r.run(t, func(p *sim.Proc) {
			createOrFatal(t, p, r.pl, "vm-a", spec(t, "alice"))
			r.pl.Crash()
			if got := r.tb.Nodes[0].Mappings(); got != 1 {
				t.Errorf("%d mappings across the crash, want the host's 1", got)
			}
			r.pl.Recover(p)
			createOrFatal(t, p, r.pl, "vm-b", spec(t, "bob"))
			if !sharedResume(lastResume(r)) {
				t.Error("a clone after the recovery did not map the surviving VM's pages")
			}
			collectAll(t, p, r.pl)
		})
		noMappings(t, r.tb)
	})
	t.Run("precreate", func(t *testing.T) {
		r, _ := newQuietRig(t, 1)
		r.run(t, func(p *sim.Proc) {
			if err := r.pl.Precreate(p, "ws-golden", 1); err != nil {
				t.Fatal(err)
			}
			createOrFatal(t, p, r.pl, "vm-pool", spec(t, "alice")) // the parked clone
			noMappings(t, r.tb)
			createOrFatal(t, p, r.pl, "vm-a", spec(t, "bob"))
			collectAll(t, p, r.pl)
		})
		noMappings(t, r.tb)
	})
}

// A clone that fails while laying its state down deletes what it laid
// down: the plant's undo list only reaches a VM the clone returned.
func TestFailedCloneLeavesNoFiles(t *testing.T) {
	redo := func(im *warehouse.Image) string { return im.RedoPath }
	memory := func(im *warehouse.Image) string { return im.MemImagePath }
	for _, tc := range []struct {
		name    string
		mode    vdisk.CloneMode
		missing func(*warehouse.Image) string
	}{
		{"lazy/redo", vdisk.CloneByLazy, redo},
		{"link/redo", vdisk.CloneByLink, redo},
		{"link/memory", vdisk.CloneByLink, memory},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, Config{CloneMode: tc.mode})
			im, _ := r.wh.Lookup("ws-golden")
			local := r.tb.Nodes[0].LocalDisk()
			r.run(t, func(p *sim.Proc) {
				// The first clone verifies the image's epoch, so the second
				// opens it without re-verifying.
				createOrFatal(t, p, r.pl, "vm-a", spec(t, "alice"))
				if err := r.wh.Volume().Delete(tc.missing(im)); err != nil {
					t.Fatal(err)
				}
				if _, err := r.pl.Create(p, "vm-b", spec(t, "bob")); err == nil {
					t.Fatal("clone without its golden state succeeded")
				}
			})
			for _, path := range local.List() {
				if strings.HasPrefix(path, "vms/vm-b/") {
					t.Errorf("the failed clone left %s", path)
				}
			}
		})
	}
}
