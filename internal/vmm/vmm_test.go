package vmm

import (
	"maps"
	"strings"
	"testing"
	"time"

	"vmplants/internal/actions"
	"vmplants/internal/cluster"
	"vmplants/internal/core"
	"vmplants/internal/dag"
	"vmplants/internal/sim"
	"vmplants/internal/simnet"
	"vmplants/internal/vdisk"
	"vmplants/internal/warehouse"
)

func act(op string, kv ...string) dag.Action {
	p := map[string]string{}
	for i := 0; i+1 < len(kv); i += 2 {
		p[kv[i]] = kv[i+1]
	}
	tgt, _ := actions.DefaultTarget(op)
	return dag.Action{Op: op, Target: tgt, Params: p}
}

// rig is a one-node testbed with a published golden image.
type rig struct {
	k      *sim.Kernel
	tb     *cluster.Testbed
	wh     *warehouse.Warehouse
	golden *warehouse.CloneContext
}

func newRig(t *testing.T, backend string, memMB int) *rig {
	t.Helper()
	k := sim.NewKernel()
	tb := cluster.NewTestbed(k, 1, cluster.DefaultParams(), 11)
	wh := warehouse.New(tb.Warehouse)
	im, err := warehouse.BuildGolden("golden-ws",
		core.HardwareSpec{Arch: "x86", MemoryMB: memMB, DiskMB: 2048},
		backend,
		[]dag.Action{
			act(actions.OpInstallOS, "distro", "mandrake-8.1"),
			act(actions.OpInstallPackage, "name", "vnc-server"),
			act(actions.OpConfigureService, "name", "vnc"),
			act(actions.OpStartService, "name", "vnc"),
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := wh.Publish(im); err != nil {
		t.Fatal(err)
	}
	cctx, err := wh.OpenClone(im.Name)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, tb: tb, wh: wh, golden: cctx}
}

// inSim runs body as a simulation process to completion.
func (r *rig) inSim(t *testing.T, body func(p *sim.Proc)) time.Duration {
	t.Helper()
	r.k.Spawn("test", body)
	res := r.k.Run(0)
	if len(res.Stranded) != 0 {
		t.Fatalf("stranded: %v", res.Stranded)
	}
	return res.End
}

func TestVMwareCloneResumesWithGoldenState(t *testing.T) {
	r := newRig(t, warehouse.BackendVMware, 64)
	var vm *VM
	var stats CloneStats
	r.inSim(t, func(p *sim.Proc) {
		var err error
		vm, stats, err = NewVMware().Clone(p, r.tb.Nodes[0], r.golden, "vm-t-1", vdisk.CloneByLink)
		if err != nil {
			t.Errorf("clone: %v", err)
		}
	})
	if vm.State() != Running {
		t.Errorf("state = %v", vm.State())
	}
	if vm.Guest().OS != "mandrake-8.1" || !vm.Guest().Packages["vnc-server"] {
		t.Errorf("guest state: %s", vm.Guest().Summary())
	}
	if vm.Guest().Services["vnc"] != "running" {
		t.Error("resumed clone lost running service")
	}
	// Clone content equals golden content.
	if vm.Disk().ContentHash() != r.golden.Image.Disk.ContentHash() {
		t.Error("clone disk content differs from golden")
	}
	// Link cloning: 16 extents linked, only small state copied.
	if stats.LinkedFiles != warehouse.DiskSpanFiles {
		t.Errorf("linked %d files", stats.LinkedFiles)
	}
	if stats.CopiedBytes > 100*1024*1024 {
		t.Errorf("link clone copied %d bytes", stats.CopiedBytes)
	}
	// Host memory committed.
	if r.tb.Nodes[0].VMs() != 1 {
		t.Error("node memory not committed")
	}
	// The timing envelope: a 64 MB clone on an idle node lands well
	// under a minute (paper Figure 5).
	if stats.Total < 5*time.Second || stats.Total > 40*time.Second {
		t.Errorf("64MB clone took %v", stats.Total)
	}
}

func TestVMwareCloneGuestIndependentOfGolden(t *testing.T) {
	r := newRig(t, warehouse.BackendVMware, 32)
	r.inSim(t, func(p *sim.Proc) {
		vm, _, err := NewVMware().Clone(p, r.tb.Nodes[0], r.golden, "vm-t-1", vdisk.CloneByLink)
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.ExecGuestAction(p, act(actions.OpCreateUser, "name", "ivan")); err != nil {
			t.Fatal(err)
		}
		if r.golden.Image.Guest.Users["ivan"] {
			t.Error("clone guest mutation leaked into golden image")
		}
	})
}

func TestCloneByCopyMovesFullDisk(t *testing.T) {
	r := newRig(t, warehouse.BackendVMware, 32)
	var stats CloneStats
	took := r.inSim(t, func(p *sim.Proc) {
		_, s, err := NewVMware().Clone(p, r.tb.Nodes[0], r.golden, "vm-t-1", vdisk.CloneByCopy)
		if err != nil {
			t.Fatal(err)
		}
		stats = s
	})
	if stats.CopiedBytes < 2<<30 {
		t.Errorf("copy clone moved %d bytes", stats.CopiedBytes)
	}
	// The paper: 2 GB at NFS speed ≈ 210 s; total well above any link
	// clone.
	if took < 180*time.Second {
		t.Errorf("full copy took only %v", took)
	}
}

func TestUMLCloneBootsAt76Seconds(t *testing.T) {
	r := newRig(t, warehouse.BackendUML, 32)
	var stats CloneStats
	r.inSim(t, func(p *sim.Proc) {
		vm, s, err := NewUML().Clone(p, r.tb.Nodes[0], r.golden, "vm-t-1", vdisk.CloneByLink)
		if err != nil {
			t.Fatal(err)
		}
		stats = s
		// Booted guest: installed but services not running.
		if vm.Guest().Services["vnc"] != "configured" {
			t.Errorf("booted service state = %q", vm.Guest().Services["vnc"])
		}
	})
	secs := stats.Total.Seconds()
	if secs < 60 || secs > 95 {
		t.Errorf("UML clone took %.1fs, want ≈76s", secs)
	}
}

func TestBackendImageMismatch(t *testing.T) {
	r := newRig(t, warehouse.BackendVMware, 32)
	r.inSim(t, func(p *sim.Proc) {
		if _, _, err := NewUML().Clone(p, r.tb.Nodes[0], r.golden, "vm-x", vdisk.CloneByLink); err == nil {
			t.Error("UML line cloned a vmware image")
		}
	})
}

func TestMemoryPressureSlowsSuccessiveClones(t *testing.T) {
	// 16 × 64 MB clones on a 1.5 GB node: later resumes are slower.
	r := newRig(t, warehouse.BackendVMware, 64)
	var totals []time.Duration
	r.inSim(t, func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			_, s, err := NewVMware().Clone(p, r.tb.Nodes[0], r.golden,
				core.VMID(strings.Join([]string{"vm", string(rune('a' + i))}, "-")), vdisk.CloneByLink)
			if err != nil {
				t.Fatal(err)
			}
			totals = append(totals, s.Total)
		}
	})
	early := (totals[0] + totals[1] + totals[2]) / 3
	late := (totals[13] + totals[14] + totals[15]) / 3
	if late <= early {
		t.Errorf("no pressure growth: early %v late %v", early, late)
	}
}

func TestScriptRoundTrip(t *testing.T) {
	a := act(actions.OpCreateUser, "name", "arijit", "password", "x")
	got, err := ParseScript(AppendScript(nil, a))
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != a.Op || got.Target != a.Target || got.Params["name"] != "arijit" || got.Params["password"] != "x" {
		t.Errorf("round trip: %+v", got)
	}
	// A parameter that arrived over the wire with a line break in it, or
	// a key with '=' in it, comes back as it went in.
	for _, a := range []dag.Action{
		act(actions.OpCreateUser, "name", "eve\nop=install-os"),
		act(actions.OpCreateUser, "name", "eve", "x=y", "z"),
		act(actions.OpCreateUser, "name", `back\slash\n`, "cr\r", "\r\n=", `\=`, `\`, `\e`, `=\e`),
		{Op: "odd\nop=x\\", Target: dag.Host},
	} {
		got, err := ParseScript(AppendScript(nil, a))
		if err != nil {
			t.Fatalf("%q: %v", AppendScript(nil, a), err)
		}
		if got.Op != a.Op || got.Target != a.Target || !maps.Equal(got.Params, a.Params) {
			t.Errorf("round trip of %+v: %+v\n%q", a, got, AppendScript(nil, a))
		}
	}
	// Ordinary text is written as it is.
	if got := string(AppendScript(nil, a)); got != "#!vmplant-action\nop=create-user\ntarget=guest\nparam.name=arijit\nparam.password=x\n" {
		t.Errorf("script = %q", got)
	}
}

func TestParseScriptErrors(t *testing.T) {
	cases := []string{
		"",
		"#!/bin/sh\nrm -rf /",
		"#!vmplant-action\nbogus-line-without-equals",
		"#!vmplant-action\nmystery=1",
		"#!vmplant-action\ntarget=guest", // no op
		"#!vmplant-action\nop=x\ntarget=jupiter",
	}
	for _, src := range cases {
		if _, err := ParseScript([]byte(src)); err == nil {
			t.Errorf("ParseScript(%q) succeeded", src)
		}
	}
}

func TestConfigCDDeliversActionsInOrder(t *testing.T) {
	r := newRig(t, warehouse.BackendVMware, 32)
	r.inSim(t, func(p *sim.Proc) {
		vm, _, err := NewVMware().Clone(p, r.tb.Nodes[0], r.golden, "vm-t-1", vdisk.CloneByLink)
		if err != nil {
			t.Fatal(err)
		}
		plan := []dag.Action{
			act(actions.OpConfigureNetwork, "ip", "10.0.0.9", "mac", "00:50:56:aa"),
			act(actions.OpCreateUser, "name", "arijit"),
			act(actions.OpMountFS, "source", "nfs:/home/arijit", "mountpoint", "/home/arijit"),
		}
		cd, err := BuildConfigCD(plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.AttachCD(p, cd); err != nil {
			t.Fatal(err)
		}
		got := vm.CDActions()
		if len(got) != 3 || got[0].Op != actions.OpConfigureNetwork || got[2].Op != actions.OpMountFS {
			t.Fatalf("CD actions = %+v", got)
		}
		// Double attach refused; execute then detach.
		if err := vm.AttachCD(p, cd); err == nil {
			t.Error("double attach accepted")
		}
		for _, a := range got {
			if err := vm.ExecGuestAction(p, a); err != nil {
				t.Fatal(err)
			}
		}
		if vm.Guest().IP != "10.0.0.9" || !vm.Guest().Users["arijit"] {
			t.Errorf("guest after config: %s", vm.Guest().Summary())
		}
		if err := vm.DetachCD(p); err != nil {
			t.Fatal(err)
		}
		if err := vm.DetachCD(p); err == nil {
			t.Error("double detach accepted")
		}
	})
}

func TestAttachCDRejectsCorruptImage(t *testing.T) {
	r := newRig(t, warehouse.BackendVMware, 32)
	r.inSim(t, func(p *sim.Proc) {
		vm, _, err := NewVMware().Clone(p, r.tb.Nodes[0], r.golden, "vm-t-1", vdisk.CloneByLink)
		if err != nil {
			t.Fatal(err)
		}
		cd, _ := BuildConfigCD([]dag.Action{act(actions.OpCreateUser, "name", "u")})
		cd[len(cd)-6] ^= 0xFF
		if err := vm.AttachCD(p, cd); err == nil {
			t.Error("corrupt CD accepted")
		}
	})
}

func TestNICEchoProbe(t *testing.T) {
	r := newRig(t, warehouse.BackendVMware, 32)
	r.inSim(t, func(p *sim.Proc) {
		vm, _, err := NewVMware().Clone(p, r.tb.Nodes[0], r.golden, "vm-t-1", vdisk.CloneByLink)
		if err != nil {
			t.Fatal(err)
		}
		pool := simnet.NewNetPool("vmnet", 1)
		net, _, _ := pool.Acquire("ufl.edu")
		mac := simnet.MAC{0x00, 0x50, 0x56, 0, 0, 1}
		if err := vm.AttachNIC(net, mac); err != nil {
			t.Fatal(err)
		}
		if err := vm.AttachNIC(net, mac); err == nil {
			t.Error("double NIC attach accepted")
		}
		probe := net.Switch.Attach("probe")
		probe.Send(simnet.Frame{Src: simnet.MAC{9}, Dst: mac, EtherType: simnet.EtherTypeTest, Payload: []byte("ping")})
		f, ok := probe.Poll()
		if !ok || string(f.Payload) != "echo:ping" || f.Src != mac {
			t.Errorf("probe reply = %+v ok=%v", f, ok)
		}
		// A stopped VM goes silent.
		if err := vm.Collect(p); err != nil {
			t.Fatal(err)
		}
		probe.Send(simnet.Frame{Src: simnet.MAC{9}, Dst: mac, EtherType: simnet.EtherTypeTest, Payload: []byte("ping")})
		if _, ok := probe.Poll(); ok {
			t.Error("collected VM replied to probe")
		}
	})
}

func TestCollectReleasesResources(t *testing.T) {
	r := newRig(t, warehouse.BackendVMware, 64)
	r.inSim(t, func(p *sim.Proc) {
		vm, _, err := NewVMware().Clone(p, r.tb.Nodes[0], r.golden, "vm-t-1", vdisk.CloneByLink)
		if err != nil {
			t.Fatal(err)
		}
		vm.ExecGuestAction(p, act(actions.OpCreateUser, "name", "u"))
		if err := vm.Collect(p); err != nil {
			t.Fatal(err)
		}
		if r.tb.Nodes[0].VMs() != 0 {
			t.Error("node memory not released")
		}
		if err := vm.Collect(p); err == nil {
			t.Error("double collect accepted")
		}
		// Guest agent unreachable after collection.
		if err := vm.ExecGuestAction(p, act(actions.OpCreateUser, "name", "v")); err == nil {
			t.Error("guest action on stopped VM succeeded")
		}
	})
}

func TestSuspendWritesMemoryImage(t *testing.T) {
	r := newRig(t, warehouse.BackendVMware, 32)
	r.inSim(t, func(p *sim.Proc) {
		vm, _, err := NewVMware().Clone(p, r.tb.Nodes[0], r.golden, "vm-t-1", vdisk.CloneByLink)
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Suspend(p); err != nil {
			t.Fatal(err)
		}
		if vm.State() != Suspended {
			t.Errorf("state = %v", vm.State())
		}
		if err := vm.Suspend(p); err == nil {
			t.Error("double suspend accepted")
		}
	})
}

// A suspended VM holds no host memory, so collecting it must not give
// any back: with a second VM on the node the old double release took
// that VM's memory, alone it failed and left the VM uncollected.
func TestCollectSuspendedReleasesNoMemory(t *testing.T) {
	r := newRig(t, warehouse.BackendVMware, 32)
	r.inSim(t, func(p *sim.Proc) {
		node := r.tb.Nodes[0]
		parked, _, err := NewVMware().Clone(p, node, r.golden, "vm-t-1", vdisk.CloneByLink)
		if err != nil {
			t.Fatal(err)
		}
		if err := parked.Suspend(p); err != nil {
			t.Fatal(err)
		}
		if err := parked.Collect(p); err != nil || parked.State() != Stopped {
			t.Fatalf("collect of a lone suspended VM: %v (state %v)", err, parked.State())
		}
		if _, _, err := NewVMware().Clone(p, node, r.golden, "vm-t-2", vdisk.CloneByLink); err != nil {
			t.Fatal(err)
		}
		parked, _, err = NewVMware().Clone(p, node, r.golden, "vm-t-3", vdisk.CloneByLink)
		if err != nil {
			t.Fatal(err)
		}
		if err := parked.Suspend(p); err != nil {
			t.Fatal(err)
		}
		free := node.FreeMB()
		if err := parked.Collect(p); err != nil {
			t.Fatal(err)
		}
		if node.VMs() != 1 || node.FreeMB() != free {
			t.Errorf("after collecting the parked VM: %d VMs, %d MB free; want 1 VM, %d MB", node.VMs(), node.FreeMB(), free)
		}
	})
}

func TestRegistryResolution(t *testing.T) {
	reg := DefaultRegistry()
	b, err := reg.Get("")
	if err != nil || b.Name() != warehouse.BackendVMware {
		t.Errorf("default backend = %v, %v", b, err)
	}
	if _, err := reg.Get("uml"); err != nil {
		t.Errorf("uml: %v", err)
	}
	if _, err := reg.Get("xen"); err == nil {
		t.Error("unknown backend resolved")
	}
}

func TestCloneTimeScalesWithMemorySize(t *testing.T) {
	measure := func(memMB int) time.Duration {
		r := newRig(t, warehouse.BackendVMware, memMB)
		var total time.Duration
		r.inSim(t, func(p *sim.Proc) {
			_, s, err := NewVMware().Clone(p, r.tb.Nodes[0], r.golden, "vm-m", vdisk.CloneByLink)
			if err != nil {
				t.Fatal(err)
			}
			total = s.Total
		})
		return total
	}
	t32, t64, t256 := measure(32), measure(64), measure(256)
	if !(t32 < t64 && t64 < t256) {
		t.Errorf("clone times not ordered: 32MB=%v 64MB=%v 256MB=%v", t32, t64, t256)
	}
}

func TestSuspendResumeRoundTrip(t *testing.T) {
	r := newRig(t, warehouse.BackendVMware, 64)
	r.inSim(t, func(p *sim.Proc) {
		vm, _, err := NewVMware().Clone(p, r.tb.Nodes[0], r.golden, "vm-t-1", vdisk.CloneByLink)
		if err != nil {
			t.Fatal(err)
		}
		committed := r.tb.Nodes[0].CommittedMB()
		if err := vm.Suspend(p); err != nil {
			t.Fatal(err)
		}
		if r.tb.Nodes[0].CommittedMB() != 0 {
			t.Errorf("suspend left %d MB committed", r.tb.Nodes[0].CommittedMB())
		}
		// Guest agent unreachable while suspended.
		if err := vm.ExecGuestAction(p, act(actions.OpCreateUser, "name", "u")); err == nil {
			t.Error("guest action on suspended VM succeeded")
		}
		if err := vm.Resume(p); err != nil {
			t.Fatal(err)
		}
		if r.tb.Nodes[0].CommittedMB() != committed {
			t.Errorf("resume committed %d MB, want %d", r.tb.Nodes[0].CommittedMB(), committed)
		}
		if vm.State() != Running {
			t.Errorf("state = %v", vm.State())
		}
		// Double resume is an error.
		if err := vm.Resume(p); err == nil {
			t.Error("resume of running VM succeeded")
		}
		// Guest state intact across the round trip.
		if vm.Guest().OS != "mandrake-8.1" {
			t.Error("guest state lost across suspend/resume")
		}
	})
}

func TestUMLSuspendResumeSBUMLStyle(t *testing.T) {
	// The UML backend has no memory image at clone time; the first
	// suspend creates an SBUML-style checkpoint it can resume from.
	r := newRig(t, warehouse.BackendUML, 32)
	r.inSim(t, func(p *sim.Proc) {
		vm, _, err := NewUML().Clone(p, r.tb.Nodes[0], r.golden, "vm-t-1", vdisk.CloneByLink)
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Suspend(p); err != nil {
			t.Fatal(err)
		}
		start := p.Now()
		if err := vm.Resume(p); err != nil {
			t.Fatal(err)
		}
		// Resume is far below the ≈76 s boot.
		if took := p.Now() - start; took > 30*time.Second {
			t.Errorf("SBUML-style resume took %v", took)
		}
	})
}

func TestRebrandOnlyWhileSuspended(t *testing.T) {
	r := newRig(t, warehouse.BackendVMware, 32)
	r.inSim(t, func(p *sim.Proc) {
		vm, _, err := NewVMware().Clone(p, r.tb.Nodes[0], r.golden, "vm-old", vdisk.CloneByLink)
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Rebrand("vm-new", "n"); err == nil {
			t.Error("rebrand of running VM succeeded")
		}
		vm.Suspend(p)
		if err := vm.Rebrand("vm-new", "n"); err != nil {
			t.Fatal(err)
		}
		if vm.ID() != "vm-new" {
			t.Errorf("ID = %s", vm.ID())
		}
	})
}
