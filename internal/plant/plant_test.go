package plant

import (
	"strings"
	"testing"
	"time"

	"vmplants/internal/actions"
	"vmplants/internal/classad"
	"vmplants/internal/cluster"
	"vmplants/internal/core"
	"vmplants/internal/dag"
	"vmplants/internal/sim"
	"vmplants/internal/telemetry"
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

// workspaceGraph is the request DAG: golden history (OS+VNC) plus
// per-instance personalization.
func workspaceGraph(t testing.TB, user string) *dag.Graph {
	t.Helper()
	g, err := dag.NewBuilder().
		Add("os", act(actions.OpInstallOS, "distro", "mandrake-8.1")).
		Add("vnc", act(actions.OpInstallPackage, "name", "vnc-server"), "os").
		Add("net", act(actions.OpConfigureNetwork, "ip", "10.1.0.7"), "vnc").
		Add("user", act(actions.OpCreateUser, "name", user), "net").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func goldenHistory() []dag.Action {
	return []dag.Action{
		act(actions.OpInstallOS, "distro", "mandrake-8.1"),
		act(actions.OpInstallPackage, "name", "vnc-server"),
	}
}

type rig struct {
	k  *sim.Kernel
	tb *cluster.Testbed
	wh *warehouse.Warehouse
	pl *Plant
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	return newRigOn(t, 1, cluster.DefaultParams(), cfg)
}

// newRigOn is a plant on node 0 of a testbed of the given size and
// timing; the other nodes are there to load the NFS server. prep, when
// given, shapes the golden image before it is published.
func newRigOn(t *testing.T, nodes int, params cluster.Params, cfg Config, prep ...func(*warehouse.Image)) *rig {
	t.Helper()
	k := sim.NewKernel()
	tb := cluster.NewTestbed(k, nodes, params, 5)
	wh := warehouse.New(tb.Warehouse)
	hw := core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: 2048}
	im, err := warehouse.BuildGolden("ws-golden", hw, warehouse.BackendVMware, goldenHistory())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range prep {
		f(im)
	}
	if err := wh.Publish(im); err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, tb: tb, wh: wh, pl: New("node00", tb.Nodes[0], wh, cfg)}
}

// named returns the plant's finished spans of one name, in end order
// (none without a telemetry hub).
func named(r *rig, name string) []telemetry.Span {
	var out []telemetry.Span
	for _, s := range r.pl.tel.T().Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func (r *rig) run(t *testing.T, body func(p *sim.Proc)) time.Duration {
	t.Helper()
	r.k.Spawn("test", body)
	res := r.k.Run(0)
	if len(res.Stranded) != 0 {
		t.Fatalf("stranded: %v", res.Stranded)
	}
	return res.End
}

func spec(t testing.TB, user string) *core.Spec {
	return &core.Spec{
		Name:     "ws-" + user,
		Hardware: core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: 2048},
		Domain:   "ufl.edu",
		Graph:    workspaceGraph(t, user),
	}
}

func TestCreateProducesConfiguredVM(t *testing.T) {
	r := newRig(t, Config{})
	r.run(t, func(p *sim.Proc) {
		ad, err := r.pl.Create(p, "vm-s-1", spec(t, "arijit"))
		if err != nil {
			t.Fatal(err)
		}
		// Classad carries identity and configuration outputs.
		if ad.GetString(core.AttrVMID, "") != "vm-s-1" {
			t.Errorf("ad VMID = %s", ad.GetString(core.AttrVMID, ""))
		}
		if ad.GetString(core.AttrIP, "") != "10.1.0.7" {
			t.Errorf("ad IP = %q", ad.GetString(core.AttrIP, ""))
		}
		if ad.GetString(core.AttrGoldenImage, "") != "ws-golden" {
			t.Errorf("golden = %q", ad.GetString(core.AttrGoldenImage, ""))
		}
		if ad.GetInt(core.AttrMatchedOps, -1) != 2 {
			t.Errorf("matched ops = %d", ad.GetInt(core.AttrMatchedOps, -1))
		}
		// Guest really is configured.
		vm, ok := r.pl.VM("vm-s-1")
		if !ok {
			t.Fatal("VM not in info system")
		}
		if !vm.Guest().Users["arijit"] || vm.Guest().IP != "10.1.0.7" {
			t.Errorf("guest: %s", vm.Guest().Summary())
		}
		// Only the residual ran: the OS was not reinstalled (cloning kept
		// the golden OS), and install-os takes 20 min, so total time must
		// be way below that.
		if p.Now() > 3*time.Minute {
			t.Errorf("create took %v — did it reinstall the OS?", p.Now())
		}
	})
}

// A DAG parameter that reaches the plant with line breaks, backslashes
// or '=' in it configures the guest with exactly that value: the guest
// script escapes it, and the agent parses back each action as burned.
func TestAwkwardParamsConfigureTheGuest(t *testing.T) {
	user := "eve\nop=install-os\nsmith\\"
	g, err := dag.NewBuilder().
		Add("os", act(actions.OpInstallOS, "distro", "mandrake-8.1")).
		Add("vnc", act(actions.OpInstallPackage, "name", "vnc-server"), "os").
		Add("user", act(actions.OpCreateUser, "name", user, "x=y", "z\r"), "vnc").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	s := spec(t, "eve")
	s.Graph = g
	r := newRig(t, Config{})
	r.run(t, func(p *sim.Proc) {
		if _, err := r.pl.Create(p, "vm-s-1", s); err != nil {
			t.Fatal(err)
		}
		vm, ok := r.pl.VM("vm-s-1")
		if !ok {
			t.Fatal("VM not in info system")
		}
		if users := vm.Guest().Users; len(users) != 1 || !users[user] {
			t.Errorf("guest users = %v, want only %q", users, user)
		}
	})
}

// Host-targeted actions run at the hypervisor, not from the config CD:
// a residual DAG that ends by attaching a device and detaching it again
// leaves both in the VM's history and the guest's device map empty.
func TestHostActionsRunOnTheHypervisor(t *testing.T) {
	attach := act(actions.OpAttachDevice, "device", "usb0", "image", "data.img")
	detach := act(actions.OpDetachDevice, "device", "usb0")
	g, err := dag.NewBuilder().
		Add("os", act(actions.OpInstallOS, "distro", "mandrake-8.1")).
		Add("vnc", act(actions.OpInstallPackage, "name", "vnc-server"), "os").
		Add("user", act(actions.OpCreateUser, "name", "hugo"), "vnc").
		Add("attach", attach, "user").
		Add("detach", detach, "attach").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	s := spec(t, "hugo")
	s.Graph = g
	r := newRig(t, Config{})
	r.run(t, func(p *sim.Proc) {
		if _, err := r.pl.Create(p, "vm-s-1", s); err != nil {
			t.Fatal(err)
		}
		vm, ok := r.pl.VM("vm-s-1")
		if !ok {
			t.Fatal("VM not in info system")
		}
		h := vm.History()
		if n := len(h); n < 2 || h[n-2].Op != attach.Op || h[n-1].Op != detach.Op {
			t.Errorf("history = %v, want it to end with %s, %s", h, attach.Op, detach.Op)
		}
		if devs := vm.Guest().Devices; len(devs) != 0 {
			t.Errorf("devices after detach = %v, want none", devs)
		}
	})
}

// A creation's facts are in its classad and its span tree; CreationLog
// keeps only the plant-side latency, which covers the clone and the
// configuration.
func TestCreateStatsRecorded(t *testing.T) {
	r := newRig(t, Config{Telemetry: telemetry.New()})
	var ad *classad.Ad
	r.run(t, func(p *sim.Proc) {
		var err error
		if ad, err = r.pl.Create(p, "vm-s-1", spec(t, "u1")); err != nil {
			t.Fatal(err)
		}
	})
	log := r.pl.CreationLog()
	if len(log) != 1 {
		t.Fatalf("%d log entries", len(log))
	}
	if ad.GetInt(core.AttrMatchedOps, 0) != 2 || ad.GetString(core.AttrGoldenImage, "") != "ws-golden" {
		t.Errorf("ad = %s", ad)
	}
	if plan := named(r, "plan"); len(plan) != 1 || plan[0].Attr("residual_ops") != "2" {
		t.Errorf("plan spans = %+v", plan)
	}
	clone, config := named(r, "clone")[0].Virtual(), named(r, "configure")[0].Virtual()
	if clone <= 0 || config <= 0 || log[0].Total < clone+config {
		t.Errorf("times: clone=%v config=%v total=%v", clone, config, log[0].Total)
	}
}

func TestEstimateUsesCostModel(t *testing.T) {
	r := newRig(t, Config{MaxVMs: 32})
	r.run(t, func(p *sim.Proc) {
		// Idle plant, new domain: network cost 50.
		if c := r.pl.Estimate(p, spec(t, "u1")); c != 50 {
			t.Errorf("initial bid = %v", c)
		}
		if _, err := r.pl.Create(p, "vm-s-1", spec(t, "u1")); err != nil {
			t.Fatal(err)
		}
		// Same domain now holds a network: compute cost 4×1.
		if c := r.pl.Estimate(p, spec(t, "u2")); c != 4 {
			t.Errorf("second bid = %v", c)
		}
		// A different domain pays the network cost again.
		other := spec(t, "u3")
		other.Domain = "nwu.edu"
		if c := r.pl.Estimate(p, other); c != 50+4 {
			t.Errorf("other-domain bid = %v", c)
		}
	})
}

func TestEstimateInfeasibleWhenNoGolden(t *testing.T) {
	r := newRig(t, Config{})
	r.run(t, func(p *sim.Proc) {
		odd := spec(t, "u1")
		odd.Hardware.MemoryMB = 128 // no golden of this size
		if c := r.pl.Estimate(p, odd); c.OK() {
			t.Errorf("bid for unmatched hardware = %v", c)
		}
		if _, err := r.pl.Create(p, "vm-x", odd); err == nil {
			t.Error("create without golden succeeded")
		}
	})
}

func TestMaxVMsEnforced(t *testing.T) {
	r := newRig(t, Config{MaxVMs: 2})
	r.run(t, func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			if _, err := r.pl.Create(p, core.VMID("vm-s-"+string(rune('1'+i))), spec(t, "u"+string(rune('1'+i)))); err != nil {
				t.Fatal(err)
			}
		}
		if c := r.pl.Estimate(p, spec(t, "u9")); c.OK() {
			t.Errorf("full plant bid %v", c)
		}
		if _, err := r.pl.Create(p, "vm-s-9", spec(t, "u9")); err == nil {
			t.Error("create beyond capacity succeeded")
		}
	})
}

func TestHostOnlyNetworkExhaustion(t *testing.T) {
	r := newRig(t, Config{HostOnlyNetworks: 1})
	r.run(t, func(p *sim.Proc) {
		s1 := spec(t, "u1")
		if _, err := r.pl.Create(p, "vm-s-1", s1); err != nil {
			t.Fatal(err)
		}
		// Second domain: no free network.
		s2 := spec(t, "u2")
		s2.Domain = "nwu.edu"
		if _, err := r.pl.Create(p, "vm-s-2", s2); err == nil {
			t.Error("create without free network succeeded")
		}
		// Same domain reuses the network.
		if _, err := r.pl.Create(p, "vm-s-3", spec(t, "u3")); err != nil {
			t.Errorf("same-domain create failed: %v", err)
		}
		// Two VMs of one domain share the switch.
		vm1, _ := r.pl.VM("vm-s-1")
		vm3, _ := r.pl.VM("vm-s-3")
		if vm1.Network() != vm3.Network() {
			t.Error("same-domain VMs on different host-only networks")
		}
		// Collect both: network freed for the other domain.
		if err := r.pl.Collect(p, "vm-s-1"); err != nil {
			t.Fatal(err)
		}
		if err := r.pl.Collect(p, "vm-s-3"); err != nil {
			t.Fatal(err)
		}
		if _, err := r.pl.Create(p, "vm-s-4", s2); err != nil {
			t.Errorf("create after network freed failed: %v", err)
		}
	})
}

func TestQueryAndCollect(t *testing.T) {
	r := newRig(t, Config{})
	r.run(t, func(p *sim.Proc) {
		if _, err := r.pl.Create(p, "vm-s-1", spec(t, "u1")); err != nil {
			t.Fatal(err)
		}
		ad, ok := r.pl.Query(p, "vm-s-1")
		if !ok || ad.GetString(core.AttrState, "") != "running" {
			t.Errorf("query: ok=%v ad=%v", ok, ad)
		}
		p.Sleep(30 * time.Second)
		ad2, _ := r.pl.Query(p, "vm-s-1")
		if ad2.GetInt(core.AttrUptimeSecs, -1) < 30 {
			t.Errorf("uptime = %d", ad2.GetInt(core.AttrUptimeSecs, -1))
		}
		if err := r.pl.Collect(p, "vm-s-1"); err != nil {
			t.Fatal(err)
		}
		if _, ok := r.pl.Query(p, "vm-s-1"); ok {
			t.Error("collected VM still queryable")
		}
		if err := r.pl.Collect(p, "vm-s-1"); err == nil {
			t.Error("double collect succeeded")
		}
		if r.tb.Nodes[0].VMs() != 0 {
			t.Error("node memory leaked")
		}
	})
}

func TestMonitorUpdatesAds(t *testing.T) {
	r := newRig(t, Config{})
	r.k.Spawn("monitor", r.pl.Monitor(10*time.Second, 5))
	r.run(t, func(p *sim.Proc) {
		if _, err := r.pl.Create(p, "vm-s-1", spec(t, "u1")); err != nil {
			t.Fatal(err)
		}
		p.Sleep(2 * time.Minute)
		ad, ok := r.pl.Query(p, "vm-s-1")
		if !ok {
			t.Fatal("query failed")
		}
		if ad.GetReal(core.AttrCPULoad, -1) < 0 {
			t.Error("monitor never set CPULoad")
		}
	})
}

func TestFailureInjectionAborts(t *testing.T) {
	r := newRig(t, Config{FailProb: map[string]float64{actions.OpCreateUser: 1.0}})
	r.run(t, func(p *sim.Proc) {
		_, err := r.pl.Create(p, "vm-s-1", spec(t, "u1"))
		if err == nil || !strings.Contains(err.Error(), "injected failure") {
			t.Fatalf("err = %v", err)
		}
		// Cleanup: no VM, no committed memory, network released.
		if r.pl.ActiveVMs() != 0 || r.tb.Nodes[0].VMs() != 0 {
			t.Error("failed create leaked resources")
		}
		if r.pl.Networks().FreeCount() != r.pl.Networks().Size() {
			t.Error("failed create leaked host-only network")
		}
	})
}

func TestErrorPolicyRetrySucceedsEventually(t *testing.T) {
	// Failure probability 0.5 with generous retries: some attempt wins.
	r := newRig(t, Config{FailProb: map[string]float64{actions.OpCreateUser: 0.5}})
	r.run(t, func(p *sim.Proc) {
		s := spec(t, "u1")
		n, _ := s.Graph.Node("user")
		n.OnError.Retries = 50
		if _, err := r.pl.Create(p, "vm-s-1", s); err != nil {
			t.Fatalf("create with retries failed: %v", err)
		}
	})
}

func TestErrorPolicyContinueSkipsFailure(t *testing.T) {
	r := newRig(t, Config{FailProb: map[string]float64{actions.OpCreateUser: 1.0}})
	r.run(t, func(p *sim.Proc) {
		s := spec(t, "u1")
		n, _ := s.Graph.Node("user")
		n.OnError.Continue = true
		n.OnError.Handler = []dag.Action{act(actions.OpRunScript, "script", "report-failure.sh", "seconds", "1")}
		ad, err := r.pl.Create(p, "vm-s-1", s)
		if err != nil {
			t.Fatalf("create with continue policy failed: %v", err)
		}
		// The VM exists; the user action was skipped but the handler ran.
		vm, _ := r.pl.VM("vm-s-1")
		if vm.Guest().Users["u1"] {
			t.Error("failed action applied anyway")
		}
		if vm.Guest().Outputs["script:report-failure.sh"] != "ok" {
			t.Error("error handler did not run")
		}
		_ = ad
	})
}

func TestTemplateMatchRequiresExactImage(t *testing.T) {
	r := newRig(t, Config{TemplateMatch: true})
	r.run(t, func(p *sim.Proc) {
		// Golden covers only a prefix → template match refuses.
		if _, err := r.pl.Create(p, "vm-s-1", spec(t, "u1")); err == nil {
			t.Error("template match accepted a partial image")
		}
	})
}

func TestDisablePartialMatchUsesBlankImage(t *testing.T) {
	r := newRig(t, Config{DisablePartialMatch: true})
	// Publish a blank image so the ablation path has a source.
	blank, err := warehouse.BuildGolden("blank", core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: 2048}, warehouse.BackendVMware, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.wh.Publish(blank); err != nil {
		t.Fatal(err)
	}
	took := r.run(t, func(p *sim.Proc) {
		if _, err := r.pl.Create(p, "vm-s-1", spec(t, "u1")); err != nil {
			t.Fatal(err)
		}
	})
	// Without partial matching the OS install (~20 min) is paid.
	if took < 15*time.Minute {
		t.Errorf("ablation create took only %v", took)
	}
}

func TestCloneModeCopyAblation(t *testing.T) {
	hub := telemetry.New()
	r := newRig(t, Config{CloneMode: vdisk.CloneByCopy, Telemetry: hub})
	took := r.run(t, func(p *sim.Proc) {
		if _, err := r.pl.Create(p, "vm-s-1", spec(t, "u1")); err != nil {
			t.Fatal(err)
		}
	})
	if took < 3*time.Minute {
		t.Errorf("copy-clone create took only %v", took)
	}
	if hub.Counter("vmm.clone_bytes_copied").Value() < 2<<30 {
		t.Error("copy mode did not copy the disk")
	}
}

func TestUMLBackendSelectedBySpec(t *testing.T) {
	r := newRig(t, Config{})
	umlGolden, err := warehouse.BuildGolden("ws-uml", core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: 2048}, warehouse.BackendUML, goldenHistory())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.wh.Publish(umlGolden); err != nil {
		t.Fatal(err)
	}
	r.run(t, func(p *sim.Proc) {
		s := spec(t, "u1")
		s.Backend = "uml"
		ad, err := r.pl.Create(p, "vm-s-1", s)
		if err != nil {
			t.Fatal(err)
		}
		if ad.GetString(core.AttrBackend, "") != "uml" {
			t.Errorf("backend = %q", ad.GetString(core.AttrBackend, ""))
		}
		if ad.GetString(core.AttrGoldenImage, "") != "ws-uml" {
			t.Errorf("golden = %q", ad.GetString(core.AttrGoldenImage, ""))
		}
	})
}

func TestGoldenImageRetirement(t *testing.T) {
	r := newRig(t, Config{})
	r.run(t, func(p *sim.Proc) {
		if _, err := r.pl.Create(p, "vm-s-1", spec(t, "u1")); err != nil {
			t.Fatal(err)
		}
		im, _ := r.wh.Lookup("ws-golden")
		if im.Refs() != 1 {
			t.Errorf("refs = %d, want 1", im.Refs())
		}
		// The image cannot be retired while a clone links into it.
		if err := r.wh.Remove("ws-golden"); err == nil {
			t.Error("removed an image with live clones")
		}
		if err := r.pl.Collect(p, "vm-s-1"); err != nil {
			t.Fatal(err)
		}
		if im.Refs() != 0 {
			t.Errorf("refs after collect = %d", im.Refs())
		}
		// Now retirement succeeds and the state files disappear.
		filesBefore := len(r.wh.Volume().List())
		if err := r.wh.Remove("ws-golden"); err != nil {
			t.Fatal(err)
		}
		if _, ok := r.wh.Lookup("ws-golden"); ok {
			t.Error("retired image still published")
		}
		if got := len(r.wh.Volume().List()); got >= filesBefore {
			t.Errorf("state files not deleted: %d -> %d", filesBefore, got)
		}
		// Creating against a retired image fails.
		if _, err := r.pl.Create(p, "vm-s-2", spec(t, "u2")); err == nil {
			t.Error("create from retired image succeeded")
		}
		if err := r.wh.Remove("ws-golden"); err == nil {
			t.Error("double remove succeeded")
		}
	})
}

func TestFailedCreateReleasesImageRef(t *testing.T) {
	r := newRig(t, Config{FailProb: map[string]float64{actions.OpCreateUser: 1.0}})
	r.run(t, func(p *sim.Proc) {
		if _, err := r.pl.Create(p, "vm-s-1", spec(t, "u1")); err == nil {
			t.Fatal("expected failure")
		}
		im, _ := r.wh.Lookup("ws-golden")
		if im.Refs() != 0 {
			t.Errorf("failed create leaked image ref: %d", im.Refs())
		}
	})
}
