package actions

import (
	"strings"
	"testing"
	"time"

	"vmplants/internal/dag"
	"vmplants/internal/sim"
)

func act(op string, kv ...string) dag.Action {
	p := map[string]string{}
	for i := 0; i+1 < len(kv); i += 2 {
		p[kv[i]] = kv[i+1]
	}
	tgt, _ := DefaultTarget(op)
	return dag.Action{Op: op, Target: tgt, Params: p}
}

func TestInstallOSThenPackages(t *testing.T) {
	st := NewState()
	if err := Apply(st, act(OpInstallOS, "distro", "redhat-8.0")); err != nil {
		t.Fatal(err)
	}
	if st.OS != "redhat-8.0" {
		t.Errorf("OS = %q", st.OS)
	}
	if err := Apply(st, act(OpInstallPackage, "name", "vnc-server")); err != nil {
		t.Fatal(err)
	}
	if !st.Packages["vnc-server"] {
		t.Error("package not recorded")
	}
}

func TestGuestActionsRequireOS(t *testing.T) {
	ops := []dag.Action{
		act(OpInstallPackage, "name", "x"),
		act(OpCreateUser, "name", "u"),
		act(OpMountFS, "source", "nfs:/h", "mountpoint", "/home/u"),
		act(OpConfigureService, "name", "vnc"),
		act(OpStartService, "name", "vnc"),
		act(OpRunScript, "script", "s.sh"),
		act(OpSetCredential, "kind", "ssh", "user", "u"),
		act(OpConfigureNetwork, "ip", "10.0.0.1"),
	}
	for _, a := range ops {
		if err := Apply(NewState(), a); err == nil {
			t.Errorf("%s succeeded on blank machine", a.Op)
		}
	}
}

func TestDoubleOSInstallFails(t *testing.T) {
	st := NewState()
	Apply(st, act(OpInstallOS, "distro", "a"))
	if err := Apply(st, act(OpInstallOS, "distro", "b")); err == nil {
		t.Error("second install-os succeeded")
	}
}

func TestIdempotencyViolationsFail(t *testing.T) {
	st := NewState()
	Apply(st, act(OpInstallOS, "distro", "linux"))
	steps := []dag.Action{
		act(OpInstallPackage, "name", "p"),
		act(OpCreateUser, "name", "u"),
		act(OpMountFS, "source", "s", "mountpoint", "/m"),
		act(OpStartService, "name", "svc"),
	}
	for _, a := range steps {
		if err := Apply(st, a); err != nil {
			t.Fatalf("first %s: %v", a.Op, err)
		}
		if err := Apply(st, a); err == nil {
			t.Errorf("duplicate %s succeeded", a.Op)
		}
	}
}

func TestMissingParamsFail(t *testing.T) {
	st := NewState()
	Apply(st, act(OpInstallOS, "distro", "linux"))
	for _, a := range []dag.Action{
		act(OpInstallOS),
		act(OpInstallPackage),
		act(OpCreateUser),
		act(OpMountFS, "source", "s"),
		act(OpConfigureNetwork, "mac", "aa:bb"),
		act(OpRunScript),
		act(OpSetCredential, "kind", "pigeon", "user", "u"),
		act(OpAttachDevice),
	} {
		if err := Apply(st, a); err == nil {
			t.Errorf("%s with missing/bad params succeeded", a.Op)
		}
	}
}

// An action without parameters is applied to its nil map as it is: a
// detach of an attached "" device, which succeeds without parameters,
// allocates nothing (an empty map was made for it before each apply).
func TestApplyWithoutParamsAllocatesNothingForThem(t *testing.T) {
	st := NewState()
	n := testing.AllocsPerRun(20, func() {
		st.Devices[""] = "iso"
		if err := Apply(st, dag.Action{Op: OpDetachDevice}); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("detach without parameters: %.0f allocations, want 0", n)
	}
}

func TestHostDeviceLifecycle(t *testing.T) {
	st := NewState()
	if err := Apply(st, act(OpAttachDevice, "device", "cdrom0", "image", "cfg.iso")); err != nil {
		t.Fatal(err)
	}
	if st.Devices["cdrom0"] != "cfg.iso" {
		t.Errorf("devices = %v", st.Devices)
	}
	if err := Apply(st, act(OpAttachDevice, "device", "cdrom0", "image", "x.iso")); err == nil {
		t.Error("double attach succeeded")
	}
	if err := Apply(st, act(OpDetachDevice, "device", "cdrom0")); err != nil {
		t.Fatal(err)
	}
	if err := Apply(st, act(OpDetachDevice, "device", "cdrom0")); err == nil {
		t.Error("double detach succeeded")
	}
}

func TestUnknownOperation(t *testing.T) {
	if err := Apply(NewState(), dag.Action{Op: "format-moon"}); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := Duration(dag.Action{Op: "format-moon"}, nil); err == nil {
		t.Error("unknown op duration accepted")
	}
	if _, err := DefaultTarget("format-moon"); err == nil {
		t.Error("unknown op target accepted")
	}
}

func TestDurationDeterministicWithoutRNG(t *testing.T) {
	d, err := Duration(act(OpInstallOS, "distro", "x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d != 1200*time.Second {
		t.Errorf("install-os mean = %v, want 20m", d)
	}
}

func TestDurationSecondsOverride(t *testing.T) {
	d, err := Duration(act(OpRunScript, "script", "s", "seconds", "42"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if d != 42*time.Second {
		t.Errorf("override = %v", d)
	}
	if _, err := Duration(act(OpRunScript, "script", "s", "seconds", "-3"), nil); err == nil {
		t.Error("negative override accepted")
	}
	if _, err := Duration(act(OpRunScript, "script", "s", "seconds", "soon"), nil); err == nil {
		t.Error("non-numeric override accepted")
	}
}

func TestDurationJitterIsPositiveAndNearMean(t *testing.T) {
	g := sim.NewRNG(3)
	var sum time.Duration
	const n = 2000
	for i := 0; i < n; i++ {
		d, err := Duration(act(OpInstallPackage, "name", "p"), g)
		if err != nil {
			t.Fatal(err)
		}
		if d <= 0 {
			t.Fatalf("non-positive duration %v", d)
		}
		sum += d
	}
	mean := sum / n
	if mean < 22*time.Second || mean > 28*time.Second {
		t.Errorf("mean duration %v, want ≈25s", mean)
	}
}

func TestStateCloneIndependent(t *testing.T) {
	st := NewState()
	Apply(st, act(OpInstallOS, "distro", "linux"))
	Apply(st, act(OpCreateUser, "name", "arijit"))
	c := st.Clone()
	Apply(c, act(OpCreateUser, "name", "ivan"))
	if st.Users["ivan"] {
		t.Error("clone shares users map")
	}
	if !c.Users["arijit"] || c.OS != "linux" {
		t.Error("clone lost state")
	}
}

func TestReplayReconstructsState(t *testing.T) {
	seq := []dag.Action{
		act(OpInstallOS, "distro", "redhat-8.0"),
		act(OpInstallPackage, "name", "vnc-server"),
		act(OpCreateUser, "name", "arijit"),
	}
	st, err := Replay(seq)
	if err != nil {
		t.Fatal(err)
	}
	if st.OS != "redhat-8.0" || !st.Packages["vnc-server"] || !st.Users["arijit"] {
		t.Errorf("replayed state: %s", st.Summary())
	}
}

func TestReplayPropagatesErrorsWithStep(t *testing.T) {
	_, err := Replay([]dag.Action{act(OpCreateUser, "name", "u")})
	if err == nil || !strings.Contains(err.Error(), "step 0") {
		t.Errorf("err = %v", err)
	}
}

func TestValidateGraph(t *testing.T) {
	good := dag.NewBuilder().
		Add("A", act(OpInstallOS, "distro", "x")).
		Add("B", act(OpAttachDevice, "device", "cdrom0"), "A").
		MustBuild()
	if err := Validate(good); err != nil {
		t.Errorf("valid graph rejected: %v", err)
	}

	unknown := dag.NewBuilder().
		Add("A", dag.Action{Op: "nope"}).
		MustBuild()
	if err := Validate(unknown); err == nil {
		t.Error("unknown op accepted")
	}

	wrongTarget := dag.NewBuilder().
		Add("A", dag.Action{Op: OpInstallOS, Target: dag.Host, Params: map[string]string{"distro": "x"}}).
		MustBuild()
	if err := Validate(wrongTarget); err == nil {
		t.Error("wrong target accepted")
	}

	badHandler := dag.NewBuilder().
		AddWithPolicy("A", act(OpInstallOS, "distro", "x"),
			dag.ErrorPolicy{Handler: []dag.Action{{Op: "nope"}}}).
		MustBuild()
	if err := Validate(badHandler); err == nil {
		t.Error("unknown handler op accepted")
	}
}

func TestOpsAndKnown(t *testing.T) {
	ops := Ops()
	if len(ops) != 11 {
		t.Errorf("catalog has %d ops: %v", len(ops), ops)
	}
	for _, op := range ops {
		if !Known(op) {
			t.Errorf("Known(%q) = false", op)
		}
	}
	if Known("bogus") {
		t.Error("Known(bogus) = true")
	}
}

func TestOutputsAccumulate(t *testing.T) {
	st := NewState()
	Apply(st, act(OpInstallOS, "distro", "linux"))
	Apply(st, act(OpConfigureNetwork, "ip", "10.1.2.3", "mac", "aa:bb:cc"))
	Apply(st, act(OpSetCredential, "kind", "ssh", "user", "ivan"))
	if st.Outputs["ip"] != "10.1.2.3" || st.Outputs["mac"] != "aa:bb:cc" || st.Outputs["credential:ssh"] != "ivan" {
		t.Errorf("outputs = %v", st.Outputs)
	}
}
