package warehouse

import (
	"strings"
	"testing"

	"vmplants/internal/actions"
	"vmplants/internal/core"
	"vmplants/internal/storage"
)
import "vmplants/internal/dag"

func act(op string, kv ...string) dag.Action {
	p := map[string]string{}
	for i := 0; i+1 < len(kv); i += 2 {
		p[kv[i]] = kv[i+1]
	}
	tgt, _ := actions.DefaultTarget(op)
	return dag.Action{Op: op, Target: tgt, Params: p}
}

func hw() core.HardwareSpec { return core.HardwareSpec{Arch: "x86", MemoryMB: 64, DiskMB: 2048} }

func history() []dag.Action {
	return []dag.Action{
		act(actions.OpInstallOS, "distro", "mandrake-8.1"),
		act(actions.OpInstallPackage, "name", "vnc-server"),
	}
}

func newWarehouse() *Warehouse {
	vol := storage.NewVolume("warehouse", storage.NewDevice("nfs", 11e6, 0))
	return New(vol)
}

func TestBuildAndPublish(t *testing.T) {
	w := newWarehouse()
	im, err := BuildGolden("mandrake-ws", hw(), BackendVMware, history())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Publish(im); err != nil {
		t.Fatal(err)
	}
	if im.OS() != "mandrake-8.1" {
		t.Errorf("OS = %q", im.OS())
	}
	// State files on the volume: config, redo, mem image, descriptor,
	// plus one canonical file per distinct extent. A freshly installed
	// sparse image's spans are byte-identical (all zero), so the
	// content-addressed store collapses all 16 slots onto one physical
	// copy.
	distinct := make(map[string]bool)
	for _, p := range im.ExtentPaths {
		distinct[p] = true
	}
	if len(im.ExtentPaths) != DiskSpanFiles {
		t.Errorf("%d extent slots, want %d", len(im.ExtentPaths), DiskSpanFiles)
	}
	if len(distinct) >= DiskSpanFiles {
		t.Errorf("%d distinct extents for an all-zero sparse image, want dedup", len(distinct))
	}
	files := w.Volume().List()
	if len(files) != 3+len(distinct)+1 {
		t.Errorf("%d files: %v", len(files), files)
	}
	memSize, err := w.Volume().Stat(im.MemImagePath)
	if err != nil || memSize != int64(64+MemImageOverheadMB)*1024*1024 {
		t.Errorf("mem image size %d, %v", memSize, err)
	}
	// Extents sum to the disk capacity.
	var ext int64
	for _, p := range im.ExtentPaths {
		n, err := w.Volume().Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		ext += n
	}
	if ext != int64(hw().DiskMB)*1024*1024 {
		t.Errorf("extents total %d", ext)
	}
}

func TestUMLImageHasNoMemImage(t *testing.T) {
	w := newWarehouse()
	im, _ := BuildGolden("uml-ws", hw(), BackendUML, history())
	if err := w.Publish(im); err != nil {
		t.Fatal(err)
	}
	if im.MemImagePath != "" || im.MemImageBytes() != 0 {
		t.Errorf("UML image has memory state: %q %d", im.MemImagePath, im.MemImageBytes())
	}
}

func TestPublishValidation(t *testing.T) {
	w := newWarehouse()
	good, _ := BuildGolden("a", hw(), BackendVMware, history())
	if err := w.Publish(good); err != nil {
		t.Fatal(err)
	}
	// Duplicate name.
	dup, _ := BuildGolden("a", hw(), BackendVMware, history())
	if err := w.Publish(dup); err == nil {
		t.Error("duplicate accepted")
	}
	// Unknown backend.
	bad, _ := BuildGolden("b", hw(), BackendVMware, history())
	bad.Backend = "hyper-z"
	if err := w.Publish(bad); err == nil {
		t.Error("unknown backend accepted")
	}
	// Unreplayable history.
	broken, _ := BuildGolden("c", hw(), BackendVMware, history())
	broken.Performed = []dag.Action{act(actions.OpCreateUser, "name", "u")} // no OS
	if err := w.Publish(broken); err == nil {
		t.Error("unreplayable history accepted")
	}
	// Guest/history drift.
	drift, _ := BuildGolden("d", hw(), BackendVMware, history())
	drift.Guest.OS = "windows-95"
	if err := w.Publish(drift); err == nil {
		t.Error("drifted guest accepted")
	}
	// No name / bad hardware / nil disk.
	if err := w.Publish(&Image{}); err == nil {
		t.Error("empty image accepted")
	}
}

func TestLookupListCandidates(t *testing.T) {
	w := newWarehouse()
	for _, spec := range []struct{ name, backend string }{
		{"z-vmware", BackendVMware}, {"a-vmware", BackendVMware}, {"m-uml", BackendUML},
	} {
		im, _ := BuildGolden(spec.name, hw(), spec.backend, history())
		if err := w.Publish(im); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.List(); len(got) != 3 || got[0] != "a-vmware" {
		t.Errorf("List = %v", got)
	}
	if _, ok := w.Lookup("m-uml"); !ok {
		t.Error("Lookup failed")
	}
	if _, ok := w.Lookup("ghost"); ok {
		t.Error("Lookup of ghost succeeded")
	}
	vmw := w.Candidates(BackendVMware)
	if len(vmw) != 2 || vmw[0].ID != "a-vmware" {
		t.Errorf("vmware candidates = %+v", vmw)
	}
	if all := w.Candidates(""); len(all) != 3 {
		t.Errorf("all candidates = %d", len(all))
	}
}

func TestDescriptorXMLRoundTrip(t *testing.T) {
	im, _ := BuildGolden("ws", hw(), BackendVMware, history())
	blob := appendDescriptor(nil, im.Descriptor())
	if !strings.Contains(string(blob), "mandrake-8.1") || !strings.Contains(string(blob), "install-os") {
		t.Errorf("descriptor xml:\n%s", blob)
	}
}

func TestGoldenDiskIsFrozenWithContent(t *testing.T) {
	im, _ := BuildGolden("ws", hw(), BackendVMware, history())
	layers := im.Disk.Layers()
	if len(layers) != 2 || !layers[0].Frozen() {
		t.Fatalf("golden disk chain: %d layers, frozen=%v", len(layers), layers[0].Frozen())
	}
	b, err := im.Disk.ReadBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "install-os") {
		t.Errorf("golden block 0 = %q…", b[:40])
	}
}

func TestCandidateCarriesHistory(t *testing.T) {
	im, _ := BuildGolden("ws", hw(), BackendVMware, history())
	c := im.Candidate()
	if c.ID != "ws" || len(c.Performed) != 2 || c.Hardware.MemoryMB != 64 {
		t.Errorf("candidate = %+v", c)
	}
}
