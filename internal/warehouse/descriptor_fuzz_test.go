package warehouse

import (
	"fmt"
	"reflect"
	"testing"

	"vmplants/internal/actions"
	"vmplants/internal/core"
	"vmplants/internal/dag"
)

// FuzzParseDescriptor holds the descriptor parser to two properties on
// any input, since the bytes come from another cell's catalog gossip:
// it never panics, and the actions of a descriptor it accepts come back
// unchanged when that descriptor is encoded and parsed again. Seeds are
// the descriptors publish lays down for the three golden workspace
// images and for one derived checkpoint.
func FuzzParseDescriptor(f *testing.F) {
	w := newWarehouse()
	history := []dag.Action{
		act(actions.OpInstallOS, "distro", "redhat-8.0"),
		act(actions.OpInstallPackage, "name", "vnc-server"),
		act(actions.OpInstallPackage, "name", "web-file-manager"),
	}
	var seed *Image
	for _, mem := range []int{32, 64, 256} {
		hw := core.HardwareSpec{Arch: "x86", MemoryMB: mem, DiskMB: 2048}
		im, err := BuildGolden(fmt.Sprintf("invigo-ws-%dmb", mem), hw, BackendVMware, history)
		if err != nil {
			f.Fatal(err)
		}
		if err := w.Publish(im); err != nil {
			f.Fatal(err)
		}
		f.Add(im.descriptor)
		seed = im
	}
	performed := append(append([]dag.Action{}, history...),
		act(actions.OpConfigureNetwork, "mac", "00:50:56:00:00:2a", "ip", "10.1.0.42"),
		act(actions.OpCreateUser, "name", "alice"))
	derived, err := BuildDerived(DerivedName(BackendVMware, performed), seed, performed)
	if err != nil {
		f.Fatal(err)
	}
	if err := w.PublishDerived(derived, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(derived.descriptor)

	f.Fuzz(func(t *testing.T, blob []byte) {
		d, perf, err := ParseDescriptor(blob)
		if err != nil {
			return
		}
		again, err := encodeDescriptor(d)
		if err != nil {
			t.Fatalf("accepted descriptor does not encode: %v\n%q", err, blob)
		}
		_, perf2, err := ParseDescriptor(again)
		if err != nil {
			t.Fatalf("re-encoded descriptor rejected: %v\n%q\n%q", err, blob, again)
		}
		if !reflect.DeepEqual(perf, perf2) {
			t.Fatalf("actions changed through encode and parse\n got: %+v\nwant: %+v\n%q", perf2, perf, blob)
		}
	})
}
