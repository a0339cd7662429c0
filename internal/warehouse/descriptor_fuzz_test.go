package warehouse

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"vmplants/internal/actions"
	"vmplants/internal/core"
	"vmplants/internal/dag"
)

// The oracle: encoding/xml's reading of Descriptor's struct tags, which
// is what the descriptor codec was before appendDescriptor and
// scanDescriptor replaced it.

// oracleDescriptor gives a descriptor the root element name
// appendDescriptor writes.
type oracleDescriptor struct {
	XMLName xml.Name `xml:"golden-machine"`
	Descriptor
}

func oracleEncode(t testing.TB, d Descriptor) []byte {
	t.Helper()
	blob, err := xml.MarshalIndent(oracleDescriptor{Descriptor: d}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// awkward are strings hostile to an XML codec.
var awkward = []string{
	"", "plain", "<", ">", "&", `"`, "'", "\t", "\r", "\n", "\r\n", "\x00", "\x1f", "\x7f",
	"\xff", "\xed\xa0\x80", "é", "￾", "\U0001F600", "]]>", "&amp;", "<!--", "  ", "=",
}

func awkwardString(r *rand.Rand) string {
	var sb strings.Builder
	for i, n := 0, r.Intn(4); i < n; i++ {
		sb.WriteString(awkward[r.Intn(len(awkward))])
	}
	return sb.String()
}

// TestAppendDescriptorMatchesMarshalIndent: for random images whose
// strings are awkward, with and without performed actions and
// parameters, the descriptor describe renders is the oracle's bytes.
func TestAppendDescriptorMatchesMarshalIndent(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	for i := 0; i < 500; i++ {
		im, err := BuildGolden("ws", hw(), BackendVMware, history())
		if err != nil {
			t.Fatal(err)
		}
		im.Name, im.Backend, im.Guest.OS = awkwardString(r), awkwardString(r), awkwardString(r)
		im.Hardware = core.HardwareSpec{Arch: awkwardString(r), MemoryMB: r.Intn(1<<20) - 8, DiskMB: r.Intn(1 << 20)}
		im.Performed = nil
		for j, n := 0, r.Intn(4); j < n; j++ {
			a := dag.Action{Op: awkwardString(r), Target: dag.Target(r.Intn(2)), Params: map[string]string{}}
			for k, m := 0, r.Intn(3); k < m; k++ {
				a.Params[awkwardString(r)] = awkwardString(r)
			}
			im.Performed = append(im.Performed, a)
		}
		im.describe(nil)
		if want := oracleEncode(t, im.Descriptor()); !bytes.Equal(im.descriptor, want) {
			t.Fatalf("bytes differ\n got: %q\nwant: %q", im.descriptor, want)
		}
	}
}

// FuzzParseDescriptor holds the descriptor parser to the oracle on any
// input, since the bytes come from another cell's catalog gossip: it
// never panics; a descriptor it accepts encoding/xml accepts too, as the
// same Descriptor; appendDescriptor re-encodes that to the oracle's
// bytes; and its actions come back unchanged when parsed again. Seeds
// are the descriptors publish lays down for the three golden workspace
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
		var want oracleDescriptor
		if err := xml.Unmarshal(blob, &want); err != nil {
			t.Fatalf("accepted what encoding/xml rejects (%v): %q", err, blob)
		}
		if !reflect.DeepEqual(d, want.Descriptor) {
			t.Fatalf("decoded differently\n got: %+v\nwant: %+v\n%q", d, want.Descriptor, blob)
		}
		again := appendDescriptor(nil, d)
		if oracle := oracleEncode(t, d); !bytes.Equal(again, oracle) {
			t.Fatalf("re-encoded bytes differ\n got: %q\nwant: %q", again, oracle)
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
