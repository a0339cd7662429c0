package warehouse

import (
	"bytes"
	"encoding/xml"
	"math/rand"
	"strings"
	"testing"

	"vmplants/internal/core"
	"vmplants/internal/dag"
)

// The oracle: encoding/xml's reading of Descriptor's struct tags, which
// is what the descriptor encoder was before appendDescriptor replaced
// it.

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
// parameters, the descriptor describe renders is the oracle's bytes, and
// the size it records is theirs.
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
		want := oracleEncode(t, im.Descriptor())
		if got := appendDescriptor(nil, im.Descriptor()); !bytes.Equal(got, want) {
			t.Fatalf("bytes differ\n got: %q\nwant: %q", got, want)
		}
		if im.descriptorSize != int64(len(want)) {
			t.Fatalf("descriptorSize = %d, want %d", im.descriptorSize, len(want))
		}
	}
}
