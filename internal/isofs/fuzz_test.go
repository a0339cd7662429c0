package isofs

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// seal appends body's CRC trailer, so the fuzzer's bytes reach the
// entry parser instead of stopping at the checksum.
func seal(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(slices.Clip(body), crc32.ChecksumIEEE(body))
}

// FuzzRead holds the config CD parser every residual-action creation
// runs (vmm.AttachCD) to two properties: no input panics it, and an
// image it accepts re-serialises to bytes it parses back to the same
// paths and contents.
func FuzzRead(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		names, _ := quick.Value(reflect.TypeOf([]uint16(nil)), rng)
		payload, _ := quick.Value(reflect.TypeOf([]byte(nil)), rng)
		im, _, err := propertyImage(names.Interface().([]uint16), payload.Interface().([]byte))
		if err != nil {
			f.Fatal(err)
		}
		blob := im.Bytes()
		f.Add(blob)
		f.Add(blob[:len(blob)-4]) // sealed below
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, blob := range [][]byte{b, seal(b)} {
			im, err := Read(blob)
			if err != nil {
				continue
			}
			back, err := Read(im.Bytes())
			if err != nil {
				t.Fatalf("re-serialised image does not parse: %v", err)
			}
			if !slices.Equal(back.Paths(), im.Paths()) {
				t.Fatalf("paths %q read back as %q", im.Paths(), back.Paths())
			}
			for _, p := range im.Paths() {
				want, _ := im.Lookup(p)
				if got, _ := back.Lookup(p); !bytes.Equal(got, want) {
					t.Fatalf("%s: %q read back as %q", p, want, got)
				}
			}
		}
	})
}
