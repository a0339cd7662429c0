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

// FuzzRead holds the config CD reader every residual-action creation
// runs (vmm.AttachCD) to three properties: no input panics it; an image
// it accepts is one the map-backed oracle accepts with the same files,
// and Writer re-serialises it to exactly the bytes it read (one set of
// files, one encoding); and an image the oracle accepts in its own
// canonical encoding, Read accepts too.
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
			files, err := Read(blob)
			old, oerr := readOracle(blob)
			if err != nil {
				if oerr == nil && bytes.Equal(old.Bytes(), blob) {
					t.Fatalf("Read refused an image in canonical encoding: %v", err)
				}
				continue
			}
			if oerr != nil {
				t.Fatalf("Read accepted an image the oracle refuses: %v", oerr)
			}
			w := NewWriter(len(blob))
			for _, f := range files {
				if got, ok := old.Lookup(string(f.Path)); !ok || !bytes.Equal(got, f.Data) {
					t.Fatalf("%s: Read %q, the oracle %q", f.Path, f.Data, got)
				}
				if err := w.Add(f.Path, appendBytes(f.Data)); err != nil {
					t.Fatalf("Writer refused what Read accepted: %v", err)
				}
			}
			if back := w.Finish(); len(files) != old.Len() || !bytes.Equal(back, blob) {
				t.Fatalf("%d files re-serialise as %q, read from %q", len(files), back, blob)
			}
		}
	})
}
