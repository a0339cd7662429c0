package isofs

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

// mustWrite serialises im with Writer and checks the bytes against the
// oracle's.
func mustWrite(t *testing.T, im *Image) []byte {
	t.Helper()
	blob, err := writeImage(im)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, im.Bytes()) {
		t.Fatalf("Writer wrote %q, the oracle %q", blob, im.Bytes())
	}
	return blob
}

func TestRoundTrip(t *testing.T) {
	im := New()
	files := map[string]string{
		"scripts/00-network.sh": "#!/bin/sh\nifconfig eth0 10.1.0.7\n",
		"scripts/01-user.sh":    "useradd arijit\n",
		"manifest.xml":          "<manifest/>",
		"data/empty":            "",
	}
	for p, d := range files {
		if err := im.Add(p, []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	back, err := readImage(mustWrite(t, im))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != len(files) {
		t.Fatalf("got %d files", back.Len())
	}
	for p, d := range files {
		got, ok := back.Lookup(p)
		if !ok || string(got) != d {
			t.Errorf("file %q = %q, ok=%v", p, got, ok)
		}
	}
}

func TestEmptyImageRoundTrip(t *testing.T) {
	files, err := Read(mustWrite(t, New()))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Errorf("len = %d", len(files))
	}
}

// One set of files has one encoding: whatever order the oracle's files
// were added in, Writer (which takes them in path order only) writes the
// same bytes.
func TestDeterministicSerialization(t *testing.T) {
	a, b := New(), New()
	a.Add("x", []byte("1"))
	a.Add("y", []byte("2"))
	b.Add("y", []byte("2"))
	b.Add("x", []byte("1"))
	if !bytes.Equal(mustWrite(t, a), mustWrite(t, b)) {
		t.Error("insertion order changed serialization")
	}
}

func TestCorruptionDetected(t *testing.T) {
	im := New()
	im.Add("a", []byte("hello"))
	blob := mustWrite(t, im)
	// Flip one payload byte.
	blob[len(blob)-6] ^= 0xFF
	if _, err := Read(blob); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Errorf("corruption not detected: %v", err)
	}
}

func TestBadMagicAndTruncation(t *testing.T) {
	if _, err := Read([]byte("short")); err == nil {
		t.Error("short blob accepted")
	}
	blob := NewWriter(0).Finish()
	blob[0] = 'X'
	if _, err := Read(blob); err == nil {
		t.Error("bad magic accepted")
	}
	w := NewWriter(0)
	w.Add([]byte("a"), appendBytes([]byte("data")))
	good := w.Finish()
	// Truncations anywhere must error, never panic, sealed or not.
	for cut := 1; cut < len(good); cut++ {
		if _, err := Read(good[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
		if cut >= 12 {
			if _, err := Read(seal(good[:cut-4])); err == nil {
				t.Errorf("sealed truncation at %d accepted", cut)
			}
		}
	}
}

func TestPathValidation(t *testing.T) {
	bad := []string{
		"", "/abs", "a//b", "a/./b", "a/../b", "..", "a/", strings.Repeat("x", 300),
		"ctl\x01char",
	}
	for _, p := range bad {
		w := NewWriter(0)
		if err := w.Add([]byte(p), noData); err == nil {
			t.Errorf("path %q accepted", p)
		}
		// A refused file leaves the image empty.
		if files, err := Read(w.Finish()); err != nil || len(files) != 0 {
			t.Errorf("after refusing %q: %d files, %v", p, len(files), err)
		}
	}
	if err := NewWriter(0).Add([]byte("ok/nested-path_1.sh"), appendBytes([]byte("x"))); err != nil {
		t.Errorf("good path rejected: %v", err)
	}
}

// noData is a data function that appends nothing.
func noData(b []byte) []byte { return b }

// The oracle's Add replaces a file; Writer takes a path once, and Read
// refuses an image that repeats one.
func TestAddReplaces(t *testing.T) {
	im := New()
	im.Add("a", []byte("1"))
	im.Add("a", []byte("2"))
	files, err := Read(mustWrite(t, im))
	if err != nil || len(files) != 1 || string(files[0].Data) != "2" {
		t.Fatalf("files = %q, %v", files, err)
	}
	w := NewWriter(0)
	w.Add([]byte("a"), appendBytes([]byte("1")))
	if err := w.Add([]byte("a"), appendBytes([]byte("2"))); err == nil {
		t.Error("Writer took path \"a\" twice")
	}
	// The same image with the repeat forced in: count 2, two "a" entries.
	dup := append([]byte(nil), magic[:]...)
	dup = append(dup, 2, 0, 0, 0)
	for _, d := range []string{"1", "2"} {
		dup = append(dup, 1, 0, 'a', 1, 0, 0, 0, d[0])
	}
	if _, err := Read(seal(dup)); err == nil {
		t.Error("Read accepted a repeated path")
	}
	if _, err := readOracle(seal(dup)); err != nil {
		t.Errorf("the oracle refused it too: %v", err)
	}
}

func TestAddCopiesData(t *testing.T) {
	w := NewWriter(0)
	buf := []byte("mutable")
	w.Add([]byte("a"), appendBytes(buf))
	buf[0] = 'X'
	files, err := Read(w.Finish())
	if err != nil || string(files[0].Data) != "mutable" {
		t.Errorf("image aliases caller buffer: %q, %v", files, err)
	}
}

func TestOversizeFileRejected(t *testing.T) {
	w := NewWriter(0)
	if err := w.Add([]byte("big"), appendBytes(make([]byte, MaxFileSize+1))); err == nil {
		t.Error("oversize file accepted")
	}
	if blob := w.Finish(); len(blob) != len(magic)+8 {
		t.Errorf("refused file left %d bytes behind", len(blob)-len(magic)-8)
	}
}

// Writer takes paths in increasing order only, and Read returns them in
// that order.
func TestPathsSorted(t *testing.T) {
	im := New()
	im.Add("z", nil)
	im.Add("a", nil)
	im.Add("m", nil)
	files, err := Read(mustWrite(t, im))
	if err != nil || len(files) != 3 {
		t.Fatalf("files = %q, %v", files, err)
	}
	if p := string(files[0].Path) + string(files[1].Path) + string(files[2].Path); p != "amz" {
		t.Errorf("paths = %s", p)
	}
	w := NewWriter(0)
	w.Add([]byte("z"), noData)
	if err := w.Add([]byte("a"), noData); err == nil {
		t.Error("Writer took \"a\" after \"z\"")
	}
}

// propertyImage is the image TestRoundTripProperty builds from quick's
// arguments, with the content each path must read back as.
func propertyImage(names []uint16, payload []byte) (*Image, map[string][]byte, error) {
	im := New()
	want := map[string][]byte{}
	for i, n := range names {
		p := "f" + string(rune('a'+int(n)%26)) + "/" + string(rune('a'+i%26))
		data := payload
		if len(payload) > i {
			data = payload[i:]
		}
		if err := im.Add(p, data); err != nil {
			return nil, nil, err
		}
		want[p] = append([]byte(nil), data...)
	}
	return im, want, nil
}

func TestRoundTripProperty(t *testing.T) {
	check := func(names []uint16, payload []byte) bool {
		im, want, err := propertyImage(names, payload)
		if err != nil {
			return false
		}
		blob, err := writeImage(im)
		if err != nil || !bytes.Equal(blob, im.Bytes()) {
			return false
		}
		back, err := readImage(blob)
		if err != nil {
			return false
		}
		if back.Len() != len(want) {
			return false
		}
		for p, d := range want {
			got, ok := back.Lookup(p)
			if !ok || !bytes.Equal(got, d) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSizeBytesMatchesSerialized(t *testing.T) {
	im := New()
	im.Add("a/b", []byte("hello"))
	if im.SizeBytes() != int64(len(mustWrite(t, im))) {
		t.Error("SizeBytes mismatch")
	}
}

// Read hands out slices of the image it was given: no file's bytes are
// copied.
func TestReadInPlace(t *testing.T) {
	w := NewWriter(0)
	w.Add([]byte("a"), appendBytes([]byte("hello")))
	blob := w.Finish()
	files, err := Read(blob)
	if err != nil {
		t.Fatal(err)
	}
	if &files[0].Data[0] != &blob[len(magic)+4+2+1+4] {
		t.Error("Read copied the file's bytes")
	}
	if n := testing.AllocsPerRun(100, func() { Read(blob) }); n > 1 {
		t.Errorf("Read: %.0f allocations, want 1 (the file table)", n)
	}
}
