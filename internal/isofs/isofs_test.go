package isofs

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

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
	back, err := Read(im.Bytes())
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
	back, err := Read(New().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 0 {
		t.Errorf("len = %d", back.Len())
	}
}

func TestDeterministicSerialization(t *testing.T) {
	a, b := New(), New()
	a.Add("x", []byte("1"))
	a.Add("y", []byte("2"))
	b.Add("y", []byte("2"))
	b.Add("x", []byte("1"))
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("insertion order changed serialization")
	}
}

func TestCorruptionDetected(t *testing.T) {
	im := New()
	im.Add("a", []byte("hello"))
	blob := im.Bytes()
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
	blob := New().Bytes()
	blob[0] = 'X'
	if _, err := Read(blob); err == nil {
		t.Error("bad magic accepted")
	}
	good := func() []byte {
		im := New()
		im.Add("a", []byte("data"))
		return im.Bytes()
	}()
	// Truncations anywhere must error, never panic.
	for cut := 1; cut < len(good); cut++ {
		if _, err := Read(good[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestPathValidation(t *testing.T) {
	im := New()
	bad := []string{
		"", "/abs", "a//b", "a/./b", "a/../b", "..", strings.Repeat("x", 300),
		"ctl\x01char",
	}
	for _, p := range bad {
		if err := im.Add(p, nil); err == nil {
			t.Errorf("path %q accepted", p)
		}
	}
	if err := im.Add("ok/nested-path_1.sh", []byte("x")); err != nil {
		t.Errorf("good path rejected: %v", err)
	}
}

func TestAddReplaces(t *testing.T) {
	im := New()
	im.Add("a", []byte("1"))
	im.Add("a", []byte("2"))
	if im.Len() != 1 {
		t.Fatalf("len = %d", im.Len())
	}
	d, _ := im.Lookup("a")
	if string(d) != "2" {
		t.Errorf("data = %q", d)
	}
}

func TestAddCopiesData(t *testing.T) {
	im := New()
	buf := []byte("mutable")
	im.Add("a", buf)
	buf[0] = 'X'
	d, _ := im.Lookup("a")
	if string(d) != "mutable" {
		t.Error("image aliases caller buffer")
	}
}

func TestOversizeFileRejected(t *testing.T) {
	im := New()
	if err := im.Add("big", make([]byte, MaxFileSize+1)); err == nil {
		t.Error("oversize file accepted")
	}
}

func TestPathsSorted(t *testing.T) {
	im := New()
	im.Add("z", nil)
	im.Add("a", nil)
	im.Add("m", nil)
	p := im.Paths()
	if p[0] != "a" || p[1] != "m" || p[2] != "z" {
		t.Errorf("paths = %v", p)
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
		back, err := Read(im.Bytes())
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
	if im.SizeBytes() != int64(len(im.Bytes())) {
		t.Error("SizeBytes mismatch")
	}
}
