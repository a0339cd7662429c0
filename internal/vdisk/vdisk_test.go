package vdisk

import (
	"bytes"
	"testing"
	"testing/quick"
)

func block(fill byte) []byte {
	b := make([]byte, BlockSize)
	for i := range b {
		b[i] = fill
	}
	return b
}

func newTestDisk(t *testing.T, sizeMB int) *Disk {
	t.Helper()
	im, err := NewImage("base", sizeMB, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := im.Populate(0, block(0xAA)); err != nil {
		t.Fatal(err)
	}
	if err := im.Populate(7, block(0xBB)); err != nil {
		t.Fatal(err)
	}
	return NewDisk("d0", im)
}

func TestReadThroughToBase(t *testing.T) {
	d := newTestDisk(t, 16)
	b, err := d.ReadBlock(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, block(0xAA)) {
		t.Error("base content not visible")
	}
	z, err := d.ReadBlock(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(z, make([]byte, BlockSize)) {
		t.Error("unwritten block not zero")
	}
}

func TestWriteGoesToRedoNotBase(t *testing.T) {
	d := newTestDisk(t, 16)
	if err := d.WriteBlock(0, block(0x11)); err != nil {
		t.Fatal(err)
	}
	b, _ := d.ReadBlock(0)
	if !bytes.Equal(b, block(0x11)) {
		t.Error("write not visible")
	}
	if !bytes.Equal(d.Base().blocks[0], block(0xAA)) {
		t.Error("write leaked into base image")
	}
}

func TestOutOfRangeBlocks(t *testing.T) {
	d := newTestDisk(t, 1) // 256 blocks
	if _, err := d.ReadBlock(-1); err == nil {
		t.Error("negative read accepted")
	}
	if _, err := d.ReadBlock(1 << 30); err == nil {
		t.Error("huge read accepted")
	}
	if err := d.WriteBlock(0, []byte("short")); err == nil {
		t.Error("short write accepted")
	}
}

func TestFreezeMakesTopReadOnly(t *testing.T) {
	d := newTestDisk(t, 16)
	d.WriteBlock(1, block(0x22))
	d.Freeze()
	if len(d.Layers()) != 2 {
		t.Fatalf("chain length %d", len(d.Layers()))
	}
	// Write lands in the new top, old layer still readable.
	if err := d.WriteBlock(1, block(0x33)); err != nil {
		t.Fatal(err)
	}
	b, _ := d.ReadBlock(1)
	if !bytes.Equal(b, block(0x33)) {
		t.Error("new top not read first")
	}
	if !bytes.Equal(d.Layers()[0].blocks[1], block(0x22)) {
		t.Error("frozen layer mutated")
	}
}

func TestDiscardTop(t *testing.T) {
	d := newTestDisk(t, 16)
	d.WriteBlock(1, block(0x22))
	d.Freeze()
	d.WriteBlock(1, block(0x33))
	d.DiscardTop()
	b, _ := d.ReadBlock(1)
	if !bytes.Equal(b, block(0x22)) {
		t.Error("discard did not drop session writes")
	}
}

func TestCommitTopFoldsDown(t *testing.T) {
	d := newTestDisk(t, 16)
	d.WriteBlock(1, block(0x22))
	d.Freeze()
	d.WriteBlock(1, block(0x33))
	d.WriteBlock(2, block(0x44))
	if err := d.CommitTop(); err != nil {
		t.Fatal(err)
	}
	if len(d.Layers()) != 1 {
		t.Fatalf("chain length %d after commit", len(d.Layers()))
	}
	b1, _ := d.ReadBlock(1)
	b2, _ := d.ReadBlock(2)
	if !bytes.Equal(b1, block(0x33)) || !bytes.Equal(b2, block(0x44)) {
		t.Error("commit lost writes")
	}
	if d.Layers()[0].Frozen() {
		t.Error("committed-into layer still frozen")
	}
	// Single-layer disk has nothing to commit into.
	if err := d.CommitTop(); err == nil {
		t.Error("commit with one layer accepted")
	}
}

func TestLinkCloneSharesBaseCopiesRedo(t *testing.T) {
	d := newTestDisk(t, 2048)
	d.WriteBlock(1, block(0x22)) // golden configuration delta
	d.Freeze()
	res, err := d.Clone("c1", CloneByLink)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Disk
	if c.Base() != d.Base() {
		t.Error("link clone did not share base image")
	}
	// Copied bytes = redo log only, far below the 2 GB disk.
	if res.CopiedBytes >= d.Base().SizeBytes()/100 {
		t.Errorf("link clone copied %d bytes", res.CopiedBytes)
	}
	b, _ := c.ReadBlock(1)
	if !bytes.Equal(b, block(0x22)) {
		t.Error("clone lost golden delta")
	}
	// Writes to the clone must not be visible to the golden disk.
	c.WriteBlock(1, block(0x55))
	g, _ := d.ReadBlock(1)
	if !bytes.Equal(g, block(0x22)) {
		t.Error("clone write leaked into golden disk")
	}
}

func TestCopyCloneIsIndependent(t *testing.T) {
	d := newTestDisk(t, 64)
	d.WriteBlock(1, block(0x22))
	d.Freeze()
	res, err := d.Clone("c1", CloneByCopy)
	if err != nil {
		t.Fatal(err)
	}
	if res.Disk.Base() == d.Base() {
		t.Error("copy clone shares base image")
	}
	if res.CopiedBytes < d.Base().SizeBytes() {
		t.Errorf("copy clone copied only %d bytes", res.CopiedBytes)
	}
	if res.Files < d.Base().SpanFiles() {
		t.Errorf("copy clone touched %d files", res.Files)
	}
	// Content identical at clone time.
	if res.Disk.ContentHash() != d.ContentHash() {
		t.Error("copy clone content differs")
	}
}

func TestCloneRequiresCleanTop(t *testing.T) {
	d := newTestDisk(t, 16)
	d.WriteBlock(1, block(0x22))
	if _, err := d.Clone("c1", CloneByLink); err == nil {
		t.Error("clone of dirty disk accepted")
	}
}

func TestCloneContentHashMatchesGolden(t *testing.T) {
	d := newTestDisk(t, 16)
	d.WriteBlock(3, block(0x77))
	d.Freeze()
	for _, mode := range []CloneMode{CloneByLink, CloneByCopy} {
		res, err := d.Clone("c-"+mode.String(), mode)
		if err != nil {
			t.Fatal(err)
		}
		if res.Disk.ContentHash() != d.ContentHash() {
			t.Errorf("%s clone content hash differs", mode)
		}
	}
}

func TestClonesOfCloneStack(t *testing.T) {
	d := newTestDisk(t, 16)
	d.WriteBlock(1, block(0x22))
	d.Freeze()
	res, _ := d.Clone("c1", CloneByLink)
	c1 := res.Disk
	c1.WriteBlock(2, block(0x33))
	c1.Freeze()
	res2, err := c1.Clone("c2", CloneByLink)
	if err != nil {
		t.Fatal(err)
	}
	c2 := res2.Disk
	b1, _ := c2.ReadBlock(1)
	b2, _ := c2.ReadBlock(2)
	if !bytes.Equal(b1, block(0x22)) || !bytes.Equal(b2, block(0x33)) {
		t.Error("grandchild clone lost ancestor state")
	}
	if len(c2.Layers()) != 3 {
		t.Errorf("grandchild chain length %d", len(c2.Layers()))
	}
}

func TestFrozenTopRejectsWrites(t *testing.T) {
	d := newTestDisk(t, 16)
	d.top().frozen = true
	if err := d.WriteBlock(0, block(1)); err == nil {
		t.Error("write to frozen top accepted")
	}
}

func TestRedoBytesGrowWithWrites(t *testing.T) {
	d := newTestDisk(t, 16)
	before := d.RedoBytes()
	for i := int64(0); i < 10; i++ {
		d.WriteBlock(i, block(byte(i)))
	}
	if d.RedoBytes() != before+10*BlockSize {
		t.Errorf("redo bytes %d → %d", before, d.RedoBytes())
	}
}

func TestImageValidation(t *testing.T) {
	if _, err := NewImage("x", 0, 1); err == nil {
		t.Error("zero-size image accepted")
	}
	im, _ := NewImage("x", 1, 0)
	if im.SpanFiles() != 1 {
		t.Errorf("spanFiles default = %d", im.SpanFiles())
	}
	if err := im.Populate(1<<40, block(0)); err == nil {
		t.Error("out-of-range populate accepted")
	}
}

// Property: read-your-writes through arbitrary write/freeze sequences.
func TestReadYourWritesProperty(t *testing.T) {
	check := func(ops []struct {
		Idx    uint8
		Fill   byte
		Freeze bool
	}) bool {
		im, _ := NewImage("p", 1, 1) // 256 blocks
		d := NewDisk("p0", im)
		want := map[int64]byte{}
		for _, op := range ops {
			idx := int64(op.Idx)
			if op.Freeze {
				d.Freeze()
				continue
			}
			if err := d.WriteBlock(idx, block(op.Fill)); err != nil {
				return false
			}
			want[idx] = op.Fill
		}
		for idx, fill := range want {
			b, err := d.ReadBlock(idx)
			if err != nil || !bytes.Equal(b, block(fill)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestTrimZerosMatchesTrimRight checks the word-at-a-time trim against
// bytes.TrimRight on blocks whose zero tail ends on and off a word
// boundary, with zeros inside the kept part too, and through a write:
// the stored bytes are the trimmed ones.
func TestTrimZerosMatchesTrimRight(t *testing.T) {
	for _, tail := range []int{0, 1, 7, 8, 9, 4095, 4096} {
		b := make([]byte, BlockSize)
		for i := 0; i < BlockSize-tail; i++ {
			if i%5 != 0 {
				b[i] = byte(i)
			}
		}
		if tail < BlockSize {
			b[BlockSize-tail-1] = 0xff
		}
		want := bytes.TrimRight(b, "\x00")
		if got := trimZeros(b); !bytes.Equal(got, want) || len(got) != BlockSize-tail {
			t.Errorf("tail %d: trimmed to %d bytes, want %d", tail, len(got), len(want))
		}
		d := newTestDisk(t, 1)
		if err := d.WriteBlock(3, b); err != nil {
			t.Fatal(err)
		}
		if got := d.top().blocks[3]; !bytes.Equal(got, want) {
			t.Errorf("tail %d: stored %d bytes, want %d", tail, len(got), len(want))
		}
		if got, _ := d.ReadBlock(3); !bytes.Equal(got, b) {
			t.Errorf("tail %d: read back differs from the write", tail)
		}
	}
}
