package vdisk

import (
	"bytes"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"
)

// configBlock is the block a guest action writes: one short line, the
// rest zeros.
func configBlock(line string) []byte {
	b := make([]byte, BlockSize)
	copy(b, line)
	return b
}

// A stored block keeps its bytes up to its last non-zero byte only, and
// reads back whole.
func TestStoredBlocksAreTrimmed(t *testing.T) {
	d := newTestDisk(t, 16)
	blk := configBlock("config vm-shop-1 configure-network")
	if err := d.WriteBlock(9, blk); err != nil {
		t.Fatal(err)
	}
	if c := cap(d.top().blocks[9]); c >= 64 {
		t.Errorf("a guest action's config block keeps %d bytes, want < 64", c)
	}
	if b, _ := d.ReadBlock(9); !bytes.Equal(b, blk) {
		t.Errorf("read back %q", bytes.TrimRight(b, "\x00"))
	}
	// An all-zero write keeps no bytes but still hides the block below.
	if err := d.WriteBlock(0, make([]byte, BlockSize)); err != nil {
		t.Fatal(err)
	}
	if b, ok := d.top().blocks[0]; !ok || len(b) != 0 {
		t.Errorf("zero block stored as %d bytes (present %v)", len(b), ok)
	}
	if b, _ := d.ReadBlock(0); !bytes.Equal(b, make([]byte, BlockSize)) {
		t.Error("zero block does not hide the base image's block 0")
	}
	if n := testing.AllocsPerRun(100, func() { d.ReadBlock(9) }); n != 1 {
		t.Errorf("ReadBlock: %.0f allocations, want 1 (the block it returns)", n)
	}
}

// The invariant block sharing rests on: a stored block is never written
// in place. Neither the caller's buffer nor a block read back aliases a
// stored block, clones share their golden's block slices, and no write
// or commit through a clone changes what the golden stores.
func TestStoredBlocksNeverWrittenInPlace(t *testing.T) {
	d := newTestDisk(t, 16)
	buf := configBlock("golden action 0")
	d.WriteBlock(1, buf)
	buf[0] = 'X'
	if b, _ := d.ReadBlock(1); b[0] != 'g' {
		t.Fatal("stored block aliases the writer's buffer")
	}
	b, _ := d.ReadBlock(1)
	b[0] = 'X'
	if b, _ := d.ReadBlock(1); b[0] != 'g' {
		t.Fatal("stored block aliases a block read back")
	}
	d.Freeze()
	golden := slices.Clone(d.chain[0].blocks[1])
	for _, mode := range []CloneMode{CloneByLink, CloneByCopy, CloneByLazy} {
		res, err := d.Clone("c-"+mode.String(), mode)
		if err != nil {
			t.Fatal(err)
		}
		c := res.Disk
		if &c.chain[0].blocks[1][0] != &d.chain[0].blocks[1][0] || &c.base.blocks[0][0] != &d.base.blocks[0][0] {
			t.Errorf("%s clone copied the golden's blocks", mode)
		}
		c.WriteBlock(1, configBlock("clone write"))
		if err := c.CommitTop(); err != nil {
			t.Fatal(err)
		}
		c.WriteBlock(1, configBlock("after commit"))
		if !bytes.Equal(d.chain[0].blocks[1], golden) {
			t.Fatalf("%s clone's write reached the golden's block: %q", mode, d.chain[0].blocks[1])
		}
	}
}

// refContentHash is ContentHash as written before blocks were trimmed:
// every block read back whole through the chain, all-zero ones skipped.
func refContentHash(d *Disk) uint64 {
	var idxs []int64
	for idx := range d.base.blocks {
		idxs = append(idxs, idx)
	}
	for _, l := range d.chain {
		for idx := range l.blocks {
			idxs = append(idxs, idx)
		}
	}
	slices.Sort(idxs)
	return refHash(slices.Compact(idxs), func(idx int64) []byte { b, _ := d.ReadBlock(idx); return b })
}

func refHash(idxs []int64, read func(int64) []byte) uint64 {
	h := fnv.New64a()
	for _, idx := range idxs {
		b := read(idx)
		if bytes.Equal(b, make([]byte, BlockSize)) {
			continue
		}
		h.Write([]byte{byte(idx), byte(idx >> 8), byte(idx >> 16), byte(idx >> 24), byte(idx >> 32), byte(idx >> 40), byte(idx >> 48), byte(idx >> 56)})
		h.Write(b)
	}
	return h.Sum64()
}

// Trimming is invisible to both content hashes: they equal the hashes
// of the whole blocks, so extent keys and integrity sums do not move.
func TestHashesMatchWholeBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fill := func() []byte {
		b := make([]byte, BlockSize)
		rng.Read(b[:rng.Intn(BlockSize+1)])
		return b
	}
	im, _ := NewImage("h", 1, 4) // 256 blocks, 64 per extent
	whole := map[int64][]byte{}
	for i := 0; i < 40; i++ {
		idx := int64(rng.Intn(256))
		b := fill()
		im.Populate(idx, b)
		whole[idx] = b
	}
	for i := 0; i < 4; i++ {
		lo := int64(i * 64)
		var idxs []int64
		for idx := range whole {
			if idx >= lo && idx < lo+64 {
				idxs = append(idxs, idx)
			}
		}
		slices.Sort(idxs)
		if got, want := im.ExtentContentHash(i), refHash(idxs, func(idx int64) []byte { return whole[idx] }); got != want {
			t.Errorf("extent %d hashes %x, whole blocks %x", i, got, want)
		}
	}
	d := NewDisk("h0", im)
	for i := 0; i < 3; i++ {
		for j := 0; j < 20; j++ {
			d.WriteBlock(int64(rng.Intn(256)), fill())
		}
		d.Freeze()
		if got, want := d.ContentHash(), refContentHash(d); got != want {
			t.Errorf("layer %d: disk hashes %x, whole blocks %x", i, got, want)
		}
	}
}
