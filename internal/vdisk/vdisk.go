// Package vdisk models hosted-VMM virtual disks the way the paper's
// cloning mechanism depends on them (§3.2, §4.1): a large read-only base
// image, plus stacked copy-on-write "redo log" layers that capture all
// writes of a session. A golden machine is checkpointed with its
// configuration captured in a base redo log; cloning it either
//
//   - links the base image and copies only the (small) redo log — the
//     paper's fast path ("the Production Line uses soft links for the
//     virtual hard disk, and replicates the … base redo log"), or
//   - copies the full base image — the slow baseline the paper measures
//     at ≈210 s for a 2 GB disk.
//
// The block store is real: reads and writes move actual bytes through
// the COW chain, so tests can verify that clones see the golden state
// and never leak writes into shared layers.
//
// A stored block keeps its bytes only up to its last non-zero byte (an
// all-zero block keeps none); ReadBlock and both content hashes pad it
// back to BlockSize, so the trimming is invisible. A stored block is
// never written in place: a write stores a fresh slice. That is what
// lets a clone, a copy clone's base image and a commit share block
// slices instead of copying them.
package vdisk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
)

// BlockSize is the unit of copy-on-write, in bytes.
const BlockSize = 4096

// Image is an immutable base disk image. Its content is sparse: blocks
// never written read as zeros.
type Image struct {
	name      string
	sizeMB    int
	spanFiles int // the paper's golden disk spans 16 files
	blocks    map[int64][]byte
}

// NewImage creates a sparse base image. spanFiles mirrors how hosted
// VMMs split large virtual disks across extent files; it only affects
// reporting, not content.
func NewImage(name string, sizeMB, spanFiles int) (*Image, error) {
	if sizeMB <= 0 {
		return nil, errors.New("vdisk: image size must be positive")
	}
	if spanFiles <= 0 {
		spanFiles = 1
	}
	return &Image{name: name, sizeMB: sizeMB, spanFiles: spanFiles, blocks: make(map[int64][]byte)}, nil
}

// Name returns the image name.
func (im *Image) Name() string { return im.name }

// SpanFiles returns the number of extent files the image occupies.
func (im *Image) SpanFiles() int { return im.spanFiles }

// SizeBytes returns the full (non-sparse) size to copy when cloning by
// copy: hosted VMMs ship preallocated extents, so the cost is capacity,
// not occupancy.
func (im *Image) SizeBytes() int64 { return int64(im.sizeMB) * 1024 * 1024 }

// blockCount returns the number of addressable blocks.
func (im *Image) blockCount() int64 { return im.SizeBytes() / BlockSize }

// ExtentContentHash digests the base-image content of the i-th extent
// file: the non-zero blocks whose addresses fall in that extent's span,
// in address order. Two extents with identical content — notably the
// all-zero extents of sparse installer images — hash identically, which
// is what lets a content-addressed store share one physical copy across
// every image carrying them.
func (im *Image) ExtentContentHash(i int) uint64 {
	per := im.blockCount() / int64(im.spanFiles)
	lo := int64(i) * per
	hi := lo + per
	if i == im.spanFiles-1 {
		hi = im.blockCount()
	}
	var idxs []int64
	for idx := range im.blocks {
		if idx >= lo && idx < hi {
			idxs = append(idxs, idx)
		}
	}
	return hashBlocks(idxs, func(idx int64) []byte { return im.blocks[idx] })
}

// zero pads a stored block back to BlockSize.
var zero [BlockSize]byte

// hashBlocks digests the non-zero blocks at idxs (repeats ignored) in
// address order, each as its address and its content padded to
// BlockSize; block returns the stored block at an address.
func hashBlocks(idxs []int64, block func(int64) []byte) uint64 {
	slices.Sort(idxs)
	h := fnv.New64a()
	var addr [8]byte
	for _, idx := range slices.Compact(idxs) {
		b := block(idx)
		if len(b) == 0 {
			continue
		}
		h.Write(binary.LittleEndian.AppendUint64(addr[:0], uint64(idx)))
		h.Write(b)
		h.Write(zero[len(b):])
	}
	return h.Sum64()
}

// Populate writes raw content into the base image at creation time (an
// installer writing the initial OS). It is the only mutation an Image
// permits and must happen before the image is shared.
func (im *Image) Populate(blockIdx int64, data []byte) error {
	if err := im.checkBlock(blockIdx, data); err != nil {
		return err
	}
	im.blocks[blockIdx] = append([]byte(nil), trimZeros(data)...)
	return nil
}

// trimZeros is bytes.TrimRight(b, "\x00"), comparing the tail eight
// bytes at a time.
func trimZeros(b []byte) []byte {
	n := len(b)
	for n >= 8 && binary.LittleEndian.Uint64(b[n-8:n]) == 0 {
		n -= 8
	}
	for n > 0 && b[n-1] == 0 {
		n--
	}
	return b[:n]
}

func (im *Image) checkIndex(blockIdx int64) error {
	if blockIdx < 0 || blockIdx >= im.blockCount() {
		return fmt.Errorf("vdisk: block %d out of range (disk has %d blocks)", blockIdx, im.blockCount())
	}
	return nil
}

func (im *Image) checkBlock(blockIdx int64, data []byte) error {
	if err := im.checkIndex(blockIdx); err != nil {
		return err
	}
	if len(data) != BlockSize {
		return fmt.Errorf("vdisk: block data must be %d bytes, got %d", BlockSize, len(data))
	}
	return nil
}

// Layer is one redo log: a sparse overlay of written blocks.
type Layer struct {
	name   string
	frozen bool
	blocks map[int64][]byte
}

// NewLayer returns an empty writable redo log.
func NewLayer(name string) *Layer {
	return &Layer{name: name, blocks: make(map[int64][]byte)}
}

// Name returns the layer name.
func (l *Layer) Name() string { return l.name }

// Frozen reports whether the layer has been made read-only.
func (l *Layer) Frozen() bool { return l.frozen }

// SizeBytes is the physical size of the redo log: written blocks plus a
// small header, the quantity that must be copied when cloning.
func (l *Layer) SizeBytes() int64 {
	const header = 64 * 1024
	return header + int64(len(l.blocks))*BlockSize
}

// copyOf duplicates the layer's content into a fresh writable layer,
// sharing its block slices.
func (l *Layer) copyOf(name string) *Layer {
	return &Layer{name: name, blocks: maps.Clone(l.blocks)}
}

// Disk is a virtual disk presented to a guest: a base image plus a COW
// chain, the top layer writable.
type Disk struct {
	name  string
	base  *Image
	chain []*Layer // bottom .. top
}

// NewDisk attaches a fresh disk over base with one empty redo log.
func NewDisk(name string, base *Image) *Disk {
	return &Disk{name: name, base: base, chain: []*Layer{NewLayer(name + ".redo0")}}
}

// Name returns the disk name.
func (d *Disk) Name() string { return d.name }

// Base returns the shared base image.
func (d *Disk) Base() *Image { return d.base }

// Layers returns the COW chain, bottom to top.
func (d *Disk) Layers() []*Layer { return append([]*Layer(nil), d.chain...) }

// top returns the writable layer.
func (d *Disk) top() *Layer { return d.chain[len(d.chain)-1] }

// ReadBlock reads one block through the COW chain: topmost layer that
// has the block wins, falling through to the base image, then zeros.
func (d *Disk) ReadBlock(blockIdx int64) ([]byte, error) {
	if err := d.base.checkIndex(blockIdx); err != nil {
		return nil, err
	}
	b := make([]byte, BlockSize)
	copy(b, d.stored(blockIdx))
	return b, nil
}

// stored returns the stored block the chain presents at blockIdx (nil
// when none holds it).
func (d *Disk) stored(blockIdx int64) []byte {
	for i := len(d.chain) - 1; i >= 0; i-- {
		if b, ok := d.chain[i].blocks[blockIdx]; ok {
			return b
		}
	}
	return d.base.blocks[blockIdx]
}

// WriteBlock writes one block into the top redo log.
func (d *Disk) WriteBlock(blockIdx int64, data []byte) error {
	if err := d.base.checkBlock(blockIdx, data); err != nil {
		return err
	}
	t := d.top()
	if t.frozen {
		return fmt.Errorf("vdisk: disk %q top layer %q is frozen", d.name, t.name)
	}
	t.blocks[blockIdx] = append([]byte(nil), trimZeros(data)...)
	return nil
}

// Freeze makes the current top layer read-only and pushes a fresh
// writable layer — the checkpoint operation that turns a configured VM
// into a golden state cloneable underneath further sessions.
func (d *Disk) Freeze() {
	d.top().frozen = true
	d.chain = append(d.chain, NewLayer(fmt.Sprintf("%s.redo%d", d.name, len(d.chain))))
}

// Snapshot freezes the disk's current state and returns an independent
// disk handle presenting exactly that state: both the original disk and
// the snapshot get fresh private top layers over the shared frozen
// chain. This is how a running VM's disk becomes publishable as a new
// golden image while the VM keeps writing.
func (d *Disk) Snapshot(name string) *Disk {
	d.Freeze()
	frozen := d.chain[:len(d.chain)-1]
	snap := &Disk{name: name, base: d.base}
	snap.chain = append(snap.chain, frozen...)
	snap.chain = append(snap.chain, NewLayer(name+".redo"))
	return snap
}

// DiscardTop throws away the writable layer's content (a non-persistent
// session ending without commit).
func (d *Disk) DiscardTop() {
	t := d.top()
	if t.frozen {
		return
	}
	t.blocks = make(map[int64][]byte)
}

// CommitTop folds the writable layer into the layer below it, which
// must exist and be frozen: the "committing changes to virtual disks …
// at the end of a session" mechanism. The lower layer is unfrozen in
// the process, so CommitTop is only legal on disks whose lower chain is
// private (e.g. publishing a new golden image), never on a link-clone
// sharing that layer.
func (d *Disk) CommitTop() error {
	if len(d.chain) < 2 {
		return errors.New("vdisk: nothing to commit into")
	}
	t := d.top()
	below := d.chain[len(d.chain)-2]
	for idx, b := range t.blocks {
		below.blocks[idx] = b
	}
	below.frozen = false
	d.chain = d.chain[:len(d.chain)-1]
	return nil
}

// CloneMode selects the cloning mechanism.
type CloneMode int

const (
	// CloneByLink shares the base image via a link and copies only redo
	// logs — the paper's fast path.
	CloneByLink CloneMode = iota
	// CloneByCopy duplicates the full base image as well — the slow
	// baseline (≈210 s for the paper's 2 GB golden disk).
	CloneByCopy
	// CloneByLazy shares the base image like CloneByLink but defers even
	// the extent links: the clone resumes after only config, redo and
	// memory state land, and extents materialize in the background (or
	// on demand when the guest touches them first).
	CloneByLazy
)

func (m CloneMode) String() string {
	switch m {
	case CloneByCopy:
		return "copy"
	case CloneByLazy:
		return "lazy"
	}
	return "link"
}

// CloneResult describes a clone and its cost.
type CloneResult struct {
	Disk *Disk
	// CopiedBytes is the physical state volume the clone operation had
	// to move: redo logs always, plus the base image under CloneByCopy.
	CopiedBytes int64
	// Files is how many files the copy touched (extent files + one per
	// redo log), feeding the storage model's per-file overhead.
	Files int
}

// Clone creates a new disk presenting the same content as d. All frozen
// layers are copied (they are the golden machine's recorded state), the
// copies sharing their block slices; the writable top layer must be
// empty — golden machines are checkpointed, not live.
func (d *Disk) Clone(name string, mode CloneMode) (CloneResult, error) {
	if len(d.top().blocks) != 0 {
		return CloneResult{}, fmt.Errorf("vdisk: clone of %q with dirty top layer; freeze first", d.name)
	}
	var res CloneResult
	base := d.base
	if mode == CloneByCopy {
		cp, err := NewImage(base.name+"@"+name, base.sizeMB, base.spanFiles)
		if err != nil {
			return CloneResult{}, err
		}
		cp.blocks = maps.Clone(base.blocks)
		base = cp
		res.CopiedBytes += d.base.SizeBytes()
		res.Files += d.base.spanFiles
	}
	clone := &Disk{name: name, base: base}
	for i, l := range d.chain[:len(d.chain)-1] {
		lc := l.copyOf(fmt.Sprintf("%s.redo%d", name, i))
		lc.frozen = true
		clone.chain = append(clone.chain, lc)
		res.CopiedBytes += l.SizeBytes()
		res.Files++
	}
	clone.chain = append(clone.chain, NewLayer(fmt.Sprintf("%s.redo%d", name, len(clone.chain))))
	res.Files++ // the fresh private redo log
	res.Disk = clone
	return res, nil
}

// ContentHash hashes the disk's fully resolved content (every non-zero
// block through the chain), for integrity checks in tests: a clone must
// hash identically to its golden source.
func (d *Disk) ContentHash() uint64 {
	var idxs []int64
	for idx := range d.base.blocks {
		idxs = append(idxs, idx)
	}
	for _, l := range d.chain {
		for idx := range l.blocks {
			idxs = append(idxs, idx)
		}
	}
	return hashBlocks(idxs, d.stored)
}

// RedoBytes is the total physical size of all redo logs.
func (d *Disk) RedoBytes() int64 {
	var n int64
	for _, l := range d.chain {
		n += l.SizeBytes()
	}
	return n
}
