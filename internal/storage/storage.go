// Package storage models the paper's storage substrate under the
// discrete-event kernel: each cluster node has a local SCSI disk, and
// the VM Warehouse lives on a shared NFS server reached over switched
// 100 Mbit/s Ethernet (paper §4.2). Volumes carry a real file namespace
// (names, sizes, link targets) so the production line's link-vs-copy
// cloning decisions are observable, and every byte moved costs virtual
// time through a bandwidth pipe.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"vmplants/internal/sim"
)

// ErrInterrupted is what a background copy returns when its owner
// cancelled it (sim.Proc.Interrupt): nothing was written.
var ErrInterrupted = errors.New("storage: background transfer interrupted")

// Device is something bytes move through at a finite rate.
type Device struct {
	pipe *sim.Pipe
}

// NewDevice creates a device with the given throughput.
func NewDevice(name string, bytesPerSecond float64, perTransferOverhead time.Duration) *Device {
	p := sim.NewPipe(name, bytesPerSecond)
	p.PerTransferOverhead = perTransferOverhead
	return &Device{pipe: p}
}

// Name returns the device name.
func (d *Device) Name() string { return d.pipe.Name() }

// ShareServer makes d a path to server, the way a client mount reaches
// its NFS server: transfers through d also share server's bandwidth,
// with every other path to it and with server's own transfers
// (sim.Pipe.Via).
func (d *Device) ShareServer(server *Device) { d.pipe.Via = server.pipe }

// Stats reports cumulative bytes served, how many of them in the
// background class, and the count of completed transfers.
func (d *Device) Stats() (bytes, background, transfers int64) { return d.pipe.Stats() }

// entry is one file in a volume.
type entry struct {
	size    int64
	linkTo  string // non-empty for same-volume symlinks
	foreign *foreignRef
	// sum is the content checksum recorded when the file was written
	// (0 = unchecksummed). Integrity-aware writers record it alongside
	// the size; corruption faults scramble it so verifying readers see
	// the mismatch a real bit flip would produce.
	sum uint64
}

// foreignRef is a cross-volume symlink target (a local path pointing at
// an NFS-mounted file, the way clones reference the golden disk).
type foreignRef struct {
	vol  *Volume
	path string
}

// Volume is a named file namespace on a device.
type Volume struct {
	name  string
	dev   *Device
	files map[string]entry
	// LinkLatency is the metadata cost of creating a link (or a file
	// entry); it models the paper's "soft links rather than file copies".
	LinkLatency time.Duration
}

// NewVolume creates an empty volume on dev.
func NewVolume(name string, dev *Device) *Volume {
	return &Volume{name: name, dev: dev, files: make(map[string]entry), LinkLatency: 5 * time.Millisecond}
}

// Name returns the volume name.
func (v *Volume) Name() string { return v.name }

// ViewOn returns a view of the same namespace whose transfers are costed
// against dev — how each cluster node sees the shared NFS warehouse
// through its own mount. Namespace mutations are visible through every
// view.
func (v *Volume) ViewOn(dev *Device) *Volume {
	return &Volume{name: v.name, dev: dev, files: v.files, LinkLatency: v.LinkLatency}
}

// Device returns the backing device.
func (v *Volume) Device() *Device { return v.dev }

// Exists reports whether path is present.
func (v *Volume) Exists(path string) bool {
	_, ok := v.files[path]
	return ok
}

// Stat returns a file's logical size, resolving one level of links
// (same-volume or cross-volume).
func (v *Volume) Stat(path string) (int64, error) {
	e, ok := v.files[path]
	if !ok {
		return 0, fmt.Errorf("storage: %s: no file %q", v.name, path)
	}
	if e.foreign != nil {
		return e.foreign.vol.Stat(e.foreign.path)
	}
	if e.linkTo != "" {
		t, ok := v.files[e.linkTo]
		if !ok {
			return 0, fmt.Errorf("storage: %s: dangling link %q → %q", v.name, path, e.linkTo)
		}
		return t.size, nil
	}
	return e.size, nil
}

// List returns all paths, sorted.
func (v *Volume) List() []string {
	out := make([]string, 0, len(v.files))
	for p := range v.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Write creates (or truncates) a file of the given size, paying the
// device's write cost.
func (v *Volume) Write(p *sim.Proc, path string, size int64, scale float64) error {
	if size < 0 {
		return fmt.Errorf("storage: negative size for %q", path)
	}
	v.dev.pipe.Transfer(p, size, scale, sim.Foreground)
	v.files[path] = entry{size: size}
	return nil
}

// WriteMeta creates a zero-cost metadata-only file entry (bookkeeping
// files whose byte cost is accounted elsewhere).
func (v *Volume) WriteMeta(path string, size int64) {
	v.files[path] = entry{size: size}
}

// WriteMetaSum is WriteMeta with a recorded content checksum — how the
// warehouse lays down artifacts whose integrity clone and scrub paths
// later verify.
func (v *Volume) WriteMetaSum(path string, size int64, sum uint64) {
	v.files[path] = entry{size: size, sum: sum}
}

// Checksum returns a file's recorded content checksum, resolving one
// level of links the way Stat does. The bool reports whether the path
// exists; a present file may still carry sum 0 (unchecksummed).
func (v *Volume) Checksum(path string) (uint64, bool) {
	e, ok := v.files[path]
	if !ok {
		return 0, false
	}
	if e.foreign != nil {
		return e.foreign.vol.Checksum(e.foreign.path)
	}
	if e.linkTo != "" {
		t, ok := v.files[e.linkTo]
		if !ok {
			return 0, false
		}
		return t.sum, true
	}
	return e.sum, true
}

// SetChecksum overwrites the checksum recorded on a direct (non-link)
// entry. Repair paths use it to restore a good sum; corruption faults
// use it to scramble one.
func (v *Volume) SetChecksum(path string, sum uint64) error {
	e, ok := v.files[path]
	if !ok {
		return fmt.Errorf("storage: %s: checksum of missing %q", v.name, path)
	}
	e.sum = sum
	v.files[path] = e
	return nil
}

// Read pays the device's read cost for the whole file and returns its
// size.
func (v *Volume) Read(p *sim.Proc, path string, scale float64) (int64, error) {
	size, err := v.Stat(path)
	if err != nil {
		return 0, err
	}
	v.dev.pipe.Transfer(p, size, scale, sim.Foreground)
	return size, nil
}

// Link creates a symlink dst → src on the same volume: metadata only,
// LinkLatency of virtual time, no data movement.
func (v *Volume) Link(p *sim.Proc, src, dst string) error {
	if _, ok := v.files[src]; !ok {
		return fmt.Errorf("storage: %s: link source %q missing", v.name, src)
	}
	p.Sleep(v.LinkLatency)
	v.files[dst] = entry{linkTo: src}
	return nil
}

// IsLink reports whether path is a symlink (same- or cross-volume).
func (v *Volume) IsLink(path string) bool {
	e, ok := v.files[path]
	return ok && (e.linkTo != "" || e.foreign != nil)
}

// LinkForeign creates dst on v as a symlink to srcPath on another
// volume — the production line's "soft links for the virtual hard disk"
// pointing into the NFS warehouse. Metadata only; LinkLatency applies.
func (v *Volume) LinkForeign(p *sim.Proc, src *Volume, srcPath, dst string) error {
	if !src.Exists(srcPath) {
		return fmt.Errorf("storage: %s: foreign link source %s:%q missing", v.name, src.name, srcPath)
	}
	p.Sleep(v.LinkLatency)
	v.files[dst] = entry{foreign: &foreignRef{vol: src, path: srcPath}}
	return nil
}

// CopyTo copies src on v to dstPath on dst, streaming through both
// devices: the transfer occupies the source device at the bottleneck
// rate, then pays only the destination's fixed overhead (the stream
// writes as it reads). scale further slows the effective rate. A
// background copy takes only the bandwidth foreground traffic leaves on
// the source device; cancelled by its owner it writes nothing and
// returns ErrInterrupted.
func (v *Volume) CopyTo(p *sim.Proc, src string, dst *Volume, dstPath string, scale float64, class sim.Class) (int64, error) {
	size, err := v.Stat(src)
	if err != nil {
		return 0, err
	}
	if scale <= 0 {
		scale = 1
	}
	srcBW := v.dev.pipe.BytesPerSecond
	dstBW := dst.dev.pipe.BytesPerSecond
	eff := srcBW
	if dstBW < eff {
		eff = dstBW
	}
	// Occupy the source device for the whole streamed copy at the
	// bottleneck rate; the destination only charges its per-transfer
	// overhead (its bandwidth is subsumed by the bottleneck rate).
	if left := v.dev.pipe.Transfer(p, size, scale*srcBW/eff, class); left > 0 {
		return 0, fmt.Errorf("storage: copy %s:%q: %w with %v of service left", v.name, src, ErrInterrupted, left)
	}
	p.Sleep(dst.dev.pipe.PerTransferOverhead)
	// The copy carries the source's recorded checksum: a faithful byte
	// stream reproduces the content, corrupted or not.
	sum, _ := v.Checksum(src)
	dst.files[dstPath] = entry{size: size, sum: sum}
	return size, nil
}

// Append grows (or creates) a plain file by delta bytes, paying the
// device's write cost for the appended bytes only — the I/O shape of an
// append-only log flush, where each fsync writes the new suffix rather
// than rewriting the file. Links cannot be appended to. A nil proc
// records the growth without charging (setup-time appends outside the
// kernel). The new size is returned.
func (v *Volume) Append(p *sim.Proc, path string, delta int64, scale float64) (int64, error) {
	if delta < 0 {
		return 0, fmt.Errorf("storage: negative append to %q", path)
	}
	e := v.files[path] // zero value: creating the file
	if e.linkTo != "" || e.foreign != nil {
		return 0, fmt.Errorf("storage: %s: append to link %q", v.name, path)
	}
	if p != nil {
		v.dev.pipe.Transfer(p, delta, scale, sim.Foreground)
	}
	e.size += delta
	v.files[path] = e
	return e.size, nil
}

// Truncate shrinks a plain file to the given size — how a journal
// replay discards a torn tail. Metadata-only: no device cost.
func (v *Volume) Truncate(path string, size int64) error {
	e, ok := v.files[path]
	if !ok {
		return fmt.Errorf("storage: %s: truncate of missing %q", v.name, path)
	}
	if e.linkTo != "" || e.foreign != nil {
		return fmt.Errorf("storage: %s: truncate of link %q", v.name, path)
	}
	if size < 0 || size > e.size {
		return fmt.Errorf("storage: %s: truncate %q to %d (size %d)", v.name, path, size, e.size)
	}
	e.size = size
	v.files[path] = e
	return nil
}

// Charge pays the device cost of moving size bytes in the given class
// without touching the namespace — for operations whose file bookkeeping
// happens elsewhere (e.g. a warehouse publish whose entries the
// warehouse itself records). It returns the service time left, which is
// zero unless the owner cancelled a background charge (sim.Pipe.Transfer).
func (v *Volume) Charge(p *sim.Proc, size int64, scale float64, class sim.Class) time.Duration {
	if size <= 0 {
		return 0
	}
	return v.dev.pipe.Transfer(p, size, scale, class)
}

// Delete removes a file; it is an error if absent.
func (v *Volume) Delete(path string) error {
	if _, ok := v.files[path]; !ok {
		return fmt.Errorf("storage: %s: delete of missing %q", v.name, path)
	}
	delete(v.files, path)
	return nil
}

// UsedBytes sums the sizes of real (non-link) files.
func (v *Volume) UsedBytes() int64 {
	var n int64
	for _, e := range v.files {
		if e.linkTo == "" {
			n += e.size
		}
	}
	return n
}
