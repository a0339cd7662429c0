// Package warehouse implements the VM Warehouse (paper §3.2, Figure 2):
// the store of "golden" virtual machine images the Production Process
// Planner matches creation requests against. Golden machines are stored
// as files on the shared (NFS-backed) warehouse volume — a VM
// configuration file, memory-state file, virtual-disk extents and base
// redo log — and each is described by an XML descriptor recording its
// memory size, installed operating system and the configuration actions
// already performed on it (paper §4.1).
package warehouse

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"sort"
	"sync"
	"time"

	"vmplants/internal/actions"
	"vmplants/internal/core"
	"vmplants/internal/dag"
	"vmplants/internal/fault"
	"vmplants/internal/journal"
	"vmplants/internal/match"
	"vmplants/internal/storage"
	"vmplants/internal/telemetry"
	"vmplants/internal/vdisk"
	"vmplants/internal/warehouse/ledger"
)

// Backend names of the production lines an image suits.
const (
	BackendVMware = "vmware" // suspended checkpoint: cloned VMs resume
	BackendUML    = "uml"    // filesystem image: cloned VMs boot
)

// MemImageOverheadMB is device state saved alongside guest RAM in a
// checkpoint file (a .vmss holds RAM plus device model state).
const MemImageOverheadMB = 6

// DiskSpanFiles is how many extent files a golden virtual disk spans
// (the paper's 2 GB disk is "spanned across 16 files").
const DiskSpanFiles = 16

// Image is one golden machine.
type Image struct {
	// Name is the warehouse key.
	Name string
	// Hardware is the checkpointed configuration.
	Hardware core.HardwareSpec
	// Backend says which production line can instantiate the image.
	Backend string
	// Performed is the recorded configuration history from blank
	// machine to checkpoint, in execution order. It does not change
	// once the image is published.
	Performed []dag.Action
	// keys is dag.Keys(Performed), filled at publish time so that no
	// bid recomputes it; see Candidate.
	keys []string
	// Guest is the guest OS state snapshot at checkpoint time.
	Guest *actions.State
	// Disk is the golden virtual disk (frozen, clean top layer).
	Disk *vdisk.Disk

	// Derived marks an image the learning loop checkpointed back from
	// a configured clone, as opposed to an installer-seeded golden
	// machine. Derived images share their parent's disk extents (the
	// checkpoint is copy-on-write) and are the only images capacity
	// retirement may evict.
	Derived bool
	// Parent names the seed image a derived checkpoint was cloned
	// from; the derived disk's extent files belong to the parent, so
	// the parent holds a reference for the derived image's lifetime.
	Parent string

	// State file paths on the warehouse volume.
	ConfigPath   string
	MemImagePath string // empty for boot-style (UML) images
	RedoPath     string
	ExtentPaths  []string

	// Sums maps every state-file path (descriptor included) to its
	// canonical content checksum, computed at publish time. The volume
	// records the same sums in its namespace; clone and scrub paths
	// verify the two still agree.
	Sums map[string]uint64
	// descriptor is the XML descriptor as publish rendered and laid it
	// down; every input to it is stamped by then and never changes.
	descriptor []byte
	// epoch advances whenever the image's integrity status changes
	// (quarantine, repair); see Epoch.
	epoch int64

	// refs counts live clones whose virtual disks link into this
	// image's state files; a referenced image cannot be retired.
	refs int

	// Usage statistics feeding utility-based retirement: how often the
	// planner cloned this image, the summed match scores of those uses
	// (configuration work the image saved), and when it was last used.
	uses     int
	scoreSum int
	lastUsed time.Duration
	// bytes is the volume space accounted to this image at publish
	// time (shared parent extents excluded for derived images).
	bytes int64
}

// Ref records a live clone of the image.
func (im *Image) Ref() { im.refs++ }

// Unref releases a clone's reference.
func (im *Image) Unref() error {
	if im.refs == 0 {
		return fmt.Errorf("warehouse: unref of %q with no references", im.Name)
	}
	im.refs--
	return nil
}

// Refs reports live clones of the image.
func (im *Image) Refs() int { return im.refs }

// Uses reports how many creations cloned this image.
func (im *Image) Uses() int { return im.uses }

// Utility is the retirement score: summed match scores of the image's
// uses, i.e. how much configuration work it has saved so far.
func (im *Image) Utility() int { return im.scoreSum }

// Bytes reports the volume space accounted to the image at publish
// time (shared parent extents excluded for derived images).
func (im *Image) Bytes() int64 { return im.bytes }

// OS returns the installed operating system ("" for a blank machine).
func (im *Image) OS() string {
	if im.Guest == nil {
		return ""
	}
	return im.Guest.OS
}

// MemImageBytes is the size of the checkpointed memory state that must
// be copied per clone (zero for boot-style images).
func (im *Image) MemImageBytes() int64 {
	if im.MemImagePath == "" {
		return 0
	}
	return int64(im.Hardware.MemoryMB+MemImageOverheadMB) * 1024 * 1024
}

// CheckpointBytes is the state a derived checkpoint of this image must
// move to the warehouse: the redo log plus, for suspended-checkpoint
// backends, the memory image. Unlike MemImageBytes it does not depend
// on the files having been laid down yet, so publishers can price the
// upload before the image is registered.
func (im *Image) CheckpointBytes() int64 {
	var mem int64
	if im.Backend == BackendVMware {
		mem = int64(im.Hardware.MemoryMB+MemImageOverheadMB) * 1024 * 1024
	}
	return im.Disk.RedoBytes() + mem
}

// Candidate converts the image to the matcher's view of it.
func (im *Image) Candidate() match.Candidate {
	return match.Candidate{ID: im.Name, Hardware: im.Hardware, Performed: im.Performed, Keys: im.keys}
}

// Descriptor is the XML description stored beside each image (paper
// §4.1: "XML files are used to describe such cached images in terms of
// their memory sizes, operating system installed, and the configuration
// actions that have already been performed").
type Descriptor struct {
	XMLName  xml.Name      `xml:"golden-machine"`
	Name     string        `xml:"name,attr"`
	Backend  string        `xml:"backend,attr"`
	Arch     string        `xml:"hardware>arch"`
	MemoryMB int           `xml:"hardware>memoryMB"`
	DiskMB   int           `xml:"hardware>diskMB"`
	OS       string        `xml:"os"`
	Actions  []descrAction `xml:"performed>action"`
	// Integrity records the content checksum of every other state file
	// (the descriptor cannot checksum itself), paper-style: the XML
	// descriptor is the image's manifest, so it carries the sums a
	// reader needs to verify what it is about to clone.
	Integrity []descrSum `xml:"integrity>artifact"`
}

type descrSum struct {
	Path string `xml:"path,attr"`
	Sum  string `xml:"sum,attr"`
}

type descrAction struct {
	Op     string       `xml:"op,attr"`
	Target string       `xml:"target,attr"`
	Params []descrParam `xml:"param"`
}

type descrParam struct {
	Name  string `xml:"name,attr"`
	Value string `xml:"value,attr"`
}

// Descriptor builds the XML descriptor for the image.
func (im *Image) Descriptor() Descriptor {
	d := Descriptor{
		Name:     im.Name,
		Backend:  im.Backend,
		Arch:     im.Hardware.Arch,
		MemoryMB: im.Hardware.MemoryMB,
		DiskMB:   im.Hardware.DiskMB,
		OS:       im.OS(),
	}
	for _, a := range im.Performed {
		da := descrAction{Op: a.Op, Target: a.Target.String()}
		keys := make([]string, 0, len(a.Params))
		for k := range a.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			da.Params = append(da.Params, descrParam{Name: k, Value: a.Params[k]})
		}
		d.Actions = append(d.Actions, da)
	}
	own := im.descriptorPath()
	for _, p := range im.sumPaths() {
		if p == own {
			continue
		}
		d.Integrity = append(d.Integrity, descrSum{Path: p, Sum: fmt.Sprintf("%016x", im.Sums[p])})
	}
	return d
}

// ParseDescriptor decodes an XML descriptor and reconstructs the
// performed-action list.
func ParseDescriptor(blob []byte) (Descriptor, []dag.Action, error) {
	var d Descriptor
	if err := xml.Unmarshal(blob, &d); err != nil {
		return Descriptor{}, nil, fmt.Errorf("warehouse: bad descriptor: %w", err)
	}
	var perf []dag.Action
	for _, da := range d.Actions {
		tgt, err := dag.ParseTarget(da.Target)
		if err != nil {
			return Descriptor{}, nil, fmt.Errorf("warehouse: descriptor %q: %w", d.Name, err)
		}
		a := dag.Action{Op: da.Op, Target: tgt}
		if len(da.Params) > 0 {
			a.Params = make(map[string]string, len(da.Params))
			for _, p := range da.Params {
				a.Params[p.Name] = p.Value
			}
		}
		perf = append(perf, a)
	}
	return d, perf, nil
}

// Warehouse is the image store over the shared volume.
type Warehouse struct {
	vol    *storage.Volume
	images map[string]*Image
	// names is the keys of images, kept sorted by register and
	// unregister, its only writers.
	names []string
	cache *cloneCache

	// faults decides corruption injections on the warehouse's storage
	// paths; nil means no injection (SetFaults).
	faults *fault.Registry
	// replica is the second copy seed extents are restored from when
	// corruption is detected; nil means seeds are unrepairable
	// (SetReplica).
	replica *storage.Volume

	// led holds what must outlive the daemon — catalog membership, the
	// quarantine set with its reasons, the extent store's refcounts —
	// and is written only by record, which appends to jnl first when one
	// is attached; Restart folds jnl into a fresh one (durability.go).
	// qmu covers led's quarantine part and repairFails for out-of-kernel
	// observers like debug endpoints; all mutation happens in-kernel.
	jnl *journal.Journal

	qmu         sync.Mutex
	led         *ledger.Ledger
	repairFails map[string]int
	// repairLimit is how many failed repair passes the scrubber allows
	// before retiring an unrepairable (derived, unreferenced) image.
	repairLimit int

	// capacity is the byte budget for image state on the volume; 0
	// means unlimited. The budget is enforced against derived-image
	// publications only — installer-seeded images always fit — by
	// retiring the lowest-utility unreferenced derived image until the
	// newcomer has room.
	capacity  int64
	bytesUsed int64
	retired   int64

	// Telemetry instruments (nil-safe no-ops when unset).
	mLookups      *telemetry.Counter
	mLookupMisses *telemetry.Counter
	mPublishes    *telemetry.Counter
	mRetirements  *telemetry.Counter
	gImages       *telemetry.Gauge
	gDerived      *telemetry.Gauge
	gBytesUsed    *telemetry.Gauge
	mCacheHits    *telemetry.Counter
	mCacheMisses  *telemetry.Counter
	gCacheSize    *telemetry.Gauge

	// Extent-store instruments.
	gExtentEntries  *telemetry.Gauge
	gExtentLogical  *telemetry.Gauge
	gExtentPhysical *telemetry.Gauge

	// Integrity instruments.
	mScrubPasses   *telemetry.Counter
	mScrubVerified *telemetry.Counter
	mCorruptions   *telemetry.Counter
	mQuarantines   *telemetry.Counter
	mRepairs       *telemetry.Counter
	mRepairBytes   *telemetry.Counter
	mScrubRetire   *telemetry.Counter
	gQuarantine    *telemetry.Gauge
}

// New creates an empty warehouse on the given (server-side) volume.
func New(vol *storage.Volume) *Warehouse {
	return &Warehouse{
		vol:         vol,
		images:      make(map[string]*Image),
		cache:       newCloneCache(DefaultCloneCacheSize),
		led:         ledger.New(),
		repairFails: make(map[string]int),
		repairLimit: DefaultRepairAttempts,
	}
}

// SetTelemetry wires the warehouse's instruments: image lookup counters
// ("warehouse.lookups", "warehouse.lookup_misses"), the publish counter
// ("warehouse.publishes"), the published-image gauge
// ("warehouse.images"), the learning-loop instruments
// ("warehouse.derived_images", "warehouse.retirements",
// "warehouse.bytes_used") and the hot clone-cache instruments
// ("warehouse.cache_hits", "warehouse.cache_misses",
// "warehouse.cache_size"). Passing nil detaches them.
func (w *Warehouse) SetTelemetry(h *telemetry.Hub) {
	w.mLookups = h.Counter("warehouse.lookups")
	w.mLookupMisses = h.Counter("warehouse.lookup_misses")
	w.mPublishes = h.Counter("warehouse.publishes")
	w.mRetirements = h.Counter("warehouse.retirements")
	w.gImages = h.Gauge("warehouse.images")
	w.gDerived = h.Gauge("warehouse.derived_images")
	w.gBytesUsed = h.Gauge("warehouse.bytes_used")
	w.mCacheHits = h.Counter("warehouse.cache_hits")
	w.mCacheMisses = h.Counter("warehouse.cache_misses")
	w.gCacheSize = h.Gauge("warehouse.cache_size")
	w.gExtentEntries = h.Gauge("warehouse.extent_entries")
	w.gExtentLogical = h.Gauge("warehouse.extent_logical_bytes")
	w.gExtentPhysical = h.Gauge("warehouse.extent_physical_bytes")
	w.mScrubPasses = h.Counter("warehouse.scrub_passes")
	w.mScrubVerified = h.Counter("warehouse.scrub_verified")
	w.mCorruptions = h.Counter("warehouse.corruptions_detected")
	w.mQuarantines = h.Counter("warehouse.quarantined")
	w.mRepairs = h.Counter("warehouse.repairs")
	w.mRepairBytes = h.Counter("warehouse.repair_bytes")
	w.mScrubRetire = h.Counter("warehouse.scrub_retirements")
	w.gQuarantine = h.Gauge("warehouse.quarantine_size")
}

// SetCapacity sets the byte budget for image state on the warehouse
// volume (0 = unlimited). Derived-image publications that would exceed
// it trigger utility-based retirement; seed images are never evicted.
func (w *Warehouse) SetCapacity(bytes int64) { w.capacity = bytes }

// Capacity returns the configured byte budget (0 = unlimited).
func (w *Warehouse) Capacity() int64 { return w.capacity }

// BytesUsed reports the volume space accounted to published images:
// per-image state bytes plus the physical (deduplicated) bytes of the
// content-addressed extent store. Before the store, every seed carried
// its full extent capacity here; identical extents now count once.
func (w *Warehouse) BytesUsed() int64 {
	return w.bytesUsed + w.ExtentStatsNow().PhysicalBytes
}

// DerivedCount reports how many derived images are published.
func (w *Warehouse) DerivedCount() int {
	n := 0
	for _, im := range w.images {
		if im.Derived {
			n++
		}
	}
	return n
}

// Volume returns the backing volume.
func (w *Warehouse) Volume() *storage.Volume { return w.vol }

// encodeDescriptor serializes an image descriptor to its on-volume XML
// bytes. It is a package variable so tests can force an encode failure
// and exercise Publish's error path.
var encodeDescriptor = func(d Descriptor) ([]byte, error) {
	var buf bytes.Buffer
	enc := xml.NewEncoder(&buf)
	enc.Indent("", "  ")
	if err := enc.Encode(d); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// validate runs the publish-time checks shared by seed and derived
// publications, filling im.Guest from a replay when unset.
func (w *Warehouse) validate(im *Image) error {
	if im.Name == "" {
		return fmt.Errorf("warehouse: image needs a name")
	}
	if _, dup := w.images[im.Name]; dup {
		return fmt.Errorf("warehouse: image %q already published", im.Name)
	}
	if err := im.Hardware.Validate(); err != nil {
		return fmt.Errorf("warehouse: image %q: %w", im.Name, err)
	}
	if im.Backend != BackendVMware && im.Backend != BackendUML {
		return fmt.Errorf("warehouse: image %q: unknown backend %q", im.Name, im.Backend)
	}
	if im.Disk == nil {
		return fmt.Errorf("warehouse: image %q has no disk", im.Name)
	}
	// Consistency: replaying the recorded actions must reproduce the
	// recorded guest state's identity (same OS), catching descriptors
	// that drifted from their content.
	replayed, err := actions.Replay(im.Performed)
	if err != nil {
		return fmt.Errorf("warehouse: image %q history does not replay: %w", im.Name, err)
	}
	if im.Guest == nil {
		im.Guest = replayed
	} else if im.Guest.OS != replayed.OS {
		return fmt.Errorf("warehouse: image %q records OS %q but history yields %q",
			im.Name, im.Guest.OS, replayed.OS)
	}
	return nil
}

// describe stamps what the descriptor records — the state-file paths
// and every artifact's sum (ExtentPaths are set; a derived image's
// extent sums are its parent's) — and renders it, once: nothing it
// reads changes after publish. Nothing has touched the volume yet, so
// an encode failure leaves it untouched.
func (im *Image) describe(parent *Image) error {
	dir := "golden/" + im.Name + "/"
	im.ConfigPath = dir + "vm.cfg"
	im.RedoPath = dir + "base.redo"
	if im.Backend == BackendVMware {
		im.MemImagePath = dir + "mem.vmss"
	}
	im.stampSums(parent)
	blob, err := encodeDescriptor(im.Descriptor())
	if err != nil {
		return fmt.Errorf("warehouse: image %q descriptor: %w", im.Name, err)
	}
	im.descriptor = blob
	im.Sums[im.descriptorPath()] = artifactSum(im.descriptorPath(), int64(len(blob)), 0)
	return nil
}

// register lays a described image's private state files down, books it
// into the store and records the publication.
func (w *Warehouse) register(im *Image, accounted int64, fields map[string]string) {
	w.vol.WriteMetaSum(im.ConfigPath, configBytes, im.Sums[im.ConfigPath])
	w.vol.WriteMetaSum(im.RedoPath, im.Disk.RedoBytes(), im.Sums[im.RedoPath])
	if im.MemImagePath != "" {
		w.vol.WriteMetaSum(im.MemImagePath, im.MemImageBytes(), im.Sums[im.MemImagePath])
	}
	w.vol.WriteMetaSum(im.descriptorPath(), int64(len(im.descriptor)), im.Sums[im.descriptorPath()])
	im.keys = dag.Keys(im.Performed)
	im.bytes = accounted
	w.bytesUsed += accounted
	w.images[im.Name] = im
	i, _ := slices.BinarySearch(w.names, im.Name)
	w.names = slices.Insert(w.names, i, im.Name)
	w.mPublishes.Inc()
	w.gImages.Set(int64(len(w.images)))
	w.gDerived.Set(int64(w.DerivedCount()))
	w.gBytesUsed.Set(w.BytesUsed())
	w.record(journal.ImagePublish, im.Name, fields)
	if w.faults.Should(integritySite, fault.TornWrite, "publish") {
		w.corruptPath(im.RedoPath)
	}
}

// Publish registers a seed golden image and lays its state files down
// on the warehouse volume. Publication is the paper's off-line "golden
// machine definition" step, performed by installers before plants serve
// requests, so no virtual time is charged. The descriptor is encoded
// before any file is laid down, so an encode failure leaves the volume
// untouched.
func (w *Warehouse) Publish(im *Image) error {
	if im.Derived {
		return fmt.Errorf("warehouse: image %q is derived; publish it through PublishDerived", im.Name)
	}
	if err := w.validate(im); err != nil {
		return err
	}

	// Extents are content-addressed: each slot resolves to the canonical
	// path of its (size, content) key, so byte-identical extents — the
	// all-zero spans of sparse installer images, across every seed — land
	// on one shared physical copy. The paths are stamped before the
	// encode; the store references (which lay the files) are taken after,
	// so an encode failure still leaves the volume untouched.
	im.ExtentPaths = nil
	for i := 0; i < DiskSpanFiles; i++ {
		im.ExtentPaths = append(im.ExtentPaths, extentPath(extentKey(im.slot(i))))
	}
	if err := im.describe(nil); err != nil {
		return err
	}

	for i := 0; i < DiskSpanFiles; i++ {
		if w.killpoint("publish", i) {
			// kill -9 between store operations: references taken so far
			// are journaled, the image never registers; Restart's
			// reconciliation releases the orphans.
			return fmt.Errorf("warehouse: daemon killed publishing %q (extent %d)", im.Name, i)
		}
		w.acquireExtent(im.slot(i))
	}
	// Extent bytes are accounted by the store (deduplicated), not per
	// image: a seed's accounted bytes are its private state only.
	w.register(im, stateBytes(im), map[string]string{"origin": "seed"})
	return nil
}

// configBytes is the size of a golden machine's VM configuration file.
const configBytes = 2 * 1024

// stateBytes is the volume space a described image's private state
// takes: everything but the disk extents, which the store accounts for
// a seed and a derived image shares with its parent.
func stateBytes(im *Image) int64 {
	return configBytes + im.CheckpointBytes() + int64(len(im.descriptor))
}

// PublishDerived registers a derived golden image — a copy-on-write
// checkpoint of a configured clone that the learning loop publishes
// back so future similar DAGs clone instead of reconfiguring. The
// derived image shares its parent's disk extents (only config, redo,
// memory state and descriptor are laid down) and holds a reference on
// the parent for its lifetime. When a capacity budget is set and the
// newcomer does not fit, the lowest-utility unreferenced derived image
// is retired until it does; seed images are never evicted, and if
// nothing can be retired the publication is refused.
func (w *Warehouse) PublishDerived(im *Image, now time.Duration) error {
	if !im.Derived || im.Parent == "" {
		return fmt.Errorf("warehouse: image %q is not marked derived", im.Name)
	}
	parent, ok := w.images[im.Parent]
	if !ok {
		return fmt.Errorf("warehouse: derived image %q: no parent %q", im.Name, im.Parent)
	}
	if parent.Derived {
		return fmt.Errorf("warehouse: derived image %q: parent %q is itself derived", im.Name, im.Parent)
	}
	if im.Backend != parent.Backend {
		return fmt.Errorf("warehouse: derived image %q backend %q differs from parent's %q",
			im.Name, im.Backend, parent.Backend)
	}
	if err := w.validate(im); err != nil {
		return err
	}

	// The checkpoint is copy-on-write: clones of the derived image read
	// base blocks from the parent's extent files.
	im.ExtentPaths = append([]string(nil), parent.ExtentPaths...)
	if err := im.describe(parent); err != nil {
		return err
	}
	need := stateBytes(im)
	if w.capacity > 0 {
		for w.BytesUsed()+need > w.capacity {
			if err := w.retireOne(); err != nil {
				return fmt.Errorf("warehouse: no room for derived image %q (%d of %d bytes used): %w",
					im.Name, w.BytesUsed(), w.capacity, err)
			}
		}
	}

	parent.Ref()
	im.lastUsed = now
	w.register(im, need, map[string]string{"origin": "derived", "parent": im.Parent})
	return nil
}

// retireOne evicts the retirable derived image with the lowest utility
// (summed match scores of its uses), breaking ties toward the least
// recently used, then the lexicographically smallest name. Seed images
// and images with live clones are never candidates.
func (w *Warehouse) retireOne() error {
	var victim *Image
	for _, n := range w.names {
		im := w.images[n]
		if !im.Derived || im.refs > 0 {
			continue
		}
		// A quarantined image is mid-repair: its lifecycle belongs to the
		// scrubber (repaired, or retired at the repair limit), not to
		// capacity pressure — evicting it here would race the repair.
		if w.IsQuarantined(n) {
			continue
		}
		if victim == nil ||
			im.scoreSum < victim.scoreSum ||
			(im.scoreSum == victim.scoreSum && im.lastUsed < victim.lastUsed) {
			victim = im
		}
	}
	if victim == nil {
		return fmt.Errorf("every derived image is referenced")
	}
	w.unregister(victim)
	w.retired++
	w.mRetirements.Inc()
	return nil
}

// Retirements reports how many derived images capacity pressure has
// evicted.
func (w *Warehouse) Retirements() int64 { return w.retired }

// NoteUse records that a creation cloned the named image with the
// given match score, feeding utility-based retirement.
func (w *Warehouse) NoteUse(name string, score int, now time.Duration) {
	im, ok := w.images[name]
	if !ok {
		return
	}
	// An unservable image saves no work: a use landing during quarantine
	// (a creation that bound just before the quarantine did) must not
	// inflate its retirement score.
	if w.IsQuarantined(name) {
		return
	}
	im.uses++
	im.scoreSum += score
	im.lastUsed = now
}

// Remove retires a golden image, deleting its state files from the
// warehouse volume. An image with live clones cannot be removed: their
// virtual disks hold soft links into its extents. Removal is
// idempotent over partial failures: files already gone are skipped, so
// a retry after a crashed or interrupted removal completes instead of
// wedging on the first missing path.
func (w *Warehouse) Remove(name string) error {
	im, ok := w.images[name]
	if !ok {
		return fmt.Errorf("warehouse: no image %q", name)
	}
	if im.refs > 0 {
		return fmt.Errorf("warehouse: image %q has %d live clones", name, im.refs)
	}
	w.unregister(im)
	return nil
}

// unregister sweeps an image's private state files off the volume
// (best-effort: already-missing files are skipped) and unbooks it. A
// derived image's extent files belong to its parent and are left alone;
// the parent reference taken at publication is released. A seed's
// extents are store references: each is released (the store deletes the
// physical copy — and its replica mirror — only when the last image
// referencing that content lets go).
func (w *Warehouse) unregister(im *Image) {
	paths := []string{im.ConfigPath, im.RedoPath, "golden/" + im.Name + "/descriptor.xml"}
	if im.MemImagePath != "" {
		paths = append(paths, im.MemImagePath)
	}
	for _, p := range paths {
		if p == "" || !w.vol.Exists(p) {
			continue
		}
		// Delete only fails on missing paths, which the guard excludes.
		_ = w.vol.Delete(p)
	}
	if im.Derived {
		if parent, ok := w.images[im.Parent]; ok {
			// The publication-time reference; the parent outlives every
			// derived child, so it is always still registered here.
			_ = parent.Unref()
		}
	}
	w.bytesUsed -= im.bytes
	delete(w.images, im.Name)
	if i, ok := slices.BinarySearch(w.names, im.Name); ok {
		w.names = slices.Delete(w.names, i, i+1)
	}
	// The retire record takes the image out of quarantine as well.
	w.record(journal.ImageRetire, im.Name, nil)
	w.qmu.Lock()
	delete(w.repairFails, im.Name)
	w.qmu.Unlock()
	w.gQuarantine.Set(int64(len(w.Quarantined())))
	w.cache.drop(im.Name)
	w.gCacheSize.Set(int64(w.cache.order.Len()))
	w.gImages.Set(int64(len(w.images)))
	w.gDerived.Set(int64(w.DerivedCount()))
	if !im.Derived {
		// A seed's references go back slot by slot, as Publish took them.
		for i := 0; i < DiskSpanFiles; i++ {
			if w.killpoint("retire", i) {
				// kill -9 mid-retire: the retire record is durable but
				// some references were never released; Restart's
				// reconciliation releases them as orphans.
				return
			}
			w.releaseExtent(extentKey(im.slot(i)))
		}
	}
	w.gBytesUsed.Set(w.BytesUsed())
}

// Lookup returns a published image.
func (w *Warehouse) Lookup(name string) (*Image, bool) {
	im, ok := w.images[name]
	w.mLookups.Inc()
	if !ok {
		w.mLookupMisses.Inc()
	}
	return im, ok
}

// List returns all image names, sorted. The slice is the caller's own:
// it stays valid while images are published or retired.
func (w *Warehouse) List() []string {
	return slices.Clone(w.names)
}

// Candidates returns the matcher's view of every image suited to the
// given backend ("" means any), in deterministic order. Quarantined
// images are invisible to matching: no new creation may bind to state
// under suspicion.
func (w *Warehouse) Candidates(backend string) []match.Candidate {
	var out []match.Candidate
	for _, n := range w.names {
		im := w.images[n]
		if backend != "" && im.Backend != backend {
			continue
		}
		if w.IsQuarantined(n) {
			continue
		}
		out = append(out, im.Candidate())
	}
	return out
}

// BuildGolden constructs a golden image in memory: it replays the given
// configuration history onto a blank guest, builds the golden disk with
// its configuration delta in a frozen redo log, and returns the
// unpublished image. The caller publishes it.
func BuildGolden(name string, hw core.HardwareSpec, backend string, performed []dag.Action) (*Image, error) {
	guest, err := actions.Replay(performed)
	if err != nil {
		return nil, fmt.Errorf("warehouse: golden %q: %w", name, err)
	}
	base, err := vdisk.NewImage(name+"-base", hw.DiskMB, DiskSpanFiles)
	if err != nil {
		return nil, err
	}
	disk := vdisk.NewDisk(name, base)
	// The configuration session dirtied some blocks: one per performed
	// action plus a marker, so clones have observable content.
	for i := range performed {
		blk := make([]byte, vdisk.BlockSize)
		copy(blk, fmt.Sprintf("golden %s action %d (%s)", name, i, performed[i].Op))
		if err := disk.WriteBlock(int64(i), blk); err != nil {
			return nil, err
		}
	}
	disk.Freeze()
	return &Image{
		Name:      name,
		Hardware:  hw,
		Backend:   backend,
		Performed: performed,
		Guest:     guest,
		Disk:      disk,
	}, nil
}

// DerivedName mints the warehouse key for a derived image from the DAG
// fingerprint of its configuration history: two VMs configured through
// the same action sequence yield the same name, so the learning loop
// publishes each distinct configuration once.
func DerivedName(backend string, history []dag.Action) string {
	h := fnv.New64a()
	for _, a := range history {
		io.WriteString(h, a.Key())
		h.Write([]byte{0})
	}
	return fmt.Sprintf("derived-%s-%012x", backend, h.Sum64()&0xffffffffffff)
}

// BuildDerived reconstructs a derived image from its descriptor
// contents on the receiving side of catalog gossip: the configuration
// history is replayed for the guest state, and the disk becomes a
// frozen copy-on-write snapshot over the parent's golden disk with one
// dirty block per action executed beyond the parent's history
// (mirroring what the configuration session wrote). The caller
// publishes the result with PublishDerived.
func BuildDerived(name string, parent *Image, performed []dag.Action) (*Image, error) {
	guest, err := actions.Replay(performed)
	if err != nil {
		return nil, fmt.Errorf("warehouse: derived %q: %w", name, err)
	}
	disk := parent.Disk.Snapshot(name)
	for i := len(parent.Performed); i < len(performed); i++ {
		blk := make([]byte, vdisk.BlockSize)
		copy(blk, fmt.Sprintf("derived %s action %d (%s)", name, i, performed[i].Op))
		if err := disk.WriteBlock(int64(i), blk); err != nil {
			return nil, err
		}
	}
	disk.Freeze()
	return &Image{
		Name:      name,
		Hardware:  parent.Hardware,
		Backend:   parent.Backend,
		Performed: performed,
		Guest:     guest,
		Disk:      disk,
		Derived:   true,
		Parent:    parent.Name,
	}, nil
}
