package warehouse

import (
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"vmplants/internal/core"
	"vmplants/internal/fault"
	"vmplants/internal/journal"
	"vmplants/internal/storage"
)

// The end-to-end integrity invariant: every byte a clone or resume
// reads was the byte publish wrote. Publish records a content checksum
// for every artifact — in the image descriptor's <integrity> section
// and in the storage volume's file namespace — and every read path
// verifies before trusting the state: clone opens verify once per
// (image, integrity epoch), so the hot path stays hot; the background
// scrubber deep-verifies everything else. A mismatch quarantines the
// image; the scrubber repairs from a replica or by re-materializing
// derived state, and retires what it cannot repair.

// integritySite is the fault-registry site label for warehouse-side
// storage faults; ops qualify the read path ("clone", "scrub") or the
// write path ("publish").
const integritySite = "warehouse"

// DefaultRepairAttempts is how many scrub passes may fail to repair a
// quarantined image before the scrubber gives up and retires it (when
// retirement is safe: derived and unreferenced).
const DefaultRepairAttempts = 3

// artifactSum is the content checksum of one state artifact. The
// simulation models file content as (path, size, disk content) rather
// than bytes, so the checksum digests exactly that; what matters is
// that publish and verify agree, and that a corruption fault's
// scramble never does.
func artifactSum(path string, size int64, content uint64) uint64 {
	h := fnv.New64a()
	io.WriteString(h, path)
	h.Write([]byte{0})
	fmt.Fprintf(h, "%d:%016x", size, content)
	return h.Sum64()
}

// scramble is the corruption transform applied to a recorded checksum.
// It is deliberately not an involution (unlike an XOR mask) so two
// corruptions of the same artifact cannot cancel out into a silently
// "clean" file.
func scramble(sum uint64) uint64 {
	out := sum*2654435761 + 0x9e3779b97f4a7c15
	if out == sum {
		out++
	}
	return out
}

// descriptorPath is where the image's XML descriptor lives.
func (im *Image) descriptorPath() string { return "golden/" + im.Name + "/descriptor.xml" }

// Epoch reports the image's integrity epoch: it advances every time
// the image's trustworthiness changes (corruption detected, repair
// completed). A CloneContext captures it when it is built so clones
// in flight across a transition can be failed over instead of resumed
// from suspect state.
func (im *Image) Epoch() int64 { return im.epoch }

// stampSums fills im.Sums with the canonical checksum of every state
// artifact (descriptor excluded — it cannot record its own). Paths
// must already be stamped. A derived image's extents belong to its
// parent, so their recorded sums are copied from the parent's.
func (im *Image) stampSums(parent *Image) {
	im.Sums = make(map[string]uint64)
	im.Sums[im.ConfigPath] = artifactSum(im.ConfigPath, configBytes, 0)
	im.Sums[im.RedoPath] = artifactSum(im.RedoPath, im.Disk.RedoBytes(), im.Disk.ContentHash())
	if im.MemImagePath != "" {
		im.Sums[im.MemImagePath] = artifactSum(im.MemImagePath, im.MemImageBytes(), 0)
	}
	for i, p := range im.ExtentPaths {
		if parent != nil {
			im.Sums[p] = parent.Sums[p]
		} else {
			// Canonical store checksum: content-derived, so every image
			// referencing the same extent records the same sum under the
			// same path — which is what lets detect() poison by content.
			size, hash := im.slot(i)
			im.Sums[p] = artifactSum(p, size, hash)
		}
	}
}

// sumPaths lists the image's checksummed artifact paths, sorted.
func (im *Image) sumPaths() []string {
	out := make([]string, 0, len(im.Sums))
	for p := range im.Sums {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// badArtifacts compares the volume's recorded checksums against the
// image's canonical ones and returns the mismatching paths, sorted. It
// is metadata-only — O(artifacts), no data movement — which is what
// lets the clone path verify without charging virtual time.
func (w *Warehouse) badArtifacts(im *Image) []string {
	var bad []string
	for _, p := range im.sumPaths() {
		got, ok := w.vol.Checksum(p)
		if !ok || got != im.Sums[p] {
			bad = append(bad, p)
		}
	}
	return bad
}

// corruptTarget picks the artifact a corrupt-extent fault scrambles:
// the first disk extent for a seed, the redo log for a derived image
// (whose extents belong to the parent and are corrupted there).
func corruptTarget(im *Image) string {
	if !im.Derived && len(im.ExtentPaths) > 0 {
		return im.ExtentPaths[0]
	}
	return im.RedoPath
}

// corruptPath scrambles the checksum recorded on one volume file — the
// storage-layer effect both corruption fault kinds share.
func (w *Warehouse) corruptPath(path string) {
	if sum, ok := w.vol.Checksum(path); ok {
		_ = w.vol.SetChecksum(path, scramble(sum))
	}
}

// SetFaults wires the fault registry the warehouse's storage paths
// consult for corrupt-extent (ops "clone" and "scrub") and torn-write
// (op "publish") injections, under site "warehouse". nil disables
// injection at zero cost.
func (w *Warehouse) SetFaults(reg *fault.Registry) { w.faults = reg }

// SetReplica configures the replica volume seed disk extents are
// restored from when corruption is detected — the site's second copy
// of the installer-laid state. Extents of every already-published seed
// image are mirrored immediately; later seed publications mirror as
// they land. Replication is an off-line provisioning step like publish
// itself, so no virtual time is charged; restores from the replica pay
// its device cost for real.
func (w *Warehouse) SetReplica(vol *storage.Volume) {
	w.replica = vol
	if vol == nil {
		return
	}
	// Mirror the extent store, not per-image paths: one replica file per
	// distinct extent, shared by every image referencing that content.
	// Derived images carry no extents of their own and are
	// re-materializable, so there is nothing of theirs to mirror.
	w.mirrorExtents()
}

// Quarantine takes the named image out of service: matching skips it,
// clone opens refuse with a transient error (so in-flight creations
// fail over through the shop's re-bid path), and its integrity epoch
// advances so already-open clone contexts fail verification and the
// next open after repair verifies afresh. Reports whether the image was
// newly quarantined.
func (w *Warehouse) Quarantine(name, reason string) bool {
	im, ok := w.images[name]
	if !ok || w.IsQuarantined(name) {
		return false
	}
	w.record(journal.QuarantineEnter, name, map[string]string{"reason": reason})
	im.epoch++
	w.mQuarantines.Inc()
	w.gQuarantine.Set(int64(len(w.Quarantined())))
	return true
}

// Unquarantine returns a repaired image to service, advancing its
// epoch: clones opened before the repair must not resume from it.
func (w *Warehouse) Unquarantine(name string) bool {
	if !w.IsQuarantined(name) {
		return false
	}
	w.record(journal.QuarantineExit, name, nil)
	if im, live := w.images[name]; live {
		im.epoch++
	}
	w.gQuarantine.Set(int64(len(w.Quarantined())))
	return true
}

// IsQuarantined reports whether the image is currently quarantined.
func (w *Warehouse) IsQuarantined(name string) bool {
	_, ok := w.QuarantineReason(name)
	return ok
}

// QuarantineReason returns why an image is quarantined.
func (w *Warehouse) QuarantineReason(name string) (string, bool) {
	w.qmu.Lock()
	defer w.qmu.Unlock()
	return w.led.Quarantine(name)
}

// Quarantined lists the currently quarantined images, sorted. Safe for
// out-of-kernel observers (debug endpoints).
func (w *Warehouse) Quarantined() []string {
	w.qmu.Lock()
	defer w.qmu.Unlock()
	return w.led.Quarantined()
}

// detect books a verification failure: one corruption event per newly
// bad artifact, and quarantine for the failing image plus every other
// image whose recorded state includes a bad artifact — a corrupted
// seed extent poisons every derived descendant sharing it.
func (w *Warehouse) detect(im *Image, bad []string, origin string) {
	w.mCorruptions.Add(int64(len(bad)))
	w.Quarantine(im.Name, fmt.Sprintf("%s: checksum mismatch on %s", origin, bad[0]))
	for _, name := range w.names {
		other := w.images[name]
		if other == im {
			continue
		}
		for _, p := range bad {
			if _, shares := other.Sums[p]; shares {
				w.Quarantine(name, fmt.Sprintf("%s: shares corrupt artifact %s", origin, p))
				break
			}
		}
	}
}

// VerifyClone re-checks a clone context after the state copy finished:
// the image must still be published, out of quarantine, and at the
// same integrity epoch as when the context was built. Anything else
// means the clone may have read suspect bytes, and the error is marked
// transient so the shop fails the creation over to another bidder.
func (w *Warehouse) VerifyClone(ctx *CloneContext) error {
	name := ctx.Image.Name
	im, ok := w.images[name]
	if !ok || im != ctx.Image {
		return fmt.Errorf("warehouse: image %q vanished during clone: %w", name, core.ErrTransient)
	}
	if w.IsQuarantined(name) {
		return fmt.Errorf("warehouse: image %q quarantined during clone: %w", name, core.ErrTransient)
	}
	if im.epoch != ctx.Epoch {
		return fmt.Errorf("warehouse: image %q changed integrity epoch during clone: %w", name, core.ErrTransient)
	}
	return nil
}

// DirtyImages re-checks every published image's recorded checksums
// against the volume and returns the names that no longer verify,
// sorted — the end-of-run audit experiments use to prove zero silent
// corruptions: corrupted sums persist until repaired and repairs only
// follow detection, so an all-clean volume plus an empty quarantine
// list means nothing slipped through.
func (w *Warehouse) DirtyImages() []string {
	var out []string
	for _, name := range w.names {
		if len(w.badArtifacts(w.images[name])) > 0 {
			out = append(out, name)
		}
	}
	return out
}

// ScrubStats is the integrity counter snapshot experiments assert on.
type ScrubStats struct {
	Passes       int64
	Verified     int64
	Corruptions  int64
	Quarantines  int64
	Repairs      int64
	RepairBytes  int64
	Retirements  int64 // retired by the scrubber as unrepairable
	InQuarantine int   // currently quarantined
}

// ScrubStatsNow reads the current integrity counters.
func (w *Warehouse) ScrubStatsNow() ScrubStats {
	return ScrubStats{
		Passes:       w.mScrubPasses.Value(),
		Verified:     w.mScrubVerified.Value(),
		Corruptions:  w.mCorruptions.Value(),
		Quarantines:  w.mQuarantines.Value(),
		Repairs:      w.mRepairs.Value(),
		RepairBytes:  w.mRepairBytes.Value(),
		Retirements:  w.mScrubRetire.Value(),
		InQuarantine: len(w.Quarantined()),
	}
}
