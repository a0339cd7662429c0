// Content-addressed extent store: PR 5 gave every disk extent a content
// checksum for verification; here those sums are promoted to identity.
// An extent's store key digests its (size, base-image content), so
// byte-identical extents — across seed publications, derived
// publications and replica mirrors — share one physical copy on the
// warehouse volume, under one canonical path, refcounted by the images
// that carry them.
//
// The sharing composes with the integrity machinery for free: the
// canonical path appears in every referencing image's Sums map, so a
// corruption detected on it quarantines every image whose state
// includes the poisoned extent (poison-by-content-key), the scrubber
// repairs the single shared copy once, and the replica mirrors one file
// per distinct extent instead of one per image.
//
// The store's table — content key → size, hash, references — is part
// of the warehouse's ledger, so it changes only through record
// (extent-put / extent-release) and a Restart gets it back by the same
// fold. This file keeps the physical side: the first reference lays the
// extent file down (and its replica mirror), the last one deletes both.
// A daemon killed between store operations leaves a journal trail whose
// fold disagrees with the catalog; reconcileExtents squares the two,
// releasing orphaned references (a publish or retire that died
// half-way) through the same record.
package warehouse

import (
	"fmt"
	"slices"

	"vmplants/internal/fault"
	"vmplants/internal/journal"
	"vmplants/internal/warehouse/ledger"
)

// extentKey derives the store key: a digest of size and content, so
// identity is exactly "same bytes".
func extentKey(size int64, hash uint64) uint64 {
	return artifactSum("extent", size, hash)
}

// slot returns the identity of a seed image's i-th disk extent: its
// size and base-image content hash, what extentKey digests.
func (im *Image) slot(i int) (size int64, hash uint64) {
	base := im.Disk.Base()
	return base.SizeBytes() / int64(DiskSpanFiles), base.ExtentContentHash(i)
}

// extentPath is the canonical on-volume path of a stored extent.
func extentPath(key uint64) string {
	return fmt.Sprintf("extents/%016x.vmdk", key)
}

// acquireExtent takes one reference on the extent identified by
// (size, hash); the first reference lays the physical file down under
// its canonical path and mirrors it to the replica.
func (w *Warehouse) acquireExtent(size int64, hash uint64) {
	key := extentKey(size, hash)
	if _, _, refs := w.led.Extent(key); refs == 0 {
		path := extentPath(key)
		w.vol.WriteMetaSum(path, size, artifactSum(path, size, hash))
		w.mirrorExtent(key, size, hash)
	}
	w.record(journal.ExtentPut, ledger.ExtentKey(key), ledger.ExtentFields(size, hash))
	w.updateExtentGauges()
}

// releaseExtent drops one reference; the last one deletes the physical
// copy from the volume and the replica.
func (w *Warehouse) releaseExtent(key uint64) {
	if _, _, refs := w.led.Extent(key); refs == 0 {
		return
	}
	w.record(journal.ExtentRelease, ledger.ExtentKey(key), nil)
	if _, _, left := w.led.Extent(key); left == 0 {
		path := extentPath(key)
		if w.vol.Exists(path) {
			_ = w.vol.Delete(path)
		}
		if w.replica != nil && w.replica.Exists(path) {
			_ = w.replica.Delete(path)
		}
	}
	w.updateExtentGauges()
}

// mirrorExtent lays one stored extent down on the replica volume with
// its canonical checksum (no-op without a replica).
func (w *Warehouse) mirrorExtent(key uint64, size int64, hash uint64) {
	if w.replica == nil {
		return
	}
	path := extentPath(key)
	w.replica.WriteMetaSum(path, size, artifactSum(path, size, hash))
}

// mirrorExtents mirrors every stored extent — how a freshly attached
// replica catches up (SetReplica).
func (w *Warehouse) mirrorExtents() {
	w.led.Extents(func(key uint64, size int64, hash uint64, _ int) {
		w.mirrorExtent(key, size, hash)
	})
}

// ExtentStats is the dedup snapshot experiments and debug surfaces read.
type ExtentStats struct {
	// Entries is how many distinct extents the store holds.
	Entries int
	// Refs is the total reference count across entries.
	Refs int
	// LogicalBytes is what the referencing images would occupy without
	// dedup (refs × size); PhysicalBytes is what they actually occupy.
	LogicalBytes  int64
	PhysicalBytes int64
}

// SavedBytes is the volume space dedup is currently saving.
func (s ExtentStats) SavedBytes() int64 { return s.LogicalBytes - s.PhysicalBytes }

// DedupRatio is logical over physical bytes (1.0 = no sharing).
func (s ExtentStats) DedupRatio() float64 {
	if s.PhysicalBytes == 0 {
		return 1
	}
	return float64(s.LogicalBytes) / float64(s.PhysicalBytes)
}

// ExtentStatsNow snapshots the store.
func (w *Warehouse) ExtentStatsNow() ExtentStats {
	var st ExtentStats
	w.led.Extents(func(_ uint64, size int64, _ uint64, refs int) {
		st.Entries++
		st.Refs += refs
		st.LogicalBytes += int64(refs) * size
		st.PhysicalBytes += size
	})
	return st
}

func (w *Warehouse) updateExtentGauges() {
	st := w.ExtentStatsNow()
	w.gExtentEntries.Set(int64(st.Entries))
	w.gExtentLogical.Set(st.LogicalBytes)
	w.gExtentPhysical.Set(st.PhysicalBytes)
	w.gBytesUsed.Set(w.BytesUsed())
}

// killpoint is a kill -9 injection seam for the crash-restart sweep:
// warehouse operations that take or release several store references
// check it between steps (op "publish:3" = die before the fourth
// acquire), modelling a daemon killed mid-operation.
func (w *Warehouse) killpoint(op string, i int) bool {
	return w.faults.Should(integritySite, fault.DaemonKill, fmt.Sprintf("%s:%d", op, i))
}

// reconcileExtents squares the ledger's extent references, as a
// Restart folded them, against the catalog: every live seed image's
// extent slots are the references that should exist. References beyond
// them are orphans from a publish or retire that died half-way, and are
// released; shortfalls (a cataloged seed whose puts never made the
// journal) are re-acquired. Both go through record, so the next fold
// starts balanced. Returns (refs rebuilt, orphans released).
func (w *Warehouse) reconcileExtents() (rebuilt, orphans int) {
	type want struct {
		refs int
		size int64
		hash uint64
	}
	expected := make(map[uint64]*want)
	var order []uint64 // expected's keys, as the catalog first names them
	for _, name := range w.names {
		im := w.images[name]
		if im.Derived {
			continue // derived images reference extents through their parent
		}
		for i := 0; i < DiskSpanFiles; i++ {
			size, hash := im.slot(i)
			key := extentKey(size, hash)
			if expected[key] == nil {
				expected[key] = &want{size: size, hash: hash}
				order = append(order, key)
			}
			expected[key].refs++
		}
	}
	var held []uint64
	w.led.Extents(func(key uint64, _ int64, _ uint64, _ int) { held = append(held, key) })
	slices.Sort(held)
	for _, key := range held {
		target := 0
		if ex := expected[key]; ex != nil {
			target = ex.refs
		}
		for _, _, refs := w.led.Extent(key); refs > target; refs-- {
			w.releaseExtent(key)
			orphans++
		}
	}
	for _, key := range order {
		ex := expected[key]
		for _, _, have := w.led.Extent(key); have < ex.refs; have++ {
			w.acquireExtent(ex.size, ex.hash)
		}
	}
	w.updateExtentGauges()
	return w.ExtentStatsNow().Refs, orphans
}
