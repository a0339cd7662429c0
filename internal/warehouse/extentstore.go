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
// References are journaled (extent-put / extent-release) so a daemon
// killed between store operations leaves a trail Restart can replay:
// refcounts are rebuilt from the journal, cross-checked against the
// catalog, and orphaned references (a publish or retire that died
// half-way) are released — deleting the physical copy when the last
// reference goes.
package warehouse

import (
	"fmt"
	"strconv"
	"strings"

	"vmplants/internal/fault"
	"vmplants/internal/journal"
)

// extentEntry is one distinct extent held by the store.
type extentEntry struct {
	size int64
	hash uint64 // base-image content hash (vdisk.Image.ExtentContentHash)
	refs int
}

// extentStore maps content keys to refcounted entries. It is mutated
// only by warehouse operations (kernel-serialized or setup-time), so it
// needs no lock.
type extentStore struct {
	entries map[uint64]*extentEntry
}

func newExtentStore() *extentStore {
	return &extentStore{entries: make(map[uint64]*extentEntry)}
}

// extentKey derives the store key: a digest of size and content, so
// identity is exactly "same bytes".
func extentKey(size int64, hash uint64) uint64 {
	return artifactSum("extent", size, hash)
}

// extentPath is the canonical on-volume path of a stored extent.
func extentPath(key uint64) string {
	return fmt.Sprintf("extents/%016x.vmdk", key)
}

// keyString and sizeString are the journal-field encodings of extent
// identity (keys and hashes render like the canonical path's hex stem);
// parseHex and parseSize are their replay-side inverses.
func keyString(v uint64) string { return fmt.Sprintf("%016x", v) }
func sizeString(v int64) string { return fmt.Sprintf("%d", v) }

func parseHex(s string) (uint64, bool) {
	v, err := strconv.ParseUint(s, 16, 64)
	return v, err == nil
}

func parseSize(s string) (int64, bool) {
	v, err := strconv.ParseInt(s, 10, 64)
	return v, err == nil && v > 0
}

// parseExtentKey recovers the content key from a canonical extent path.
func parseExtentKey(path string) (uint64, bool) {
	if !strings.HasPrefix(path, "extents/") || !strings.HasSuffix(path, ".vmdk") {
		return 0, false
	}
	var key uint64
	if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(path, "extents/"), ".vmdk"),
		"%016x", &key); err != nil {
		return 0, false
	}
	return key, true
}

// acquireExtent takes one reference on the extent identified by
// (size, hash), laying the physical file down (and mirroring it to the
// replica) on the first reference, and journaling the put. It returns
// the canonical path the referencing image records.
func (w *Warehouse) acquireExtent(size int64, hash uint64) string {
	key := extentKey(size, hash)
	path := extentPath(key)
	e, ok := w.extents.entries[key]
	if !ok {
		e = &extentEntry{size: size, hash: hash}
		w.extents.entries[key] = e
		w.vol.WriteMetaSum(path, size, artifactSum(path, size, hash))
		w.mirrorExtent(key, e)
	}
	e.refs++
	w.journalEvent(journal.ExtentPut, keyString(key), map[string]string{
		"size": sizeString(size),
		"hash": keyString(hash),
	})
	w.updateExtentGauges()
	return path
}

// releaseExtent drops one reference, journaling the release; the last
// reference deletes the physical copy from the volume and the replica.
func (w *Warehouse) releaseExtent(key uint64) {
	e, ok := w.extents.entries[key]
	if !ok {
		return
	}
	e.refs--
	w.journalEvent(journal.ExtentRelease, keyString(key), nil)
	if e.refs <= 0 {
		path := extentPath(key)
		if w.vol.Exists(path) {
			_ = w.vol.Delete(path)
		}
		if w.replica != nil && w.replica.Exists(path) {
			_ = w.replica.Delete(path)
		}
		delete(w.extents.entries, key)
	}
	w.updateExtentGauges()
}

// releaseExtentPath releases one reference held under a canonical path
// (how unregister walks an image's ExtentPaths back into keys).
func (w *Warehouse) releaseExtentPath(path string) {
	if key, ok := parseExtentKey(path); ok {
		w.releaseExtent(key)
	}
}

// mirrorExtent lays one stored extent down on the replica volume with
// its canonical checksum (no-op without a replica).
func (w *Warehouse) mirrorExtent(key uint64, e *extentEntry) {
	if w.replica == nil {
		return
	}
	path := extentPath(key)
	w.replica.WriteMetaSum(path, e.size, artifactSum(path, e.size, e.hash))
}

// mirrorExtents mirrors every stored extent — how a freshly attached
// replica catches up (SetReplica).
func (w *Warehouse) mirrorExtents() {
	for key, e := range w.extents.entries {
		w.mirrorExtent(key, e)
	}
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
	for _, e := range w.extents.entries {
		st.Entries++
		st.Refs += e.refs
		st.LogicalBytes += int64(e.refs) * e.size
		st.PhysicalBytes += e.size
	}
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

// reconcileExtents rebuilds the store from a journal replay's put/release
// trail and squares it against the catalog: every live seed image's
// extent slots are the references that should exist. References beyond
// them are orphans from a publish or retire that died half-way, and are
// released; shortfalls (a cataloged seed whose puts never made the
// journal) are re-acquired. Both directions journal compensating
// records, so the next replay starts balanced. Returns (refs rebuilt,
// orphans released).
func (w *Warehouse) reconcileExtents(replayed map[uint64]*extentEntry) (rebuilt, orphans int) {
	type want struct {
		refs int
		size int64
		hash uint64
	}
	expected := make(map[uint64]*want)
	for _, name := range w.names {
		im := w.images[name]
		if im.Derived {
			continue // derived images reference extents through their parent
		}
		base := im.Disk.Base()
		extent := base.SizeBytes() / int64(DiskSpanFiles)
		for i := 0; i < DiskSpanFiles; i++ {
			hash := base.ExtentContentHash(i)
			key := extentKey(extent, hash)
			if expected[key] == nil {
				expected[key] = &want{size: extent, hash: hash}
			}
			expected[key].refs++
		}
	}
	w.extents.entries = make(map[uint64]*extentEntry)
	for key, e := range replayed {
		if e.refs <= 0 {
			continue
		}
		w.extents.entries[key] = &extentEntry{size: e.size, hash: e.hash, refs: e.refs}
	}
	for key, e := range w.extents.entries {
		target := 0
		if ex := expected[key]; ex != nil {
			target = ex.refs
		}
		for e.refs > target {
			w.releaseExtent(key)
			orphans++
		}
	}
	for key, ex := range expected {
		have := 0
		if e := w.extents.entries[key]; e != nil {
			have = e.refs
		}
		for ; have < ex.refs; have++ {
			w.acquireExtent(ex.size, ex.hash)
		}
	}
	for _, e := range w.extents.entries {
		rebuilt += e.refs
	}
	w.updateExtentGauges()
	return rebuilt, orphans
}
