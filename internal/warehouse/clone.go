package warehouse

import (
	"fmt"
	"strconv"
	"strings"

	"vmplants/internal/core"
	"vmplants/internal/fault"
)

// CloneContext is what the production line holds while it clones a
// golden image: the image, the integrity epoch its recorded sums were
// verified at, and where a node's image cache keeps the image's memory
// file and disk extents. An image carries one context per integrity
// epoch; OpenClone builds it on the first open of the epoch and hands
// the same one out until the epoch moves.
type CloneContext struct {
	Image *Image
	// Epoch is the image's integrity epoch when the context was built;
	// VerifyClone compares it after the state copy so a quarantine/repair
	// landing mid-clone fails the creation over instead of resuming it.
	Epoch int64
	// MemReplica is the local path where a node keeps its replica of the
	// image's memory file at Epoch ("" for boot-style images).
	MemReplica string
	// ExtentCache is, beside each of Image.ExtentPaths, the local path
	// where a node keeps that extent: its store path under CacheDir, so
	// every image sharing the extent shares the entry.
	ExtentCache []string
}

// CacheDir is the directory of a node's local disk that holds its image
// cache: a memory-image replica per (image, epoch) the node pulled, and
// each stored disk extent it pulled, under its content key.
const CacheDir = "cache/"

// replicaPath names a node's replica of the image's memory file at the
// given epoch.
func replicaPath(name string, epoch int64) string {
	return CacheDir + name + "@" + strconv.FormatInt(epoch, 10) + ".vmss"
}

// StaleCacheEntry reports whether path is a node's image-cache entry the
// warehouse no longer publishes: a memory-image replica whose image is
// unpublished, quarantined or repaired since the epoch in its name, or
// an extent the store no longer holds.
func (w *Warehouse) StaleCacheEntry(path string) bool {
	name, ok := strings.CutPrefix(path, CacheDir)
	if ok && strings.HasPrefix(name, "extents/") {
		return !w.vol.Exists(name)
	}
	at := strings.LastIndexByte(name, '@')
	if !ok || at < 0 {
		return false
	}
	im, published := w.images[name[:at]]
	return !published || path != replicaPath(im.Name, im.epoch)
}

// OpenClone resolves a golden image for cloning. No virtual time is
// charged: verification is a metadata compare (daemon CPU, not
// simulated state I/O), so creation timing does not depend on whether
// an open verified.
//
// Every open refuses a quarantined image with a transient error (the
// shop re-bids elsewhere). The first open of an integrity epoch then
// verifies the image's recorded checksums against the volume and keeps
// the context it builds on the image; later opens of the same epoch
// reuse it. Verification is thus once per (image, epoch): a quarantine,
// repair, restart or republication is what forces the next one. The
// verifying open is also where a corrupt-extent clone-read fault
// surfaces, atomically with its detection.
func (w *Warehouse) OpenClone(name string) (*CloneContext, error) {
	im, ok := w.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("warehouse: no image %q", name)
	}
	if w.IsQuarantined(name) {
		return nil, fmt.Errorf("warehouse: image %q is quarantined: %w", name, core.ErrTransient)
	}
	if ctx := im.clone; ctx != nil && ctx.Epoch == im.epoch {
		w.mCacheHits.Inc()
		return ctx, nil
	}
	w.mCacheMisses.Inc()
	if w.faults.Should(integritySite, fault.CorruptExtent, "clone") {
		w.corruptPath(corruptTarget(im))
	}
	if bad := w.badArtifacts(im); len(bad) > 0 {
		w.detect(im, bad, "clone")
		return nil, fmt.Errorf("warehouse: image %q failed checksum verification (%s): %w",
			name, bad[0], core.ErrTransient)
	}
	im.clone = &CloneContext{Image: im, Epoch: im.epoch}
	if im.MemImagePath != "" {
		im.clone.MemReplica = replicaPath(name, im.epoch)
	}
	for _, p := range im.ExtentPaths {
		im.clone.ExtentCache = append(im.clone.ExtentCache, CacheDir+p)
	}
	return im.clone, nil
}

// CacheStats reports cumulative clone opens that reused their epoch's
// context (hits) and that verified and built one (misses).
func (w *Warehouse) CacheStats() (hits, misses int64) {
	return w.mCacheHits.Value(), w.mCacheMisses.Value()
}
