package warehouse

import (
	"container/list"
	"fmt"
	"strconv"
	"strings"

	"vmplants/internal/core"
	"vmplants/internal/fault"
)

// DefaultCloneCacheSize is how many golden images' clone contexts the
// warehouse keeps hot by default. Sites publish a handful of golden
// machines (the paper's experiments use three), so a small cache holds
// the whole working set; a capacity well below the published-image
// count exercises eviction.
const DefaultCloneCacheSize = 8

// CloneContext is everything the production line needs to start cloning
// a golden image beyond the image object itself: the parsed XML
// descriptor and the extent metadata (paths and total size) that the
// cloning loop walks. Building one means parsing the descriptor and
// stat-ing every extent file — the per-clone "open the
// golden machine" work the clone cache exists to skip.
type CloneContext struct {
	Image       *Image
	Desc        Descriptor
	ExtentPaths []string
	ExtentBytes int64 // total size of the extent files
	// Epoch is the image's integrity epoch at fill time; VerifyClone
	// compares it after the state copy so a quarantine/repair landing
	// mid-clone fails the creation over instead of resuming it.
	Epoch int64
	// MemReplica is the local path where a node keeps its replica of the
	// image's memory file at Epoch ("" for boot-style images). A context
	// is filled once per (image, epoch), so the name is built once too.
	MemReplica string
}

// ReplicaDir is the directory of a node's local disk that holds its
// memory-image replicas, one file per (image, epoch) it pulled.
const ReplicaDir = "cache/"

// replicaPath names a node's replica of the image's memory file at the
// given epoch.
func replicaPath(name string, epoch int64) string {
	return ReplicaDir + name + "@" + strconv.FormatInt(epoch, 10) + ".vmss"
}

// StaleReplica reports whether path is a memory-image replica
// (CloneContext.MemReplica) whose image is no longer published at the
// epoch in its name: unpublished, quarantined, or repaired since.
func (w *Warehouse) StaleReplica(path string) bool {
	name, ok := strings.CutPrefix(path, ReplicaDir)
	at := strings.LastIndexByte(name, '@')
	if !ok || at < 0 {
		return false
	}
	im, published := w.images[name[:at]]
	return !published || path != replicaPath(im.Name, im.epoch)
}

// cloneCache is an LRU over recently cloned images' CloneContexts. It
// is touched only by kernel processes (which the kernel serializes) and
// by setup code before Run, so it needs no lock; hit/miss counters are
// the warehouse's telemetry instruments.
type cloneCache struct {
	cap     int
	order   *list.List               // front = most recently used
	entries map[string]*list.Element // image name → element holding *CloneContext
}

func newCloneCache(capacity int) *cloneCache {
	if capacity <= 0 {
		capacity = DefaultCloneCacheSize
	}
	return &cloneCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// get returns the cached context and marks it most recently used.
func (c *cloneCache) get(name string) (*CloneContext, bool) {
	el, ok := c.entries[name]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*CloneContext), true
}

// put inserts a context, evicting the least recently used entry when
// the cache is full. It returns the evicted image name ("" when none).
func (c *cloneCache) put(name string, ctx *CloneContext) string {
	if el, ok := c.entries[name]; ok {
		el.Value = ctx
		c.order.MoveToFront(el)
		return ""
	}
	evicted := ""
	if c.order.Len() >= c.cap {
		tail := c.order.Back()
		ev := tail.Value.(*CloneContext)
		evicted = ev.Image.Name
		c.order.Remove(tail)
		delete(c.entries, evicted)
	}
	c.entries[name] = c.order.PushFront(ctx)
	return evicted
}

// drop removes an entry (image retired or republished).
func (c *cloneCache) drop(name string) {
	if el, ok := c.entries[name]; ok {
		c.order.Remove(el)
		delete(c.entries, name)
	}
}

// keys lists cached image names from most to least recently used.
func (c *cloneCache) keys() []string {
	out := make([]string, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*CloneContext).Image.Name)
	}
	return out
}

// SetCloneCacheSize resizes the hot clone-context cache, dropping all
// current entries. Intended for setup code and tests.
func (w *Warehouse) SetCloneCacheSize(capacity int) {
	w.cache = newCloneCache(capacity)
	w.gCacheSize.Set(0)
}

// CacheKeys lists the cached images from most to least recently used —
// eviction order read back-to-front. For tests and debug endpoints.
func (w *Warehouse) CacheKeys() []string { return w.cache.keys() }

// buildCloneContext does the uncached per-clone open: parse the image's
// descriptor (exactly what a plant reading descriptor.xml off the
// warehouse volume does) and walk the extent metadata.
func (w *Warehouse) buildCloneContext(im *Image) (*CloneContext, error) {
	desc, _, err := ParseDescriptor(im.descriptor)
	if err != nil {
		return nil, err
	}
	ctx := &CloneContext{Image: im, Desc: desc}
	for _, p := range im.ExtentPaths {
		n, err := w.vol.Stat(p)
		if err != nil {
			return nil, fmt.Errorf("warehouse: extent of %q: %w", im.Name, err)
		}
		ctx.ExtentPaths = append(ctx.ExtentPaths, p)
		ctx.ExtentBytes += n
	}
	return ctx, nil
}

// OpenClone resolves a golden image for cloning through the hot cache:
// a hit skips the descriptor re-parse and extent metadata walk a cold
// open pays. No virtual time is charged either way — descriptor work is
// daemon CPU, not simulated state I/O — so cached and uncached opens
// leave creation timing byte-identical; the cache buys real (wall
// clock) work and the hit/miss counters feed the pipeline experiment.
//
// Every open refuses quarantined images with a transient error (the
// shop re-bids elsewhere). A cache miss additionally verifies the
// image's recorded checksums against the volume — the PR 3 cache is
// what amortizes integrity: verify once per fill, not per clone. The
// check is a metadata compare (no data movement), preserving the
// zero-virtual-time contract above. The clone read is also where a
// corrupt-extent fault surfaces, atomically with its detection.
func (w *Warehouse) OpenClone(name string) (*CloneContext, error) {
	im, ok := w.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("warehouse: no image %q", name)
	}
	if w.IsQuarantined(name) {
		return nil, fmt.Errorf("warehouse: image %q is quarantined: %w", name, core.ErrTransient)
	}
	if ctx, ok := w.cache.get(name); ok {
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
	ctx, err := w.buildCloneContext(im)
	if err != nil {
		return nil, err
	}
	ctx.Epoch = im.epoch
	if im.MemImagePath != "" {
		ctx.MemReplica = replicaPath(name, im.epoch)
	}
	w.cache.put(name, ctx)
	w.gCacheSize.Set(int64(w.cache.order.Len()))
	return ctx, nil
}

// CacheStats reports cumulative clone-cache hits and misses.
func (w *Warehouse) CacheStats() (hits, misses int64) {
	return w.mCacheHits.Value(), w.mCacheMisses.Value()
}
