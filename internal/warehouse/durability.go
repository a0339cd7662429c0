// Durable warehouse state: catalog and quarantine events journaled to
// the shared control-plane event log, and a Restart path that replays
// them.
//
// The warehouse's image files live on a volume, so the catalog itself
// survives a daemon death. What used to die was everything in process
// memory: the quarantine set, the scrubber's repair counters, the hot
// clone cache. Losing the clone cache costs latency; losing the
// quarantine set is amnesia — a restarted daemon would happily match a
// corrupted image it had already taken out of service. With a journal
// attached, every quarantine entry/exit and every publish/retire is
// appended as a typed record, and Restart rebuilds the quarantine set
// by replay (for images still in the catalog) instead of forgetting it.
package warehouse

import (
	"vmplants/internal/journal"
)

// SetJournal attaches the warehouse's durable event log. Catalog and
// quarantine transitions are journaled from now on; Restart replays
// them. Warehouse mutations happen outside kernel processes (publish
// is an off-line installer step, quarantine decisions ride scrubber
// bookkeeping), so appends carry no virtual-time cost and are durable
// immediately.
//
// Attaching to a warehouse with an existing catalog imports it: any
// cataloged image the journal's publish/retire history does not know
// gets an image-publish record (origin "import"), so a later Restart's
// cross-check starts clean. Re-attaching an up-to-date journal is a
// no-op.
func (w *Warehouse) SetJournal(j *journal.Journal) {
	w.jnl = j
	if j == nil {
		return
	}
	published := make(map[string]bool)
	_, _ = j.Replay(func(r journal.Record) error {
		foldCatalog(published, r)
		return nil
	})
	for _, name := range w.names {
		if published[name] {
			continue
		}
		im := w.images[name]
		fields := map[string]string{"origin": "import"}
		if im.Derived {
			fields["parent"] = im.Parent
		}
		w.journalEvent(journal.ImagePublish, name, fields)
		if !im.Derived {
			// Import the seed's extent references too, or a later
			// Restart's replay would see a catalog entry with no put
			// trail and rebuild the store short.
			base := im.Disk.Base()
			extent := base.SizeBytes() / int64(DiskSpanFiles)
			for i := 0; i < DiskSpanFiles; i++ {
				key := extentKey(extent, base.ExtentContentHash(i))
				w.journalEvent(journal.ExtentPut, keyString(key), map[string]string{
					"size": sizeString(extent),
					"hash": keyString(base.ExtentContentHash(i)),
				})
			}
		}
	}
}

// foldCatalog folds one record into the set of images the journal says
// are published — the catalog half of the warehouse's replay, shared by
// SetJournal's import check and Restart's cross-check.
func foldCatalog(published map[string]bool, r journal.Record) {
	switch r.Kind {
	case journal.ImagePublish:
		published[r.Key] = true
	case journal.ImageRetire:
		delete(published, r.Key)
	}
}

// Journal returns the attached journal (nil when none).
func (w *Warehouse) Journal() *journal.Journal { return w.jnl }

// journalEvent appends one warehouse record (no-op without a journal).
func (w *Warehouse) journalEvent(kind journal.Kind, key string, fields map[string]string) {
	if w.jnl == nil {
		return
	}
	w.jnl.AppendSync(nil, journal.Record{Kind: kind, Key: key, Fields: fields})
}

// RestartStats reports what a warehouse restart rebuilt.
type RestartStats struct {
	// Replayed is how many journal records the replay scanned.
	Replayed int
	// TornTails is how many damaged records the replay truncated.
	TornTails int
	// QuarantineRestored is how many quarantine entries were rebuilt.
	QuarantineRestored int
	// CatalogMismatch counts disagreements between the journal's
	// publish/retire history and the catalog scanned from the volume —
	// zero on a healthy restart.
	CatalogMismatch int
	// ExtentRefsRebuilt is the extent-store reference count after replay
	// and reconciliation.
	ExtentRefsRebuilt int
	// ExtentOrphansReleased is how many replayed references belonged to
	// no cataloged image — the trail of a publish or retire the daemon
	// died inside — and were released during reconciliation.
	ExtentOrphansReleased int
}

// Restart models the warehouse daemon restarting: process memory — the
// quarantine set, the scrubber's repair counters, the hot clone cache —
// is gone, while the volume-backed catalog survives. With a journal
// attached, the quarantine set is rebuilt by replay (entries for images
// no longer in the catalog are skipped) and the journal's catalog
// history is cross-checked against the volume scan. Without one, this
// is exactly the amnesia the regression test documents: the quarantine
// set comes back empty.
func (w *Warehouse) Restart() RestartStats {
	w.qmu.Lock()
	w.quarantine = make(map[string]string)
	w.repairFails = make(map[string]int)
	w.qmu.Unlock()
	w.cache = newCloneCache(w.cache.cap)
	w.gCacheSize.Set(0)
	w.gQuarantine.Set(0)

	var st RestartStats
	if w.jnl == nil {
		return st
	}
	published := make(map[string]bool)
	restored := make(map[string]string)
	extents := make(map[uint64]*extentEntry)
	rst, _ := w.jnl.Replay(func(r journal.Record) error {
		foldCatalog(published, r)
		switch r.Kind {
		case journal.ImageRetire:
			delete(restored, r.Key)
		case journal.QuarantineEnter:
			restored[r.Key] = r.Field("reason")
		case journal.QuarantineExit:
			delete(restored, r.Key)
		case journal.ExtentPut:
			key, okK := parseHex(r.Key)
			size, okS := parseSize(r.Field("size"))
			hash, okH := parseHex(r.Field("hash"))
			if !okK || !okS || !okH {
				return nil // damaged fields; reconciliation squares it
			}
			e := extents[key]
			if e == nil {
				e = &extentEntry{size: size, hash: hash}
				extents[key] = e
			}
			e.refs++
		case journal.ExtentRelease:
			if key, ok := parseHex(r.Key); ok {
				if e := extents[key]; e != nil {
					e.refs--
				}
			}
		}
		return nil
	})
	st.Replayed = rst.Records
	st.TornTails = rst.TornTails
	for name := range published {
		if _, live := w.images[name]; !live {
			st.CatalogMismatch++
		}
	}
	for name := range w.images {
		if !published[name] {
			st.CatalogMismatch++
		}
	}
	w.qmu.Lock()
	for name, reason := range restored {
		im, live := w.images[name]
		if !live {
			continue
		}
		w.quarantine[name] = reason
		// Clone contexts opened before the restart must not resume from
		// a quarantined image: advance its integrity epoch, exactly as a
		// live Quarantine would.
		im.epoch++
		st.QuarantineRestored++
	}
	n := len(w.quarantine)
	w.qmu.Unlock()
	w.gQuarantine.Set(int64(n))
	st.ExtentRefsRebuilt, st.ExtentOrphansReleased = w.reconcileExtents(extents)
	return st
}
