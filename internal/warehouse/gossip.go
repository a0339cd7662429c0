// Catalog gossip: the cross-cell half of the warehouse.
//
// A federation of shops keeps one warehouse per cell. Derived images —
// the checkpoints the learning loop publishes back — are the knowledge
// worth sharing: a configuration history checkpointed in one cell saves
// the same work in every cell. Cells therefore gossip their derived
// catalogs: ExportCatalog serializes each derived image as its XML
// descriptor (the image's manifest, integrity sums included) plus its
// quarantine status, and ImportCatalog materializes entries the local
// cell is missing. Replication is lazy and metadata-first: the importer
// rebuilds the copy-on-write checkpoint over its own copy of the parent
// seed image (every cell is seeded with the same installer-built golden
// machines), so no bulk extent data crosses cells — exactly the PR-5
// replica machinery, driven by a descriptor instead of a local clone.
//
// Quarantine state travels with the entry: a cell that pulled an image
// out of service poisons it federation-wide on the next gossip round,
// so no cell clones state another cell already caught corrupting.
package warehouse

import "time"

// CatalogEntry is one derived image as gossiped between cells: the XML
// descriptor carries the full configuration history and integrity sums,
// so the receiver can rebuild and verify the checkpoint locally.
type CatalogEntry struct {
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	Backend string `json:"backend"`
	// Descriptor is the image's XML manifest, the bytes publish stored.
	Descriptor []byte `json:"descriptor"`
	// Quarantined/Reason propagate the exporter's integrity verdict.
	Quarantined bool   `json:"quarantined,omitempty"`
	Reason      string `json:"reason,omitempty"`
}

// ExportCatalog serializes the cell's derived images for gossip, in
// deterministic (name) order. Seed images are omitted: every cell is
// installer-seeded identically, so only learned state is news.
func (w *Warehouse) ExportCatalog() []CatalogEntry {
	var out []CatalogEntry
	for _, n := range w.names {
		im := w.images[n]
		if !im.Derived {
			continue
		}
		e := CatalogEntry{Name: im.Name, Parent: im.Parent, Backend: im.Backend, Descriptor: im.descriptor}
		if reason, q := w.QuarantineReason(n); q {
			e.Quarantined, e.Reason = true, reason
		}
		out = append(out, e)
	}
	return out
}

// ImportStats reports what one gossip round changed locally.
type ImportStats struct {
	// Imported counts derived images materialized from entries.
	Imported int
	// Known counts entries already published here (idempotent re-gossip).
	Known int
	// Deferred counts entries skipped because their parent seed is not
	// (yet) published in this cell; a later round retries them.
	Deferred int
	// Rejected counts entries whose descriptor failed to parse or whose
	// rebuilt checkpoint failed publication validation.
	Rejected int
	// Quarantined counts images newly pulled out of service here because
	// the exporting cell had quarantined them.
	Quarantined int
}

// ImportCatalog merges a peer cell's catalog into this warehouse.
// Unknown derived images are rebuilt over the local copy of their
// parent seed and published; known ones are left alone. Either way the
// entry's quarantine verdict is applied — corruption caught anywhere
// poisons the image everywhere. Import is idempotent: re-gossiping the
// same catalog is a no-op.
func (w *Warehouse) ImportCatalog(entries []CatalogEntry, now time.Duration) ImportStats {
	var st ImportStats
	for _, e := range entries {
		if _, ok := w.images[e.Name]; ok {
			st.Known++
			st.Quarantined += w.applyQuarantine(e)
			continue
		}
		_, perf, err := ParseDescriptor(e.Descriptor)
		if err != nil {
			st.Rejected++
			continue
		}
		parent, ok := w.images[e.Parent]
		if !ok || parent.Derived {
			// The parent seed has not reached this cell (or the entry is
			// malformed about its lineage); leave the entry for a later
			// round rather than fabricating state.
			st.Deferred++
			continue
		}
		im, err := BuildDerived(e.Name, parent, perf)
		if err != nil {
			st.Rejected++
			continue
		}
		if err := w.PublishDerived(im, now); err != nil {
			st.Rejected++
			continue
		}
		st.Imported++
		st.Quarantined += w.applyQuarantine(e)
	}
	return st
}

// applyQuarantine enforces an entry's quarantine verdict locally,
// reporting 1 when the image was newly pulled out of service.
func (w *Warehouse) applyQuarantine(e CatalogEntry) int {
	if !e.Quarantined {
		return 0
	}
	reason := e.Reason
	if reason == "" {
		reason = "quarantined by peer cell"
	}
	if w.Quarantine(e.Name, reason) {
		return 1
	}
	return 0
}
