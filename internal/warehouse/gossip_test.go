package warehouse

import (
	"testing"
	"time"
)

// gossipPair builds two cells seeded with the same golden image, plus a
// derived checkpoint published only in the first.
func gossipPair(t *testing.T) (a, b *Warehouse) {
	t.Helper()
	a, b = newWarehouse(), newWarehouse()
	seedA := seedImage(t, a, "seed")
	seedImage(t, b, "seed")
	d := derivedOf(t, seedA, "derived-ckpt", "mpich")
	if err := a.PublishDerived(d, 0); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// One gossip round replicates a derived checkpoint, metadata-first: the
// receiver rebuilds it over its own copy of the parent seed, and the
// copy is clonable knowledge, not a quarantined stub.
func TestGossipReplicatesDerivedImages(t *testing.T) {
	a, b := gossipPair(t)
	entries := a.ExportCatalog()
	if len(entries) != 1 || entries[0].Name != "derived-ckpt" {
		t.Fatalf("export = %+v, want only the derived image (seeds are never gossiped)", entries)
	}
	st := b.ImportCatalog(entries, time.Second)
	if st.Imported != 1 || st.Rejected != 0 || st.Deferred != 0 {
		t.Fatalf("import stats = %+v, want 1 imported", st)
	}
	im, ok := b.Lookup("derived-ckpt")
	if !ok || !im.Derived || im.Parent != "seed" {
		t.Fatalf("imported image = %+v %v, want a derived child of seed", im, ok)
	}
	if _, q := b.QuarantineReason("derived-ckpt"); q {
		t.Error("clean import arrived quarantined")
	}
}

// Re-gossiping the same catalog is a no-op: entries already present
// count as known, and nothing is rebuilt or double-published.
func TestGossipReimportIsIdempotent(t *testing.T) {
	a, b := gossipPair(t)
	entries := a.ExportCatalog()
	b.ImportCatalog(entries, time.Second)
	used := b.BytesUsed()
	st := b.ImportCatalog(entries, 2*time.Second)
	if st.Imported != 0 || st.Known != 1 {
		t.Errorf("re-import stats = %+v, want 1 known, 0 imported", st)
	}
	if b.BytesUsed() != used {
		t.Errorf("re-import changed byte accounting: %d -> %d", used, b.BytesUsed())
	}
}

// An entry whose parent seed has not reached the cell is deferred, not
// fabricated; once the seed arrives, the next round materializes it.
func TestGossipDefersUntilParentSeedArrives(t *testing.T) {
	a, _ := gossipPair(t)
	c := newWarehouse() // unseeded cell
	entries := a.ExportCatalog()
	st := c.ImportCatalog(entries, time.Second)
	if st.Deferred != 1 || st.Imported != 0 {
		t.Fatalf("unseeded import stats = %+v, want 1 deferred", st)
	}
	if _, ok := c.Lookup("derived-ckpt"); ok {
		t.Fatal("deferred entry was materialized anyway")
	}
	seedImage(t, c, "seed")
	st = c.ImportCatalog(entries, 2*time.Second)
	if st.Imported != 1 {
		t.Fatalf("post-seed import stats = %+v, want 1 imported", st)
	}
}

// A quarantine verdict travels with the catalog: a cell that caught an
// image corrupting poisons it in every cell that imports the entry —
// including cells that already hold a clean-looking copy.
func TestGossipPropagatesQuarantine(t *testing.T) {
	a, b := gossipPair(t)
	entries := a.ExportCatalog()
	b.ImportCatalog(entries, time.Second) // b now holds a healthy copy
	if !a.Quarantine("derived-ckpt", "checksum mismatch on clone read") {
		t.Fatal("quarantine refused")
	}
	entries = a.ExportCatalog()
	if len(entries) != 1 || !entries[0].Quarantined {
		t.Fatalf("export after quarantine = %+v, want the verdict attached", entries)
	}
	st := b.ImportCatalog(entries, 2*time.Second)
	if st.Quarantined != 1 || st.Known != 1 {
		t.Fatalf("verdict import stats = %+v, want 1 known + 1 quarantined", st)
	}
	reason, q := b.QuarantineReason("derived-ckpt")
	if !q || reason != "checksum mismatch on clone read" {
		t.Errorf("peer quarantine = %q %v, want the exporter's reason", reason, q)
	}
	// The verdict is sticky on re-gossip, not double-counted.
	if st := b.ImportCatalog(entries, 3*time.Second); st.Quarantined != 0 {
		t.Errorf("re-import re-quarantined: %+v", st)
	}
}
