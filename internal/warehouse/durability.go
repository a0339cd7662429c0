// Durable warehouse state: one ledger (internal/warehouse/ledger)
// written only by record, and a Restart that rebuilds it by folding the
// journal.
//
// The image files live on a volume and survive a daemon death by
// themselves. What must survive with them is what the ledger holds:
// which images are published, which are quarantined and why — a
// restarted daemon that forgot would happily match a corrupted image it
// had already taken out of service — and how many references each
// stored extent carries. Every change to it is a typed journal record,
// appended and then applied by the same Ledger.Apply that Restart folds
// the log with, so what a restart rebuilds is what the live daemon
// held. The images' clone contexts and the scrubber's repair counters
// are soft and start empty.
package warehouse

import (
	"slices"

	"vmplants/internal/journal"
	"vmplants/internal/warehouse/ledger"
)

// SetJournal attaches the warehouse's durable event log. Ledger changes
// are journaled from now on; Restart folds them. Warehouse mutations
// happen outside kernel processes (publish is an off-line installer
// step, quarantine decisions ride scrubber bookkeeping), so appends
// carry no virtual-time cost and are durable immediately.
//
// Attaching to a warehouse that already holds state imports it: the
// ledger's Records that the journal's own fold lacks are appended
// (publishes with origin "import", the seeds' extent-puts). This is the
// one append that is not applied — the ledger is where these records
// come from. Re-attaching an up-to-date journal is a no-op.
func (w *Warehouse) SetJournal(j *journal.Journal) {
	w.jnl = j
	if j == nil {
		return
	}
	held := ledger.New()
	_, _ = j.Replay(func(r journal.Record) error {
		held.Apply(r)
		return nil
	})
	for _, r := range w.led.Missing(held) {
		j.AppendSync(nil, r)
	}
}

// record is how ledger state changes: the record goes to the journal
// when one is attached, then into the ledger.
func (w *Warehouse) record(kind journal.Kind, key string, fields map[string]string) {
	r := journal.Record{Kind: kind, Key: key, Fields: fields}
	if w.jnl != nil {
		w.jnl.AppendSync(nil, r)
	}
	w.qmu.Lock()
	w.led.Apply(r)
	w.qmu.Unlock()
	w.cands = nil
	w.gen++
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

// Restart models the warehouse daemon restarting: process memory is
// gone, the volume and the journal survive. The ledger is rebuilt by
// folding the journal into a fresh one, then reconciled against the
// volume scan: catalog disagreements are counted, a quarantine entry is
// restored only for an image still cataloged (its integrity epoch
// advanced), and the extent references are squared with the catalog's
// geometry. Without a journal the fold runs over what the volume keeps
// anyway — the old ledger's catalog and extents — and the quarantine
// set comes back empty: the amnesia the regression test documents.
func (w *Warehouse) Restart() RestartStats {
	for _, im := range w.images {
		im.clone = nil
	}

	var st RestartStats
	fresh := ledger.New()
	if w.jnl != nil {
		rst, _ := w.jnl.Replay(func(r journal.Record) error {
			fresh.Apply(r)
			return nil
		})
		st.Replayed, st.TornTails = rst.Records, rst.TornTails
	} else {
		for _, r := range w.led.Stored() {
			fresh.Apply(r)
		}
	}
	w.qmu.Lock()
	w.led = fresh
	w.repairFails = make(map[string]int)
	w.qmu.Unlock()
	w.cands = nil
	w.gen++

	journaled := fresh.Published()
	for _, name := range journaled {
		if _, live := w.images[name]; !live {
			st.CatalogMismatch++
		}
	}
	for _, name := range w.names {
		if _, ok := slices.BinarySearch(journaled, name); !ok {
			st.CatalogMismatch++
		}
	}
	for _, name := range w.Quarantined() {
		im, live := w.images[name]
		if !live {
			// Quarantined in the log, gone from the volume.
			w.record(journal.QuarantineExit, name, nil)
			continue
		}
		// Clone contexts opened before the restart must not resume from
		// a quarantined image: advance its integrity epoch, exactly as a
		// live Quarantine would.
		im.epoch++
		st.QuarantineRestored++
	}
	w.gQuarantine.Set(int64(st.QuarantineRestored))
	st.ExtentRefsRebuilt, st.ExtentOrphansReleased = w.reconcileExtents()
	return st
}
