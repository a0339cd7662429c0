// Package ledger is the warehouse's journal-derived state: which images
// are published, which are quarantined and why, and how many references
// each content-addressed extent carries. It follows the shop's ledger
// (internal/shop/ledger): one plain-data value whose only mutator is
// Apply. The live path appends a record and applies it; restart applies
// the whole log to a fresh Ledger. Both run the same fold, so replayed
// state equals live state by construction, and the unexported fields
// keep every other writer out.
//
// It is not synchronised; the warehouse guards it with its own mutex.
package ledger

import (
	"fmt"
	"slices"
	"strconv"

	"vmplants/internal/journal"
)

// extent is one distinct disk extent of the content-addressed store.
type extent struct {
	size int64
	hash uint64 // base-image content hash (vdisk.Image.ExtentContentHash)
	refs int
}

// Ledger is the fold of a warehouse journal.
type Ledger struct {
	published  map[string]string // image name → parent seed ("" for a seed)
	quarantine map[string]string // image name → why it is out of service
	extents    map[uint64]extent // content key → stored extent
}

// New returns the empty ledger.
func New() *Ledger {
	return &Ledger{
		published:  make(map[string]string),
		quarantine: make(map[string]string),
		extents:    make(map[uint64]extent),
	}
}

// Apply folds one record into the ledger. It is total: kinds the
// warehouse does not own, releases of extents it does not hold and puts
// with damaged fields change nothing. ARCHITECTURE.md ("Durability &
// crash recovery") tabulates these arms one for one.
func (l *Ledger) Apply(r journal.Record) {
	switch r.Kind {
	case journal.ImagePublish:
		l.published[r.Key] = r.Field("parent")
	case journal.ImageRetire:
		// A retired image leaves quarantine with the catalog.
		delete(l.published, r.Key)
		delete(l.quarantine, r.Key)
	case journal.QuarantineEnter:
		l.quarantine[r.Key] = r.Field("reason")
	case journal.QuarantineExit:
		delete(l.quarantine, r.Key)
	case journal.ExtentPut:
		key, errK := strconv.ParseUint(r.Key, 16, 64)
		size, errS := strconv.ParseInt(r.Field("size"), 10, 64)
		hash, errH := strconv.ParseUint(r.Field("hash"), 16, 64)
		if errK != nil || errS != nil || errH != nil || size <= 0 {
			return
		}
		e, ok := l.extents[key]
		if !ok {
			e = extent{size: size, hash: hash}
		}
		e.refs++
		l.extents[key] = e
	case journal.ExtentRelease:
		key, err := strconv.ParseUint(r.Key, 16, 64)
		e, ok := l.extents[key]
		if err != nil || !ok {
			return
		}
		if e.refs--; e.refs > 0 {
			l.extents[key] = e
		} else {
			delete(l.extents, key)
		}
	}
}

// Published lists the published images, sorted.
func (l *Ledger) Published() []string { return sorted(l.published) }

// Quarantined lists the quarantined images, sorted.
func (l *Ledger) Quarantined() []string { return sorted(l.quarantine) }

// Quarantine returns why the image is quarantined, if it is.
func (l *Ledger) Quarantine(name string) (reason string, ok bool) {
	reason, ok = l.quarantine[name]
	return reason, ok
}

// Extent returns the stored extent under the content key; refs is 0
// when the store does not hold it.
func (l *Ledger) Extent(key uint64) (size int64, hash uint64, refs int) {
	e := l.extents[key]
	return e.size, e.hash, e.refs
}

// Extents calls fn for every stored extent, in no particular order.
func (l *Ledger) Extents(fn func(key uint64, size int64, hash uint64, refs int)) {
	for key, e := range l.extents {
		fn(key, e.size, e.hash, e.refs)
	}
}

// ExtentKey renders an extent's content key as a record key (the hex
// stem of its canonical path).
func ExtentKey(key uint64) string { return fmt.Sprintf("%016x", key) }

// ExtentFields renders the identity an extent-put record carries.
func ExtentFields(size int64, hash uint64) map[string]string {
	return map[string]string{"size": strconv.FormatInt(size, 10), "hash": ExtentKey(hash)}
}

// Records emits the records whose fold rebuilds the ledger, in key
// order: a publish per image, a put per extent reference, an enter per
// quarantined image. Their origin is "import": read off state, not
// witnessed.
func (l *Ledger) Records() []journal.Record { return l.Missing(New()) }

// Stored is Records without the quarantine: catalog membership and
// extent references, which the warehouse volume holds as well and a
// daemon restarted without a journal therefore still knows.
func (l *Ledger) Stored() []journal.Record { return l.stored(New()) }

// Missing is Records without what held already holds — what attaching
// a journal to a live warehouse must append to it, held being that
// journal's fold. Extent-puts are counted against held's references.
func (l *Ledger) Missing(held *Ledger) []journal.Record {
	out := l.stored(held)
	for _, name := range sorted(l.quarantine) {
		if _, ok := held.quarantine[name]; !ok {
			out = append(out, journal.Record{Kind: journal.QuarantineEnter, Key: name,
				Fields: map[string]string{"reason": l.quarantine[name]}})
		}
	}
	return out
}

func (l *Ledger) stored(held *Ledger) []journal.Record {
	var out []journal.Record
	for _, name := range sorted(l.published) {
		if _, ok := held.published[name]; ok {
			continue
		}
		fields := map[string]string{"origin": "import"}
		if parent := l.published[name]; parent != "" {
			fields["parent"] = parent
		}
		out = append(out, journal.Record{Kind: journal.ImagePublish, Key: name, Fields: fields})
	}
	keys := make([]uint64, 0, len(l.extents))
	for key := range l.extents {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		e := l.extents[key]
		for n := held.extents[key].refs; n < e.refs; n++ {
			out = append(out, journal.Record{Kind: journal.ExtentPut, Key: ExtentKey(key), Fields: ExtentFields(e.size, e.hash)})
		}
	}
	return out
}

func sorted(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
