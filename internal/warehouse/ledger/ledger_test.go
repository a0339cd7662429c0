package ledger

import (
	"reflect"
	"testing"

	"vmplants/internal/journal"
)

// The fuzzer drives Apply with a byte script, not free-form records:
// every byte picks from a small pool, so image names and extent keys
// collide constantly — which is where a fold's bugs live. The pools
// hold damaged values too (a key that is not hex, a zero size).
var (
	fuzzKinds = []journal.Kind{
		journal.ImagePublish, journal.ImageRetire, journal.QuarantineEnter, journal.QuarantineExit,
		journal.ExtentPut, journal.ExtentRelease, journal.VMCreated, "no-such-kind",
	}
	fuzzKeys   = []string{"seed-a", "seed-b", "derived-1", "", "00000000000000aa", "00000000000000bb", "ffffffffffffffff", "not-hex"}
	fuzzFields = []string{"origin", "parent", "reason", "size", "hash"}
	fuzzValues = []string{"", "seed", "seed-a", "scrub: checksum mismatch", "134217728", "4096", "0", "-1", "00000000000000cc", "bogus"}
)

// records decodes a script: per record a kind byte, a key byte, a field
// count (0–3) and that many name/value byte pairs.
func records(script []byte) []journal.Record {
	var recs []journal.Record
	next := func() (int, bool) {
		if len(script) == 0 {
			return 0, false
		}
		b := script[0]
		script = script[1:]
		return int(b), true
	}
	for {
		kind, ok1 := next()
		key, ok2 := next()
		n, ok3 := next()
		if !ok1 || !ok2 || !ok3 {
			return recs
		}
		r := journal.Record{Kind: fuzzKinds[kind%len(fuzzKinds)], Key: fuzzKeys[key%len(fuzzKeys)]}
		for i := 0; i < n%4; i++ {
			name, _ := next()
			value, _ := next()
			if r.Fields == nil {
				r.Fields = map[string]string{}
			}
			r.Fields[fuzzFields[name%len(fuzzFields)]] = fuzzValues[value%len(fuzzValues)]
		}
		recs = append(recs, r)
	}
}

func fold(recs []journal.Record) *Ledger {
	l := New()
	for _, r := range recs {
		l.Apply(r)
	}
	return l
}

func put(key uint64, size int64, hash uint64) journal.Record {
	return journal.Record{Kind: journal.ExtentPut, Key: ExtentKey(key), Fields: ExtentFields(size, hash)}
}

// everyKind is a hand-written history that reaches each Apply arm: two
// seeds sharing an extent, a derived image quarantined and retired, a
// seed quarantined and repaired, a seed retired extent by extent, and
// the damaged records the fold must shrug off.
var everyKind = []journal.Record{
	put(0xaa, 4096, 0x1), put(0xbb, 4096, 0x2),
	{Kind: journal.ImagePublish, Key: "seed-a", Fields: map[string]string{"origin": "seed"}},
	put(0xaa, 4096, 0x1), put(0xcc, 8192, 0x3),
	{Kind: journal.ImagePublish, Key: "seed-b", Fields: map[string]string{"origin": "seed"}},
	{Kind: journal.ImagePublish, Key: "derived-1", Fields: map[string]string{"origin": "derived", "parent": "seed-a"}},
	{Kind: journal.QuarantineEnter, Key: "derived-1", Fields: map[string]string{"reason": "scrub: unrepairable"}},
	{Kind: journal.QuarantineEnter, Key: "seed-a", Fields: map[string]string{"reason": "clone: checksum mismatch"}},
	{Kind: journal.QuarantineExit, Key: "seed-a"},
	{Kind: journal.ImageRetire, Key: "derived-1"},
	{Kind: journal.QuarantineEnter, Key: "seed-b", Fields: map[string]string{"reason": "shares corrupt artifact"}},
	{Kind: journal.ImageRetire, Key: "seed-b"},
	{Kind: journal.ExtentRelease, Key: ExtentKey(0xaa)},
	{Kind: journal.ExtentRelease, Key: ExtentKey(0xcc)},
	// Damaged or foreign: none of these may change anything.
	{Kind: journal.ExtentPut, Key: "not-hex", Fields: ExtentFields(4096, 0x9)},
	{Kind: journal.ExtentPut, Key: ExtentKey(0xdd), Fields: map[string]string{"size": "0", "hash": ExtentKey(0x9)}},
	{Kind: journal.ExtentPut, Key: ExtentKey(0xdd), Fields: map[string]string{"size": "4096", "hash": "bogus"}},
	{Kind: journal.ExtentPut, Key: ExtentKey(0xdd)},
	{Kind: journal.ExtentRelease, Key: ExtentKey(0xee)},
	{Kind: journal.ExtentRelease, Key: "not-hex"},
	{Kind: journal.QuarantineExit, Key: "never-entered"},
	{Kind: journal.VMCreated, Key: "seed-a"},
}

// The accessors agree with the fold on a history that uses every arm.
func TestApplyEveryKind(t *testing.T) {
	l := fold(everyKind)
	if got := l.Published(); !reflect.DeepEqual(got, []string{"seed-a"}) {
		t.Errorf("published = %v, want only seed-a", got)
	}
	if got := l.Quarantined(); len(got) != 0 {
		t.Errorf("quarantined = %v: a repair and two retirements should have emptied it", got)
	}
	if _, ok := l.Quarantine("seed-b"); ok {
		t.Error("retiring seed-b left it quarantined")
	}
	stored := map[uint64][3]int64{}
	l.Extents(func(key uint64, size int64, hash uint64, refs int) {
		stored[key] = [3]int64{size, int64(hash), int64(refs)}
	})
	want := map[uint64][3]int64{0xaa: {4096, 0x1, 1}, 0xbb: {4096, 0x2, 1}}
	if !reflect.DeepEqual(stored, want) {
		t.Errorf("extents = %v, want %v (0xcc released to nothing, 0xdd never validly put)", stored, want)
	}
	if size, hash, refs := l.Extent(0xaa); size != 4096 || hash != 0x1 || refs != 1 {
		t.Errorf("Extent(0xaa) = %d %x %d", size, hash, refs)
	}
	if _, _, refs := l.Extent(0xcc); refs != 0 {
		t.Errorf("released extent still holds %d references", refs)
	}

	// A quarantine entry carries its reason, and survives in Records but
	// not in Stored.
	l.Apply(journal.Record{Kind: journal.QuarantineEnter, Key: "seed-a", Fields: map[string]string{"reason": "why"}})
	if reason, ok := l.Quarantine("seed-a"); !ok || reason != "why" {
		t.Errorf("Quarantine(seed-a) = %q %v", reason, ok)
	}
	if again := fold(l.Records()); !reflect.DeepEqual(again, l) {
		t.Errorf("fold(Records()) = %+v, want %+v", again, l)
	}
	kept := fold(l.Stored())
	if len(kept.Quarantined()) != 0 || !reflect.DeepEqual(kept.Published(), l.Published()) || !reflect.DeepEqual(kept.extents, l.extents) {
		t.Errorf("fold(Stored()) = %+v, want %+v without its quarantine", kept, l)
	}

	// Missing is what a journal that saw only part of the history lacks:
	// folding it after that part rebuilds the whole.
	for cut := 0; cut <= len(everyKind); cut++ {
		held := fold(everyKind[:cut])
		for _, r := range l.Missing(held) {
			held.Apply(r)
		}
		for _, name := range l.Published() {
			if _, ok := held.published[name]; !ok {
				t.Errorf("cut %d: import left %s unpublished", cut, name)
			}
		}
		l.Extents(func(key uint64, _ int64, _ uint64, refs int) {
			if _, _, have := held.Extent(key); have < refs {
				t.Errorf("cut %d: import left extent %x at %d of %d references", cut, key, have, refs)
			}
		})
		if _, ok := held.Quarantine("seed-a"); !ok {
			t.Errorf("cut %d: import forgot the quarantine", cut)
		}
	}
	if extra := l.Missing(fold(l.Records())); len(extra) != 0 {
		t.Errorf("an up-to-date journal is missing %v", extra)
	}
}

// FuzzApply folds arbitrary record sequences. Apply must never panic;
// no stored extent may carry fewer than one reference or a size below
// one; retiring an image must leave no quarantine entry for it; the
// fold must be a function of the sequence; and Records must be a
// fixpoint — folding them rebuilds the ledger exactly.
func FuzzApply(f *testing.F) {
	var script []byte
	for i := range everyKind {
		script = append(script, byte(i), byte(i*3), byte(i%4), 0, 1, 2, 4, 3, 8)
	}
	f.Add(script)
	f.Add([]byte{4, 4, 2, 3, 4, 4, 8, 4, 4, 2, 3, 4, 4, 8, 5, 4, 0, 5, 4, 0, 5, 4, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		recs := records(b)
		l := New()
		for i, r := range recs {
			l.Apply(r)
			for key, e := range l.extents {
				if e.refs < 1 || e.size < 1 {
					t.Fatalf("after record %d (%+v): extent %x stored as %+v", i, r, key, e)
				}
			}
			if r.Kind == journal.ImageRetire {
				_, published := l.published[r.Key]
				if _, ok := l.Quarantine(r.Key); ok || published {
					t.Fatalf("after retire of %q (record %d): still known", r.Key, i)
				}
			}
		}
		if again := fold(recs); !reflect.DeepEqual(l, again) {
			t.Fatalf("the same %d records folded to different ledgers:\n%+v\n%+v", len(recs), l, again)
		}
		if rebuilt := fold(l.Records()); !reflect.DeepEqual(l, rebuilt) {
			t.Fatalf("fold(Records()) differs from the ledger:\n%+v\n%+v", l, rebuilt)
		}
	})
}
