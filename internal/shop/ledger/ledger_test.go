package ledger

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"vmplants/internal/core"
	"vmplants/internal/journal"
)

// The fuzzer drives Apply with a byte script, not free-form records:
// every byte picks from a small pool, so VMIDs, RequestIDs and plant
// names collide constantly — which is where a fold's bugs live.
var (
	fuzzKinds = []journal.Kind{
		journal.CreationIntent, journal.CreationCommit, journal.CreationForward,
		journal.CreationAbort, journal.RouteDrop, journal.RouteChange,
		journal.ImagePublish, "no-such-kind",
	}
	fuzzKeys   = []string{"vm-shop-1", "vm-shop-2", "vm-shop-3", "vm-shop-40", "vm-other-7", "vm-shop-x", "", "node00", "node01"}
	fuzzFields = []string{"req", "spec", "origin", "plant", "phase", "peer", "remote", "endpoint", "reason"}
	fuzzValues = []string{"", "req-1", "req-2", "node00", "node01", "cellB", "vm-cellB-1", "commit", "attempt", "plant", "peer", "<spec/>", "bogus"}
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

// script is the inverse, as far as the pools allow: a real journal's
// keys and values are mapped onto pool slots in order of appearance.
func script(recs []journal.Record) []byte {
	slot := func(pool []string, seen map[string]int, s string) byte {
		for i, v := range pool {
			if v == s {
				return byte(i)
			}
		}
		if _, ok := seen[s]; !ok {
			seen[s] = len(seen)
		}
		return byte(seen[s] % len(pool))
	}
	keys, values := map[string]int{}, map[string]int{}
	var out []byte
	for _, r := range recs {
		kind := len(fuzzKinds) - 1
		for i, k := range fuzzKinds {
			if k == r.Kind {
				kind = i
			}
		}
		var pairs []byte
		for i, name := range fuzzFields {
			if v, ok := r.Fields[name]; ok && len(pairs) < 6 {
				pairs = append(pairs, byte(i), slot(fuzzValues, values, v))
			}
		}
		out = append(out, byte(kind), slot(fuzzKeys, keys, r.Key), byte(len(pairs)/2))
		out = append(out, pairs...)
	}
	return out
}

// smokeJournal is the seed corpus shared with internal/journal's
// FuzzDecode: the shop journal of one restart smoke run.
func smokeJournal(tb testing.TB) []journal.Record {
	tb.Helper()
	f, err := os.Open("../../journal/testdata/restart-smoke.jsonl")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	var recs []journal.Record
	for dec := json.NewDecoder(f); dec.More(); {
		var r journal.Record
		if err := dec.Decode(&r); err != nil {
			tb.Fatal(err)
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		tb.Fatal("seed corpus is empty")
	}
	return recs
}

// everyKind is a hand-written history that reaches each Apply arm: a
// local creation, a forwarded one, an aborted one, a re-learned and a
// cross-cell route, a destroy.
var everyKind = []journal.Record{
	{Kind: journal.CreationIntent, Key: "vm-shop-1", Fields: map[string]string{"req": "req-1", "spec": "<spec/>"}},
	{Kind: journal.CreationCommit, Key: "vm-shop-1", Fields: map[string]string{"plant": "node00"}},
	{Kind: journal.CreationIntent, Key: "vm-shop-2", Fields: map[string]string{"req": "req-2", "spec": "<spec/>"}},
	{Kind: journal.CreationForward, Key: "vm-shop-2", Fields: map[string]string{"phase": "attempt", "peer": "cellB"}},
	{Kind: journal.CreationForward, Key: "vm-shop-2", Fields: map[string]string{"phase": "commit", "peer": "cellB", "remote": "vm-cellB-1"}},
	{Kind: journal.CreationIntent, Key: "vm-shop-3", Fields: map[string]string{"spec": "<spec/>"}},
	{Kind: journal.CreationAbort, Key: "vm-shop-3", Fields: map[string]string{"reason": "bogus"}},
	{Kind: journal.RouteChange, Key: "vm-shop-1", Fields: map[string]string{"endpoint": "plant", "plant": "node01"}},
	{Kind: journal.RouteChange, Key: "vm-shop-40", Fields: map[string]string{"endpoint": "peer", "peer": "cellB", "remote": "vm-cellB-1"}},
	{Kind: journal.RouteDrop, Key: "vm-shop-2"},
}

// mentions reports every table that still knows the VMID.
func (l *Ledger) mentions(id core.VMID) (where []string) {
	if _, ok := l.routes[id]; ok {
		where = append(where, "routes")
	}
	if _, ok := l.intents[id]; ok {
		where = append(where, "intents")
	}
	for req, v := range l.byReq {
		if v == id {
			where = append(where, "byReq["+req+"]")
		}
	}
	return where
}

// FuzzApply folds arbitrary record sequences. Apply must never panic;
// the dedupe index must only ever name intents that exist; a route-drop
// must leave no table mentioning its VMID; and the fold must be a
// function of the sequence — folding it twice gives equal ledgers.
func FuzzApply(f *testing.F) {
	f.Add(script(smokeJournal(f)))
	f.Add(script(everyKind))
	f.Fuzz(func(t *testing.T, b []byte) {
		recs := records(b)
		l := New("shop")
		for i, r := range recs {
			l.Apply(r)
			for req, id := range l.byReq {
				if in, ok := l.intents[id]; !ok || in.req != req {
					t.Fatalf("after record %d (%+v): byReq[%q] = %s, intent there: %+v (present %v)", i, r, req, id, in, ok)
				}
			}
			if r.Kind == journal.RouteDrop {
				if where := l.mentions(core.VMID(r.Key)); len(where) != 0 {
					t.Fatalf("after route-drop of %q (record %d): still in %v", r.Key, i, where)
				}
			}
		}
		again := New("shop")
		for _, r := range recs {
			again.Apply(r)
		}
		if !reflect.DeepEqual(l, again) {
			t.Fatalf("the same %d records folded to different ledgers:\n%+v\n%+v", len(recs), l, again)
		}
	})
}

// The accessors agree with the fold on a history that uses every arm.
func TestApplyEveryKind(t *testing.T) {
	l := New("shop")
	for _, r := range everyKind {
		l.Apply(r)
	}
	if rt, _ := l.Route("vm-shop-1"); rt != (Route{Plant: "node01"}) {
		t.Errorf("VM after a route change routed to %+v", rt)
	}
	if rt, ok := l.Route("vm-shop-2"); ok {
		t.Errorf("destroyed VM still routed to %+v", rt)
	}
	if rt, _ := l.Route("vm-shop-40"); rt != (Route{Peer: "cellB", Remote: "vm-cellB-1"}) {
		t.Errorf("cross-cell route = %+v", rt)
	}
	if id, committed, ok := l.Request("req-1"); !ok || !committed || id != "vm-shop-1" {
		t.Errorf("Request(req-1) = %s %v %v", id, committed, ok)
	}
	if _, _, ok := l.Request("req-2"); ok {
		t.Error("destroyed VM's RequestID still deduped")
	}
	if spec, attempts := l.Intent("vm-shop-1"); spec != "" || len(attempts) != 0 {
		t.Errorf("committed intent still holds spec %q, attempts %v", spec, attempts)
	}
	if open := l.Open(); len(open) != 0 {
		t.Errorf("open intents %v", open)
	}
	if l.Minted() != 3 {
		t.Errorf("minted = %d, want 3 (vm-shop-40 was never an intent)", l.Minted())
	}
	// An eviction clears the route and nothing else.
	l.Apply(journal.Record{Kind: journal.RouteChange, Key: "vm-shop-1"})
	if _, ok := l.Route("vm-shop-1"); ok {
		t.Error("evicted route survived")
	}
	if _, _, ok := l.Request("req-1"); !ok {
		t.Error("eviction forgot the RequestID")
	}
}
