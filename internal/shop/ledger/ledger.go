// Package ledger is the VMShop's journal-derived state: every fact the
// shop must still know after a daemon death, held as one value whose
// only mutator is Apply. The live path appends a record to the journal
// and applies it; restart applies the whole log to a fresh Ledger. Both
// run the same fold, so replayed state equals live state by
// construction — and because the fields are unexported, the compiler
// rather than convention keeps every other writer out.
//
// A Ledger holds names, never handles: it is plain data that can be
// compared (reflect.DeepEqual) and, later, snapshotted. The shop
// resolves names to wired handles at the moment of use. It is not
// synchronised; the shop guards it with its own mutex.
package ledger

import (
	"sort"
	"strconv"
	"strings"

	"vmplants/internal/core"
	"vmplants/internal/journal"
)

// Route says who serves a VM: a local plant, or — when Peer is set — a
// peer cell that knows the VM as Remote.
type Route struct {
	Plant  string
	Peer   string
	Remote core.VMID
}

// intent is one journaled creation. Only an open intent is ever
// re-driven, so the spec and the forward attempts are released the
// moment it commits; what remains is the RequestID dedupe entry.
type intent struct {
	req       string   // client RequestID ("" when the client sent none)
	spec      string   // proto.CreateRequest XML, enough to re-drive
	attempts  []string // peers a forward-attempt record names, in order
	committed bool
}

// Ledger is the fold of a shop journal.
type Ledger struct {
	prefix  string // "vm-<shop>-": what this shop's minted VMIDs start with
	routes  map[core.VMID]Route
	intents map[core.VMID]intent
	byReq   map[string]core.VMID // RequestID → the intent that carries it
	exits   map[string]bool      // plant name → retired; present alone = draining
	minted  uint64               // highest VMID sequence number journaled
}

// New returns the empty ledger of the named shop.
func New(shop string) *Ledger {
	return &Ledger{
		prefix:  "vm-" + shop + "-",
		routes:  make(map[core.VMID]Route),
		intents: make(map[core.VMID]intent),
		byReq:   make(map[string]core.VMID),
		exits:   make(map[string]bool),
	}
}

// Apply folds one record into the ledger. It is total: kinds the shop
// does not own, and records about VMs it no longer tracks, change
// nothing. ARCHITECTURE.md ("Durability & crash recovery") tabulates
// these arms one for one.
func (l *Ledger) Apply(r journal.Record) {
	id := core.VMID(r.Key)
	switch r.Kind {
	case journal.CreationIntent:
		l.forget(id)
		in := intent{req: r.Field("req"), spec: r.Field("spec")}
		l.intents[id] = in
		if in.req != "" {
			l.byReq[in.req] = id
		}
		if n, ok := l.seq(id); ok && n > l.minted {
			l.minted = n
		}
	case journal.CreationCommit:
		l.commit(id)
		l.routes[id] = Route{Plant: r.Field("plant")}
	case journal.CreationForward:
		if r.Field("phase") == "commit" {
			l.commit(id)
			l.routes[id] = Route{Peer: r.Field("peer"), Remote: core.VMID(r.Field("remote"))}
		} else if in, ok := l.intents[id]; ok && !in.committed {
			// "attempt", the write-ahead half: this peer may hold the VM.
			in.attempts = append(in.attempts, r.Field("peer"))
			l.intents[id] = in
		}
	case journal.CreationAbort:
		l.forget(id)
	case journal.RouteDrop:
		delete(l.routes, id)
		l.forget(id)
	case journal.RouteChange:
		// Routes carry an endpoint kind; records written before
		// federation have no endpoint field and mean a plant.
		switch r.Field("endpoint") {
		case "", journal.EndpointPlant:
			l.reroute(id, Route{Plant: r.Field("plant")})
		case journal.EndpointPeer:
			l.reroute(id, Route{Peer: r.Field("peer"), Remote: core.VMID(r.Field("remote"))})
		}
	case journal.PlantDrainBegin:
		// Marks the plant present; a retirement already folded stands.
		l.exits[r.Key] = l.exits[r.Key]
	case journal.PlantRetired:
		l.exits[r.Key] = true
	}
}

// commit closes an intent, keeping only its dedupe entry.
func (l *Ledger) commit(id core.VMID) {
	if in, ok := l.intents[id]; ok {
		l.intents[id] = intent{req: in.req, committed: true}
	}
}

// forget removes an intent and the dedupe entry that names it.
func (l *Ledger) forget(id core.VMID) {
	if in, ok := l.intents[id]; ok {
		if l.byReq[in.req] == id {
			delete(l.byReq, in.req)
		}
		delete(l.intents, id)
	}
}

// reroute installs a route. A route naming no endpoint is an eviction:
// the shop learned the old route is stale and knows no better one.
func (l *Ledger) reroute(id core.VMID, rt Route) {
	if rt == (Route{}) {
		delete(l.routes, id)
		return
	}
	l.routes[id] = rt
}

// seq extracts n from a VMID this shop minted ("vm-<shop>-<n>").
func (l *Ledger) seq(id core.VMID) (uint64, bool) {
	suffix, ok := strings.CutPrefix(string(id), l.prefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(suffix, 10, 64)
	return n, err == nil
}

// Route returns the VM's route.
func (l *Ledger) Route(id core.VMID) (Route, bool) {
	rt, ok := l.routes[id]
	return rt, ok
}

// Routes calls fn for every route, in no particular order.
func (l *Ledger) Routes(fn func(core.VMID, Route)) {
	for id, rt := range l.routes {
		fn(id, rt)
	}
}

// RoutedTo lists the VMs routed to the named plant, in VMID order.
func (l *Ledger) RoutedTo(plant string) []core.VMID {
	var ids []core.VMID
	for id, rt := range l.routes {
		if rt.Peer == "" && rt.Plant == plant {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Request resolves a client RequestID (or forwarding token) to the
// creation journaled under it and whether that creation committed.
func (l *Ledger) Request(req string) (id core.VMID, committed, ok bool) {
	id, ok = l.byReq[req]
	return id, l.intents[id].committed, ok
}

// Open lists the intents with no commit, in VMID order — the creations
// a restart must reconcile.
func (l *Ledger) Open() []core.VMID {
	var open []core.VMID
	for id, in := range l.intents {
		if !in.committed {
			open = append(open, id)
		}
	}
	sort.Slice(open, func(i, j int) bool { return open[i] < open[j] })
	return open
}

// Intent returns what re-driving an open intent needs: its journaled
// spec and the peers it was forwarded to. Both are empty once the
// intent has committed.
func (l *Ledger) Intent(id core.VMID) (spec string, attempts []string) {
	in := l.intents[id]
	return in.spec, append([]string(nil), in.attempts...)
}

// Draining reports whether the plant began draining (retired or not).
func (l *Ledger) Draining(plant string) bool {
	_, ok := l.exits[plant]
	return ok
}

// Retired reports whether the plant's retirement is recorded.
func (l *Ledger) Retired(plant string) bool { return l.exits[plant] }

// Exits lists the plants with an open drain and the retired ones, each
// in name order.
func (l *Ledger) Exits() (draining, retired []string) {
	for name, gone := range l.exits {
		if gone {
			retired = append(retired, name)
		} else {
			draining = append(draining, name)
		}
	}
	sort.Strings(draining)
	sort.Strings(retired)
	return draining, retired
}

// Minted is the highest sequence number among this shop's journaled
// VMIDs: the floor for the next one.
func (l *Ledger) Minted() uint64 { return l.minted }
