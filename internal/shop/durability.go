// Durable shop state: the event-journaled creation protocol and the
// kill -9 crash/restart cycle.
//
// With a journal attached (SetJournal), every creation follows a
// write-ahead protocol: a creation-intent record is synced before any
// plant sees the request, and a creation-commit record is synced before
// the client hears the answer. A shop that dies between the two leaves
// a durable intent with no commit; Restart replays the journal, then
// reconciles each open intent against the plants — a VM that was built
// before the crash is committed retroactively, one that never made it
// is re-driven through the normal bid/dispatch path under its original
// VMID. Clients that resubmit a spec with the same RequestID after a
// crash are answered from the journal (the original VMID) instead of
// getting a second VM: exactly-once creation across daemon deaths.
//
// Everything a restart must know again lives in one ledger.Ledger, and
// record is its only writer: the record goes to the journal, then
// through Ledger.Apply. Restart folds the journal through the same
// Apply, so replayed state is live state by construction. Without a
// journal the shop keeps the same ledger — it just cannot get it back
// after a kill, and Restart falls back to the legacy Recover re-scrape.
package shop

import (
	"errors"
	"fmt"

	"vmplants/internal/classad"
	"vmplants/internal/core"
	"vmplants/internal/fault"
	"vmplants/internal/journal"
	"vmplants/internal/proto"
	"vmplants/internal/shop/ledger"
	"vmplants/internal/sim"
)

// ErrShopDown is returned by shop calls while the daemon is killed and
// not yet restarted. Clients treat it like a connection refused: back
// off and retry after the daemon returns.
var ErrShopDown = errors.New("shop daemon down")

// SetJournal attaches the shop's durable event log. From now on every
// creation writes intent/commit records, Destroy writes route-drops,
// and Restart rebuilds state by replay instead of re-scrape.
func (s *Shop) SetJournal(j *journal.Journal) {
	s.jnl = j
}

// Journal returns the attached journal (nil when none).
func (s *Shop) Journal() *journal.Journal { return s.jnl }

// Down reports whether the shop daemon is currently dead.
func (s *Shop) Down() bool { return s.down }

// record is how shop state changes: the record goes to the journal —
// synced when the protocol needs it durable before the next step — and
// then into the ledger.
func (s *Shop) record(p *sim.Proc, sync bool, r journal.Record) {
	s.persist(p, sync, r)
	s.apply(r)
}

// persist writes a record to the journal when one is attached — the
// write path's only such check.
func (s *Shop) persist(p *sim.Proc, sync bool, r journal.Record) {
	switch {
	case s.jnl == nil:
	case sync:
		s.jnl.AppendSync(p, r)
	default:
		s.jnl.Append(p, r)
	}
}

// apply folds a record into the ledger. The mutex is held for the fold
// only, never across persist: a sync parks the proc in the kernel.
func (s *Shop) apply(r journal.Record) {
	s.mu.Lock()
	s.led.Apply(r)
	s.mu.Unlock()
}

// The records written from more than one place. What each does to the
// ledger is Ledger.Apply's business alone.

func commitRecord(id core.VMID, plant string) journal.Record {
	return journal.Record{
		Kind: journal.CreationCommit, Key: string(id),
		Fields: map[string]string{"plant": plant},
	}
}

func forwardCommitRecord(id core.VMID, peer string, remote core.VMID) journal.Record {
	return journal.Record{
		Kind: journal.CreationForward, Key: string(id),
		Fields: map[string]string{"phase": "commit", "peer": peer, "remote": string(remote)},
	}
}

// routeRecord says the VM is now served by the named plant: re-learned
// by a recovery sweep, or moved there by a drain.
func routeRecord(id core.VMID, plant string) journal.Record {
	return journal.Record{
		Kind: journal.RouteChange, Key: string(id),
		Fields: map[string]string{"endpoint": journal.EndpointPlant, "plant": plant},
	}
}

// evictRecord is a route-change naming no endpoint: the route is stale
// and no better one is known. It is only ever applied, never persisted —
// a route the journal still holds costs a restarted shop one sweep.
func evictRecord(id core.VMID) journal.Record {
	return journal.Record{Kind: journal.RouteChange, Key: string(id)}
}

// aborted closes an intent whose creation failed permanently and
// returns the error unchanged. Safe because every transient failure
// path destroys its partial clone before reporting: a failed createAs
// means no VM exists anywhere under this VMID.
func (s *Shop) aborted(p *sim.Proc, id core.VMID, err error) error {
	s.record(p, true, journal.Record{
		Kind: journal.CreationAbort, Key: string(id),
		Fields: map[string]string{"reason": err.Error()},
	})
	return err
}

// Kill is kill -9: the ledger and all soft state — classad cache,
// breakers, in-flight counts — evaporate, the journal loses its
// unsynced tail, and every call fails with ErrShopDown until Restart.
func (s *Shop) Kill() {
	s.down = true
	s.mCrashes.Inc()
	s.cache = make(map[core.VMID]*classad.Ad)
	s.breakers = make(map[string]*breaker)
	s.mu.Lock()
	s.led = ledger.New(s.name)
	s.inflight = make(map[string]int)
	s.mu.Unlock()
	if s.jnl != nil {
		s.jnl.Crash()
	}
}

// killIf fires the daemon-kill fault at one of the shop's protocol
// points ("intent", "commit", "forward", "drain") and, when it fires,
// kills the shop. The fault site is the shop's own name, so a
// federation experiment can kill one cell while its peers keep serving.
func (s *Shop) killIf(op string) bool {
	if !s.Faults.Should(s.name, fault.DaemonKill, op) {
		return false
	}
	s.Kill()
	return true
}

// RestartStats reports what a restart rebuilt and repaired.
type RestartStats struct {
	// Replayed is how many journal records the replay applied.
	Replayed int
	// TornTails is how many damaged records the replay truncated.
	TornTails int
	// Routes is how many VM routes were rebuilt from commit records.
	Routes int
	// Reconciled counts open intents whose VM turned out to exist on a
	// plant: the crash hit between plant success and the commit record.
	Reconciled int
	// Redriven counts open intents whose VM was never built: the crash
	// hit between the intent record and dispatch. Each was re-driven to
	// completion under its original VMID.
	Redriven int
	// Aborted counts open intents whose re-drive failed permanently.
	Aborted int
	// Unresolved counts open intents that could not be settled because
	// an attempted forward peer was unreachable: the VM may exist in
	// that cell, so neither a commit nor a re-drive is safe. They stay
	// open for the next restart (or the peer's return) to settle.
	Unresolved int
}

// Restart brings a killed shop back: the journal is folded into a fresh
// ledger — routes, the request-dedupe index, open intents, the fleet's
// exits — then each open intent is reconciled against the world:
// committed if the VM exists on some plant, re-driven from its journaled
// spec if not. Without a journal it falls back to the legacy Recover
// re-scrape.
func (s *Shop) Restart(p *sim.Proc) (RestartStats, error) {
	var st RestartStats
	s.down = false
	s.mRestarts.Inc()
	if s.jnl == nil {
		st.Routes, _ = s.Recover(p)
		return st, nil
	}
	sp := s.tel.T().Start(p, "shop.restart").Set("shop", s.name)
	defer func() {
		sp.SetInt("replayed", int64(st.Replayed)).
			SetInt("reconciled", int64(st.Reconciled)).
			SetInt("redriven", int64(st.Redriven)).
			End(p)
	}()
	led := ledger.New(s.name)
	rst, err := s.jnl.Replay(func(r journal.Record) error {
		led.Apply(r)
		return nil
	})
	if err != nil {
		return st, err
	}
	s.mu.Lock()
	s.led = led
	s.mu.Unlock()
	st.Replayed = rst.Records
	st.TornTails = rst.TornTails
	// The journal is the authority on fleet membership too. Act on it
	// before any intent is reconciled: retired plants leave the candidate
	// set (a route still naming one no longer resolves — a retired plant
	// is provably empty), open drains re-mark their plants, so neither
	// the reconcile sweep nor a re-drive can ever route work to a plant
	// that already left.
	draining, retired := led.Exits()
	for _, name := range retired {
		if h := s.plantByName(name); h != nil {
			s.plants = without(s.plants, h)
			if d, ok := h.(Drainable); ok {
				d.Retire()
			}
		}
	}
	for _, name := range draining {
		if d, ok := s.plantByName(name).(Drainable); ok {
			d.SetDraining(true)
		}
	}
	plantRoutes := 0
	led.Routes(func(_ core.VMID, rt ledger.Route) {
		switch {
		case rt.Peer != "":
			if s.peerByName(rt.Peer) != nil {
				st.Routes++
			}
		case s.plantByName(rt.Plant) != nil:
			st.Routes++
			plantRoutes++
		}
	})
	s.mRecoveredRts.Add(int64(plantRoutes))
	// The VMID counter must never re-mint an ID that reached the journal;
	// keep the in-memory counter when it is already ahead.
	if cur := s.nextID.Load(); led.Minted() > cur {
		s.nextID.Store(led.Minted())
	}
	// Reconcile open intents in deterministic (VMID) order.
	for _, id := range led.Open() {
		if h, ok := s.findVM(p, id); ok {
			// The plant finished the creation before the crash; only the
			// commit record was lost. Write it now.
			s.record(p, true, commitRecord(id, h.Name()))
			s.mReconciled.Inc()
			st.Reconciled++
			continue
		}
		s.mu.Lock()
		specXML, attempts := s.led.Intent(id)
		s.mu.Unlock()
		if len(attempts) > 0 {
			// The crash hit inside a forward window: an attempted peer
			// may hold the VM under our forwarding token. Resolve by
			// token lookup; only when every attempted peer
			// authoritatively denies it is a local re-drive safe.
			done, resolved := s.reconcileForward(p, id, attempts)
			if done {
				s.mReconciled.Inc()
				st.Reconciled++
				continue
			}
			if !resolved {
				st.Unresolved++
				continue
			}
			// Provably absent from every attempted peer: fall through
			// to the ordinary re-drive.
		}
		// The intent never produced a VM (the crash hit before dispatch,
		// or the partial clone died with its fault). Re-drive it under
		// the original VMID so the client's retry finds it committed.
		spec, serr := specFromXML(specXML)
		if serr != nil {
			_ = s.aborted(p, id, fmt.Errorf("shop %s: unreplayable intent: %w", s.name, serr))
			st.Aborted++
			continue
		}
		if _, cerr := s.createAs(p, id, spec); cerr != nil {
			if errors.Is(cerr, ErrShopDown) {
				// Killed again mid-reconcile; the next Restart resumes.
				return st, cerr
			}
			st.Aborted++
			continue
		}
		s.mRedrives.Inc()
		st.Redriven++
	}
	return st, nil
}

// beginCreation is the front half of Create: request deduplication
// (journaled shops only — without a journal a retry after a crash has
// nothing to dedupe against), VMID minting, and the write-ahead intent
// record. done means Create is finished (a deduped answer, an in-flight
// duplicate, or a daemon kill) without running the creation machinery.
func (s *Shop) beginCreation(p *sim.Proc, spec *core.Spec) (id core.VMID, ad *classad.Ad, done bool, err error) {
	if spec.RequestID != "" && s.jnl != nil {
		s.mu.Lock()
		prior, committed, ok := s.led.Request(spec.RequestID)
		s.mu.Unlock()
		if ok && committed {
			// Retransmission of a finished creation: answer with the
			// original VMID; the classad comes from the routed plant.
			s.mDedups.Inc()
			ad, qerr := s.Query(p, prior)
			return prior, ad, true, qerr
		}
		if ok {
			return "", nil, true, fmt.Errorf("shop %s: request %s already in flight", s.name, spec.RequestID)
		}
	}
	id = s.mintID()
	f := map[string]string{"name": spec.Name}
	if spec.RequestID != "" {
		f["req"] = spec.RequestID
	}
	if spec.Origin != "" {
		f["origin"] = spec.Origin
	}
	f["spec"] = string(proto.MarshalCreateRequest(proto.FromSpec(spec, "")))
	s.record(p, true, journal.Record{Kind: journal.CreationIntent, Key: string(id), Fields: f})
	// Chaos point: the daemon can die here, the intent durable and no
	// plant asked yet — Restart re-drives it.
	if s.killIf("intent") {
		return "", nil, true, ErrShopDown
	}
	return id, nil, false, nil
}

// reconcileForward settles an open intent whose forward-attempt records
// name peers that may hold the VM. Each attempted peer is asked — via a
// non-creating token lookup, so the probe can never mint a duplicate —
// whether it committed our forwarding token. Found on some peer: commit
// the forward here (done=true). Denied by every attempted peer:
// resolved=true and the caller may safely re-drive locally. Any peer
// unreachable or still in flight: resolved=false — the VM may exist
// there, so the intent must stay open.
func (s *Shop) reconcileForward(p *sim.Proc, id core.VMID, attempts []string) (done, resolved bool) {
	token := ForwardToken(s.name, id)
	seen := make(map[string]bool, len(attempts))
	for _, name := range attempts {
		if seen[name] {
			continue
		}
		seen[name] = true
		h := s.peerByName(name)
		if h == nil {
			// The attempted peer is not wired into this incarnation:
			// its state cannot be ruled out.
			return false, false
		}
		remote, found, err := h.LookupForward(p, token)
		if err != nil {
			return false, false
		}
		if found {
			s.record(p, true, forwardCommitRecord(id, name, remote))
			return true, true
		}
	}
	return false, true
}

// ForwardLookup resolves a forwarding token against this cell's dedupe
// index — the probe half of cross-cell reconciliation. It never creates
// anything: a token this cell has no committed creation for reports
// found=false, and a token still in flight is an error (the origin must
// retry once the outcome is durable here).
func (s *Shop) ForwardLookup(p *sim.Proc, token string) (core.VMID, bool, error) {
	if s.down {
		return "", false, ErrShopDown
	}
	if token == "" || s.jnl == nil {
		return "", false, nil
	}
	s.mu.Lock()
	prior, committed, ok := s.led.Request(token)
	s.mu.Unlock()
	if !ok {
		return "", false, nil
	}
	if !committed {
		return "", false, fmt.Errorf("shop %s: forward %s still in flight", s.name, token)
	}
	return prior, true, nil
}

// findVM sweeps the plants for a VM the journal says was intended but
// not committed — the reconcile probe.
func (s *Shop) findVM(p *sim.Proc, id core.VMID) (PlantHandle, bool) {
	for _, h := range s.plants {
		if _, found, err := h.Query(p, id); err == nil && found {
			return h, true
		}
	}
	return nil, false
}

// specFromXML rebuilds a creation spec from a journaled intent's
// proto.CreateRequest XML.
func specFromXML(x string) (*core.Spec, error) {
	if x == "" {
		return nil, errors.New("intent has no spec")
	}
	cr, err := proto.UnmarshalCreateRequest([]byte(x))
	if err != nil {
		return nil, err
	}
	return cr.Spec()
}
