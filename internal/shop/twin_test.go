package shop

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/fault"
	"vmplants/internal/journal"
	"vmplants/internal/plant"
	"vmplants/internal/shop/ledger"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
)

// The replay-twin property: after every operation, folding the journal
// into a fresh ledger gives exactly the shop's live ledger — and that
// ledger is right about the world (every VM the client holds is routed
// to whoever really hosts it, exactly once; nothing else exists). The
// first half holds by construction as long as record/apply is the only
// writer; the second half is what makes each Apply arm matter.

const (
	twinSeeds = 1000
	twinOps   = 14
	// twinHorizon bounds a seed's virtual time (a healthy one needs
	// well under an hour), so a shop that can no longer make progress —
	// a drain waiting on a route that never goes — fails instead of
	// spinning.
	twinHorizon = 24 * time.Hour
)

// twinOp is one step of the seeded mix.
type twinOp int

const (
	opCreate twinOp = iota
	opResubmit
	opFailingCreate
	opDestroy
	opForward
	opSweep
	opDrain
	opKillIntent
	opKillCommit
	opKillForward
	opKillDrain
	opKillPlain
	opKillPeer
	nTwinOps
)

var twinOpNames = [nTwinOps]string{
	"create", "resubmit", "failing-create", "destroy", "forward", "sweep",
	"drain", "kill@intent", "kill@commit", "kill@forward", "kill@drain", "kill", "kill-peer",
}

// twin is one seed's rig: cell A (three plants, the shop under test) and
// its peer cell B (one plant), both journaled.
type twin struct {
	t      *testing.T
	seed   int64
	rng    *sim.RNG
	a, b   *Shop
	faults *fault.Registry
	// aPlants/bPlants are every plant handle ever wired, retired ones
	// included: the census asks them all.
	aPlants, bPlants []PlantHandle
	live             map[core.VMID]string // VMID the client holds → its RequestID
	order            []core.VMID          // the same IDs, in creation order
	seq              int
}

func journalOn(s *Shop) {
	vol := storage.NewVolume(s.Name()+"-log",
		storage.NewDevice(s.Name()+"-log-disk", 80<<20, 100*time.Microsecond))
	s.SetJournal(journal.Open(vol, "journal/"+s.Name()))
}

func TestReplayTwin(t *testing.T) {
	var ran [nTwinOps]atomic.Int64
	t.Run("seeds", func(t *testing.T) {
		const shards = 4
		for shard := 0; shard < shards; shard++ {
			shard := shard
			t.Run(fmt.Sprintf("shard%d", shard), func(t *testing.T) {
				t.Parallel()
				for seed := int64(shard); seed < twinSeeds; seed += shards {
					runTwin(t, seed, &ran)
				}
			})
		}
	})
	// The mix is only a test of an Apply arm if the op that needs the
	// arm actually ran.
	for op := twinOp(0); op < nTwinOps; op++ {
		if n := ran[op].Load(); n < twinSeeds/20 {
			t.Errorf("op %s completed only %d times over %d seeds", twinOpNames[op], n, twinSeeds)
		}
	}
}

func runTwin(t *testing.T, seed int64, ran *[nTwinOps]atomic.Int64) {
	k := sim.NewKernel()
	tw := &twin{t: t, seed: seed, rng: sim.NewRNG(seed), live: map[core.VMID]string{}}
	tw.a, _ = newCell(t, k, "cellA", 3, 11+seed, plant.Config{MaxVMs: 32})
	tw.b, _ = newCell(t, k, "cellB", 1, 23+seed, plant.Config{MaxVMs: 32})
	tw.aPlants, tw.bPlants = tw.a.Plants(), tw.b.Plants()
	tw.a.SetPeers([]PeerHandle{NewLocalPeerHandle(tw.b)})
	journalOn(tw.a)
	journalOn(tw.b)
	tw.faults = fault.NewRegistry(seed)
	tw.a.Faults = tw.faults
	last := "setup"
	k.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < twinOps && !t.Failed(); i++ {
			op := twinOp(tw.rng.Intn(int(nTwinOps)))
			last = twinOpNames[op]
			if tw.step(p, op) {
				ran[op].Add(1)
			}
			tw.check(p, last)
		}
		last = ""
	})
	if res := k.Run(twinHorizon); last != "" || len(res.Stranded) != 0 {
		tw.failf("stuck in %q at t=%v (stranded %v)", last, res.End, res.Stranded)
	}
}

func (tw *twin) failf(format string, args ...any) {
	tw.t.Helper()
	tw.t.Errorf("seed %d: %s", tw.seed, fmt.Sprintf(format, args...))
}

// spec is the next request: a fresh user, a fresh RequestID.
func (tw *twin) spec() *core.Spec {
	tw.seq++
	s := wsSpec(tw.t, fmt.Sprintf("u%d", tw.seq), "ufl.edu")
	s.RequestID = fmt.Sprintf("req-%d", tw.seq)
	return s
}

// forwardSpec can only be served by cell B's plant.
func (tw *twin) forwardSpec() *core.Spec {
	s := tw.spec()
	s.Requirements = `TARGET.Plant == "` + tw.bPlants[0].Name() + `"`
	return s
}

func (tw *twin) hold(id core.VMID, req string) {
	if _, dup := tw.live[id]; dup {
		tw.failf("VMID %s minted twice", id)
	}
	tw.live[id] = req
	tw.order = append(tw.order, id)
}

func (tw *twin) drop(id core.VMID) {
	delete(tw.live, id)
	for i, x := range tw.order {
		if x == id {
			tw.order = append(tw.order[:i], tw.order[i+1:]...)
			break
		}
	}
}

func (tw *twin) pick() (core.VMID, bool) {
	if len(tw.order) == 0 {
		return "", false
	}
	return tw.order[tw.rng.Intn(len(tw.order))], true
}

// create submits a spec and, if the daemon dies under it, restarts the
// shop and resubmits — the client's view of exactly-once. wantStats, when
// set, checks what the restart had to repair.
func (tw *twin) create(p *sim.Proc, s *core.Spec, wantStats func(RestartStats) bool) {
	id, _, err := tw.a.Create(p, s)
	if errors.Is(err, ErrShopDown) {
		st := tw.restart(p)
		if wantStats != nil && !wantStats(st) {
			tw.failf("restart after kill repaired %+v", st)
		}
		id, _, err = tw.a.Create(p, s) // client retry: deduped onto the repaired creation
	} else if wantStats != nil {
		tw.failf("armed kill did not fire (err %v)", err)
	}
	if err != nil {
		tw.failf("create %s: %v", s.RequestID, err)
		return
	}
	tw.hold(id, s.RequestID)
}

func (tw *twin) restart(p *sim.Proc) RestartStats {
	st, err := tw.a.Restart(p)
	if err != nil {
		tw.failf("restart: %v", err)
	}
	if st.Aborted != 0 || st.Unresolved != 0 {
		tw.failf("restart left %+v", st)
	}
	return st
}

// drainable picks an active plant of cell A to retire, keeping at least
// one to serve.
func (tw *twin) drainable() (string, bool) {
	var active []string
	for _, h := range tw.a.Plants() {
		if !tw.a.Draining(h.Name()) {
			active = append(active, h.Name())
		}
	}
	if len(active) < 2 {
		return "", false
	}
	return active[tw.rng.Intn(len(active))], true
}

// collect destroys every VM the client holds on the named plant, as a
// drain of it waits for.
func (tw *twin) collect(p *sim.Proc, plant string) {
	for _, id := range append([]core.VMID(nil), tw.order...) {
		if tw.a.RouteOf(id) != plant {
			continue
		}
		if err := tw.a.Destroy(p, id); err != nil {
			tw.failf("collect %s: %v", id, err)
		}
		tw.drop(id)
	}
}

// step runs one operation; false means its precondition did not hold
// (nothing to destroy, no plant left to drain) and nothing ran.
func (tw *twin) step(p *sim.Proc, op twinOp) bool {
	arm := func(point string) { tw.faults.Arm("cellA", fault.DaemonKill, point, 1) }
	switch op {
	case opCreate:
		tw.create(p, tw.spec(), nil)
	case opResubmit:
		id, ok := tw.pick()
		if !ok {
			return false
		}
		s := tw.spec()
		s.RequestID = tw.live[id]
		got, _, err := tw.a.Create(p, s)
		if err != nil || got != id {
			tw.failf("resubmitted %s answered %s, %v; want %s", s.RequestID, got, err, id)
		}
	case opFailingCreate:
		s := tw.spec()
		if tw.rng.Intn(2) == 0 {
			s.Requirements = `TARGET.FreeMemoryMB > 1000000` // no plant in any cell
		} else {
			s.Requirements = `TARGET.X >` // malformed: fails after the intent
		}
		if _, _, err := tw.a.Create(p, s); err == nil {
			tw.failf("unsatisfiable create succeeded")
		}
	case opDestroy:
		id, ok := tw.pick()
		if !ok {
			return false
		}
		if err := tw.a.Destroy(p, id); err != nil {
			tw.failf("destroy %s: %v", id, err)
		}
		req := tw.live[id]
		tw.drop(id)
		if tw.a.RouteOf(id) != "" {
			tw.failf("destroyed %s still routed to %s", id, tw.a.RouteOf(id))
		}
		// The RequestID is free again: a resubmission is a new creation.
		s := tw.spec()
		s.RequestID = req
		tw.create(p, s, nil)
	case opForward:
		tw.create(p, tw.forwardSpec(), nil)
	case opSweep:
		// Move a VM behind the shop's back; the next Query (in check)
		// evicts the stale route and re-learns it by a sweep.
		id, ok := tw.pick()
		if !ok {
			return false
		}
		src, _ := tw.a.lookup(id)
		from, local := src.vmServer.(*LocalHandle)
		if !local {
			return false // served by the peer cell
		}
		for _, h := range tw.a.eligiblePlants() {
			if h != PlantHandle(from) {
				if err := from.Plant.MigrateTo(p, id, h.(*LocalHandle).Plant); err != nil {
					tw.failf("migrate %s: %v", id, err)
				}
				return true
			}
		}
		return false
	case opDrain, opKillDrain:
		name, ok := tw.drainable()
		if !ok {
			return false
		}
		var err error
		if op == opKillDrain {
			arm("drain")
			if err := tw.a.DrainAndRetire(p, name); !errors.Is(err, ErrShopDown) {
				tw.failf("drain survived the kill: %v", err)
			}
			tw.restart(p)
			if open := tw.a.OpenDrains(); len(open) != 1 || open[0] != name {
				tw.failf("restart forgot the open drain of %s: %v", name, open)
			}
			tw.collect(p, name)
			err = tw.a.ResumeDrains(p)
		} else {
			// The drain waits while the client collects the plant's VMs.
			done := false
			p.Kernel().Spawn("drain", func(dp *sim.Proc) {
				err = tw.a.DrainAndRetire(dp, name)
				done = true
			})
			tw.collect(p, name)
			for !done {
				p.Sleep(time.Second)
			}
		}
		if err != nil || !tw.a.Retired(name) || tw.a.plantByName(name) != nil {
			tw.failf("drain of %s: %v (retired %v)", name, err, tw.a.Retired(name))
		}
	case opKillIntent:
		arm("intent")
		tw.create(p, tw.spec(), func(st RestartStats) bool { return st.Redriven == 1 && st.Reconciled == 0 })
	case opKillCommit:
		arm("commit")
		tw.create(p, tw.spec(), func(st RestartStats) bool { return st.Reconciled == 1 && st.Redriven == 0 })
	case opKillForward:
		arm("forward")
		tw.create(p, tw.forwardSpec(), func(st RestartStats) bool { return st.Reconciled == 1 && st.Redriven == 0 })
	case opKillPlain:
		// A real process death: nothing of the old Shop value survives.
		// The new one is wired with every plant the cell ever had — the
		// journal alone must say which have retired — and a VMID counter
		// at zero.
		old := tw.a
		old.Kill()
		tw.a = New(old.Name(), append([]PlantHandle(nil), tw.aPlants...), tw.seed)
		tw.a.SetJournal(old.Journal())
		tw.a.SetPeers(old.peers)
		tw.a.Faults = tw.faults
		if st := tw.restart(p); st.Routes != len(tw.live) {
			tw.failf("restart rebuilt %d routes for %d VMs", st.Routes, len(tw.live))
		}
	case opKillPeer:
		tw.b.Kill()
		if _, err := tw.b.Restart(p); err != nil {
			tw.failf("peer restart: %v", err)
		}
	}
	return true
}

// census is what the given plants really host: VMID → hosting plant.
// A plant hosts a VM only under an ID one of the two cells minted, so
// every such ID is looked up on every plant, and each plant's VM count
// must match what the lookups found — nothing else can hide.
func (tw *twin) census(plants []PlantHandle) map[core.VMID]string {
	where := map[core.VMID]string{}
	for _, h := range plants {
		pl := h.(*LocalHandle).Plant
		found := 0
		for _, s := range []*Shop{tw.a, tw.b} {
			for seq := uint64(1); seq <= s.nextID.Load(); seq++ {
				id := core.VMID(fmt.Sprintf("vm-%s-%d", s.Name(), seq))
				if _, ok := pl.VM(id); !ok {
					continue
				}
				if prev, dup := where[id]; dup {
					tw.failf("VM %s exists on %s and %s", id, prev, pl.Name())
				}
				where[id] = pl.Name()
				found++
			}
		}
		if n := pl.ActiveVMs(); n != found {
			tw.failf("%s hosts %d VMs, %d under a minted ID", pl.Name(), n, found)
		}
	}
	return where
}

// check is the invariant set, run after every operation.
func (tw *twin) check(p *sim.Proc, after string) {
	// Every VM the client holds answers a query (which also heals a
	// route a lost buffered record or a migration left stale) …
	for _, id := range tw.order {
		if _, err := tw.a.Query(p, id); err != nil {
			tw.failf("after %s: query %s: %v", after, id, err)
		}
	}
	// … is routed to whoever really hosts it, and nothing else exists.
	local, remote := tw.census(tw.aPlants), tw.census(tw.bPlants)
	if len(local)+len(remote) != len(tw.live) {
		tw.failf("after %s: %d local + %d remote VMs exist, client holds %d", after, len(local), len(remote), len(tw.live))
	}
	for _, id := range tw.order {
		route := tw.a.RouteOf(id)
		if host, ok := local[id]; ok {
			if route != host {
				tw.failf("after %s: %s is on %s, routed to %q", after, id, host, route)
			}
			continue
		}
		peer, rid, _ := tw.a.ForwardedTo(id)
		if _, there := remote[rid]; !there || peer != "cellB" || route != "peer:cellB" {
			tw.failf("after %s: %s is on no local plant, routed to %q (%s as %s)", after, id, route, peer, rid)
		}
	}
	// No creation is left open, no plant left half-drained.
	if open := tw.a.led.Open(); len(open) != 0 {
		tw.failf("after %s: open intents %v", after, open)
	}
	if open := tw.a.OpenDrains(); len(open) != 0 {
		tw.failf("after %s: open drains %v", after, open)
	}
	// The twin: the journal folds to the live ledger, in both cells.
	for _, s := range []*Shop{tw.a, tw.b} {
		fold := ledger.New(s.Name())
		for _, r := range s.Journal().Records() {
			fold.Apply(r)
		}
		if !reflect.DeepEqual(fold, s.led) {
			tw.failf("after %s: %s: fold(journal) != live ledger\nfold %+v\nlive %+v", after, s.Name(), fold, s.led)
		}
	}
}

// Regression: an intent used to keep its full CreateRequest XML — the
// whole configuration DAG — for as long as the VM lived, though only an
// open intent is ever re-driven. The spec must be held while the
// creation is open (a kill after the intent re-drives from it) and
// released by the commit.
func TestCommitReleasesIntentSpec(t *testing.T) {
	d := newDeployment(t, 2, plant.Config{MaxVMs: 32})
	_, reg := journaled(d)
	reg.Arm("shop", fault.DaemonKill, "intent", 1)
	d.run(t, func(p *sim.Proc) {
		spec := wsSpec(t, "ivan", "ufl.edu")
		spec.RequestID = "req-1"
		if _, _, err := d.shop.Create(p, spec); !errors.Is(err, ErrShopDown) {
			t.Fatalf("create survived the kill: %v", err)
		}
		folded := ledger.New(d.shop.Name())
		for _, r := range d.shop.Journal().Records() {
			folded.Apply(r)
		}
		open := folded.Open()
		if len(open) != 1 {
			t.Fatalf("open intents after the kill: %v", open)
		}
		if xml, _ := folded.Intent(open[0]); xml == "" {
			t.Fatal("open intent holds no spec to re-drive from")
		}
		if st, err := d.shop.Restart(p); err != nil || st.Redriven != 1 {
			t.Fatalf("restart: %+v, %v", st, err)
		}
		if xml, _ := d.shop.led.Intent(open[0]); xml != "" {
			t.Errorf("committed intent still holds %d bytes of spec", len(xml))
		}
		if id, committed, ok := d.shop.led.Request("req-1"); !ok || !committed || id != open[0] {
			t.Errorf("dedupe entry after commit: %s %v %v", id, committed, ok)
		}
	})
}
