package service

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"vmplants/internal/core"
	"vmplants/internal/journal"
	"vmplants/internal/plant"
	"vmplants/internal/proto"
	"vmplants/internal/shop"
	"vmplants/internal/sim"
	"vmplants/internal/storage"
)

// One script per daemon kind, driven through the simulated transport and
// through the wire, must end every step in the same outcome: the same
// found and the same error class. What each class means is decided once,
// in shop.PlantEnd / shop.ShopEnd; this holds the two transports in front
// of them to carrying it unchanged.

// outcome is one step's result as the shop's machinery reads it.
type outcome struct {
	step  string
	found bool // Query/Collect/LookupForward's found; false elsewhere
	class string
}

// class names the protocol's outcome class of err.
func class(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, shop.ErrPlantDown), errors.Is(err, shop.ErrPeerDown), errors.Is(err, shop.ErrShopDown):
		return "down"
	case errors.Is(err, shop.ErrUnknownVM):
		return "not-found"
	case errors.Is(err, core.ErrTransient):
		return "transient"
	}
	return "failed"
}

// transcript collects a script's outcomes.
type transcript []outcome

func (ts *transcript) add(step string, found bool, err error) {
	*ts = append(*ts, outcome{step, found && err == nil, class(err)})
}

// side is one transport's deployment: the handle under test, and how to
// run a process where the caller lives and where the daemon lives — one
// kernel in-process, two over the wire.
type side struct {
	onCaller, onDaemon func(fn func(p *sim.Proc))
}

func on(t *testing.T, r *Runner) func(fn func(p *sim.Proc)) {
	return func(fn func(p *sim.Proc)) {
		t.Helper()
		if err := r.Do("parity", fn); err != nil {
			t.Fatal(err)
		}
	}
}

func journaled(s *shop.Shop) *journal.Journal {
	jnl := journal.Open(storage.NewVolume("log", storage.NewDevice("log-disk", 64<<20, 100*time.Microsecond)), "journal/"+s.Name())
	s.SetJournal(jnl)
	return jnl
}

func routeDrops(jnl *journal.Journal) (n int) {
	for _, rec := range jnl.Records() {
		if rec.Kind == journal.RouteDrop {
			n++
		}
	}
	return n
}

// collectBehindTheBack destroys the VM's runtime object without telling
// the plant, so the plant's own Collect of it fails on a VM it still
// holds: the plant-internal failure.
func collectBehindTheBack(t *testing.T, p *sim.Proc, pl *plant.Plant, id core.VMID) {
	t.Helper()
	vm, ok := pl.VM(id)
	if !ok {
		t.Fatalf("plant %s does not hold %s", pl.Name(), id)
	}
	if err := vm.Collect(p); err != nil {
		t.Fatal(err)
	}
}

// failedDestroyKeepsTheRoute is the shop-level consequence both pairs
// are held to: a Destroy that failed anywhere but "not found" leaves the
// route, journals no route-drop, and reports an error.
func failedDestroyKeepsTheRoute(t *testing.T, p *sim.Proc, s *shop.Shop, jnl *journal.Journal, id core.VMID, route string) {
	t.Helper()
	drops := routeDrops(jnl)
	if err := s.Destroy(p, id); err == nil || errors.Is(err, shop.ErrUnknownVM) {
		t.Errorf("destroy of %s: %v, want a failure that is not \"unknown VM\"", id, err)
	}
	if got := s.RouteOf(id); got != route {
		t.Errorf("route of %s after the failed destroy = %q, want %q", id, got, route)
	}
	if got := routeDrops(jnl); got != drops {
		t.Errorf("failed destroy of %s journaled %d route-drop(s)", id, got-drops)
	}
}

// plantScript drives every operation of shop.PlantHandle through h in
// each state: served, unknown VM, at capacity, plant-internal failure,
// daemon down.
func plantScript(t *testing.T, h shop.PlantHandle, pl *plant.Plant, sd side) (ts transcript) {
	spec := testSpec(t)
	s := shop.New("shop", []shop.PlantHandle{h}, 7)
	jnl := journaled(s)
	every := func(state string, id core.VMID, p *sim.Proc) {
		_, found, err := h.Query(p, id)
		ts.add(state+": query", found, err)
		ts.add(state+": suspend", false, h.Lifecycle(p, id, proto.LifecycleSuspend))
		ts.add(state+": resume", false, h.Lifecycle(p, id, proto.LifecycleResume))
		ts.add(state+": publish", false, h.Publish(p, id, "img-"+string(id)))
		found, err = h.Collect(p, id)
		ts.add(state+": collect", found, err)
	}
	var mine core.VMID
	sd.onCaller(func(p *sim.Proc) {
		c, _, err := h.Estimate(p, spec)
		ts.add("estimate", c.OK(), err)
		_, err = h.Create(p, "vm-a", spec)
		ts.add("create", false, err)
		ts.add("lifecycle: bad op", false, h.Lifecycle(p, "vm-a", "defenestrate"))
		every("served", "vm-a", p)
		every("unknown", "vm-none", p)

		// Fill the plant (MaxVMs 2): the next creation is refused as
		// transient, and the shop would fail over.
		var cerr error
		if mine, _, cerr = s.Create(p, spec); cerr != nil {
			t.Fatal(cerr)
		}
		_, err = h.Create(p, "vm-b", spec)
		ts.add("create", false, err)
		_, err = h.Create(p, "vm-c", spec)
		ts.add("at capacity: create", false, err)
	})
	sd.onDaemon(func(p *sim.Proc) { collectBehindTheBack(t, p, pl, mine) })
	sd.onCaller(func(p *sim.Proc) {
		failedDestroyKeepsTheRoute(t, p, s, jnl, mine, h.Name())
		if _, err := s.Query(p, mine); err != nil {
			t.Errorf("query after the failed destroy: %v", err)
		}
		found, err := h.Collect(p, mine)
		ts.add("plant failure: collect", found, err)
	})
	pl.Crash()
	sd.onCaller(func(p *sim.Proc) {
		_, _, err := h.Estimate(p, spec)
		ts.add("down: estimate", false, err)
		_, err = h.Create(p, "vm-d", spec)
		ts.add("down: create", false, err)
		every("down", "vm-b", p)
		failedDestroyKeepsTheRoute(t, p, s, jnl, mine, h.Name())
	})
	return ts
}

func TestPlantTransportsAgree(t *testing.T) {
	cfg := plant.Config{MaxVMs: 2}
	local := func(t *testing.T) transcript {
		d, pl := newTestPlantCfg(t, "p", 71, cfg)
		run := on(t, d.Runner)
		return plantScript(t, shop.NewLocalHandle(pl), pl, side{run, run})
	}
	wire := func(t *testing.T) transcript {
		d, pl := newTestPlantCfg(t, "p", 71, cfg)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serve(t, l, NewPlantHandler(d.Runner, pl))
		rp := &RemotePlant{PlantName: "p", Addr: l.Addr().String(), Timeout: 5 * time.Second}
		t.Cleanup(rp.Close)
		return plantScript(t, rp, pl, side{on(t, NewRunner(sim.NewKernel())), on(t, d.Runner)})
	}
	want := transcript{step("estimate", isFound), step("create", isDone), step("lifecycle: bad op", isFailed)}
	want = append(want, states("served", isFound, isDone, isFound)...)
	want = append(want, states("unknown", isAbsent, isUnknown, isAbsent)...)
	want = append(want, step("create", isDone), step("at capacity: create", outcome{class: "transient"}),
		step("plant failure: collect", isFailed),
		step("down: estimate", isDown), step("down: create", isDown))
	want = append(want, states("down", isDown, isDown, isDown)...)
	compare(t, want, local(t), wire(t))
}

// peerScript drives every operation of shop.PeerHandle through h — the
// cell "b" as its peer "a" sees it — in each state: served, unknown VM,
// plant-internal failure, daemon down.
func peerScript(t *testing.T, h shop.PeerHandle, b *shop.Shop, pl *plant.Plant, sd side) (ts transcript) {
	a := shop.New("a", nil, 7)
	a.SetPeers([]shop.PeerHandle{h})
	jnl := journaled(a)
	fwd := *testSpec(t)
	fwd.Origin = "a"
	every := func(state string, id core.VMID, p *sim.Proc) {
		_, found, err := h.Query(p, id)
		ts.add(state+": query", found, err)
		ts.add(state+": suspend", false, h.Lifecycle(p, id, proto.LifecycleSuspend))
		ts.add(state+": resume", false, h.Lifecycle(p, id, proto.LifecycleResume))
		ts.add(state+": publish", false, h.Publish(p, id, "img-"+state))
		found, err = h.Collect(p, id)
		ts.add(state+": collect", found, err)
	}
	forward := func(p *sim.Proc, state, token string) core.VMID {
		fwd.RequestID = token
		id, _, err := h.Create(p, &fwd)
		ts.add(state+": forward-create", false, err)
		_, found, err := h.LookupForward(p, token)
		ts.add(state+": lookup-forward", found, err)
		return id
	}
	var mine, doomed core.VMID
	sd.onCaller(func(p *sim.Proc) {
		c, err := h.Estimate(p, &fwd)
		ts.add("estimate", c.OK(), err)
		id := forward(p, "served", "fwd-a-1")
		every("served", id, p)
		every("unknown", "vm-none", p)

		// a has no plants: its creations are forwarded to b.
		var cerr error
		if mine, _, cerr = a.Create(p, testSpec(t)); cerr != nil {
			t.Fatal(cerr)
		}
		doomed = forward(p, "again", "fwd-a-2")
	})
	sd.onDaemon(func(p *sim.Proc) { collectBehindTheBack(t, p, pl, doomed) })
	sd.onCaller(func(p *sim.Proc) {
		found, err := h.Collect(p, doomed)
		ts.add("plant failure: collect", found, err)
	})
	b.Kill()
	sd.onCaller(func(p *sim.Proc) {
		_, err := h.Estimate(p, &fwd)
		ts.add("down: estimate", false, err)
		forward(p, "down", "fwd-a-3")
		every("down", doomed, p)
		failedDestroyKeepsTheRoute(t, p, a, jnl, mine, "peer:b")
	})
	return ts
}

// newCellB builds the peer cell: a journaled shop over one in-process
// plant, everything on the daemon's kernel.
func newCellB(t *testing.T) (*Daemon, *shop.Shop, *plant.Plant) {
	d, pl := newTestPlant(t, "p", 72)
	b := shop.New("b", []shop.PlantHandle{shop.NewLocalHandle(pl)}, 7)
	journaled(b)
	return d, b, pl
}

func TestPeerTransportsAgree(t *testing.T) {
	local := func(t *testing.T) transcript {
		d, b, pl := newCellB(t)
		run := on(t, d.Runner)
		return peerScript(t, shop.NewLocalPeerHandle(b), b, pl, side{run, run})
	}
	wire := func(t *testing.T) transcript {
		d, b, pl := newCellB(t)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serve(t, l, NewShopHandler(d.Runner, b))
		rp := NewRemotePeer("b", l.Addr().String(), 5*time.Second, nil)
		t.Cleanup(rp.Close)
		return peerScript(t, rp, b, pl, side{on(t, NewRunner(sim.NewKernel())), on(t, d.Runner)})
	}
	want := transcript{step("estimate", isFound), step("served: forward-create", isDone), step("served: lookup-forward", isFound)}
	want = append(want, states("served", isFound, isDone, isFound)...)
	want = append(want, states("unknown", isAbsent, isUnknown, isAbsent)...)
	want = append(want, step("again: forward-create", isDone), step("again: lookup-forward", isFound),
		step("plant failure: collect", isFailed),
		step("down: estimate", isDown), step("down: forward-create", isDown), step("down: lookup-forward", isDown))
	want = append(want, states("down", isDown, isDown, isDown)...)
	compare(t, want, local(t), wire(t))
}

// compare holds both transports' transcripts to the script's expected
// outcomes, and so to each other.
func compare(t *testing.T, want, local, wire transcript) {
	t.Helper()
	if reflect.DeepEqual(local, want) && reflect.DeepEqual(wire, want) {
		return
	}
	for i := 0; i < max(len(want), len(local), len(wire)); i++ {
		var e, l, w outcome
		if i < len(want) {
			e = want[i]
		}
		if i < len(local) {
			l = local[i]
		}
		if i < len(wire) {
			w = wire[i]
		}
		mark, name := " ", e.step
		if l != e || w != e {
			mark, name = "≠", e.step+"/"+l.step+"/"+w.step
		}
		t.Logf("%s %-28s want found=%-5v %-9s | in-process found=%-5v %-9s | wire found=%-5v %-9s",
			mark, name, e.found, e.class, l.found, l.class, w.found, w.class)
	}
	t.Error("the transports do not both end every step as the script expects")
}

// states expands one row per state into the five routed operations'
// expected outcomes, in the order the scripts' every() runs them.
func states(state string, query, op, collect outcome) transcript {
	var ts transcript
	for _, o := range []struct {
		step string
		outcome
	}{{"query", query}, {"suspend", op}, {"resume", op}, {"publish", op}, {"collect", collect}} {
		ts = append(ts, outcome{state + ": " + o.step, o.found, o.class})
	}
	return ts
}

// The outcomes a step can end in.
var (
	isFound   = outcome{found: true, class: "ok"}
	isDone    = outcome{class: "ok"}
	isAbsent  = outcome{class: "ok"} // found=false, and no error
	isUnknown = outcome{class: "not-found"}
	isFailed  = outcome{class: "failed"}
	isDown    = outcome{class: "down"}
)

func step(name string, o outcome) outcome { return outcome{name, o.found, o.class} }
